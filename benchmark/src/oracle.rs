//! Known-answer oracle: `expected.json` is hand-written and compiled in,
//! so a verdict is judged against an answer the checker never produced.

use perennial_checker::CheckReport;
use serde_json::Value;
use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("../expected.json");

pub struct Oracle {
    /// Registry name → must the scenario PASS.
    pass: BTreeMap<String, bool>,
    /// Mutants correct under crashes alone → the fault pass (wire name)
    /// whose sweep must produce their counterexample.
    fault_only: BTreeMap<String, String>,
}

impl Oracle {
    pub fn load() -> Result<Oracle, String> {
        Oracle::parse(EXPECTED)
    }

    fn parse(text: &str) -> Result<Oracle, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("expected.json: {e}"))?;
        let section = |key: &str| match &root {
            Value::Object(m) => match m.get(key) {
                Some(Value::Object(s)) => Ok(s.clone()),
                _ => Err(format!("expected.json: no {key:?} object")),
            },
            _ => Err("expected.json: not an object".to_string()),
        };
        let mut pass = BTreeMap::new();
        for (name, v) in section("scenarios")?.iter() {
            let must_pass = match v {
                Value::String(s) if s == "PASS" => true,
                Value::String(s) if s == "FAIL" => false,
                other => return Err(format!("expected.json: {name}: bad verdict {other:?}")),
            };
            pass.insert(name.clone(), must_pass);
        }
        let mut fault_only = BTreeMap::new();
        for (name, v) in section("fault_only")?.iter() {
            match v {
                Value::String(p) if pass.get(name) == Some(&false) => {
                    fault_only.insert(name.clone(), p.clone());
                }
                _ => {
                    return Err(format!(
                        "expected.json: fault_only {name}: not a FAIL mutant"
                    ))
                }
            }
        }
        Ok(Oracle { pass, fault_only })
    }

    /// Fails loudly when a registry grew a scenario nobody wrote an
    /// answer for: an unknown name must not be scored as correct.
    pub fn require<'a>(&self, names: impl Iterator<Item = &'a str>) -> Result<(), String> {
        let missing: Vec<&str> = names.filter(|n| !self.pass.contains_key(*n)).collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "expected.json has no answer for: {}",
                missing.join(", ")
            ))
        }
    }

    /// `None` when the report's verdict is the known answer; otherwise
    /// what is wrong with it. An INCOMPLETE report is never correct.
    pub fn judge(&self, name: &str, report: &CheckReport, fault_passes_on: bool) -> Option<String> {
        let Some(&must_pass) = self.pass.get(name) else {
            return Some(format!("{name}: no known answer"));
        };
        if report.is_incomplete() {
            return Some(format!(
                "{name}: INCOMPLETE ({})",
                report.incomplete.join("; ")
            ));
        }
        let verdict = |p: bool| if p { "PASS" } else { "FAIL" };
        if report.passed() != must_pass {
            return Some(format!(
                "{name}: verdict {} but the known answer is {}",
                verdict(report.passed()),
                verdict(must_pass)
            ));
        }
        if let (true, Some(want), Some(cx)) = (
            fault_passes_on,
            self.fault_only.get(name),
            &report.counterexample,
        ) {
            if cx.pass.name() != want {
                return Some(format!(
                    "{name}: caught by {} but only {want} can legitimately catch it",
                    cx.pass.name()
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_file_parses_and_covers_both_registries() {
        let o = Oracle::load().unwrap();
        let good = perennial_suite::all_scenarios();
        let bad = perennial_suite::all_mutant_scenarios();
        o.require(good.names().into_iter().chain(bad.names()))
            .unwrap();
        assert!(good.names().iter().all(|n| o.pass[*n]));
        assert!(bad.names().iter().all(|n| !o.pass[*n]));
        assert_eq!(o.fault_only.len(), 3);
    }

    #[test]
    fn an_unknown_scenario_is_refused_not_scored() {
        let o = Oracle::load().unwrap();
        let err = o.require(["kv/single-put", "kv/brand-new"].into_iter());
        assert!(err.unwrap_err().contains("kv/brand-new"));
    }

    #[test]
    fn a_fault_only_entry_must_name_a_failing_mutant() {
        let bad = r#"{"scenarios": {"a": "PASS"}, "fault_only": {"a": "net-fault-sweep"}}"#;
        assert!(Oracle::parse(bad).is_err());
    }

    #[test]
    fn wrong_and_incomplete_verdicts_are_errors() {
        let o = Oracle::load().unwrap();
        let passing = CheckReport::default();
        assert!(o.judge("kv/single-put", &passing, false).is_none());
        assert!(o.judge("kv/mutant/no-lock", &passing, false).is_some());
        let partial = CheckReport {
            incomplete: vec!["budget".into()],
            ..CheckReport::default()
        };
        assert!(o.judge("kv/single-put", &partial, false).is_some());
    }
}
