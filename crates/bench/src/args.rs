//! Shared CLI argument parsing for the bench binaries.
//!
//! `scan` and `scale` each grew their own hand-rolled flag loop; this
//! module is the one copy. A binary
//! declares its flags as an [`ArgSpec`] slice and gets back a
//! [`ParsedArgs`] with typed accessors — so a new flag (`--profile`,
//! `--baseline`) is defined once and unknown-flag errors are
//! uniform. Deliberately tiny: no external dependency, no derive magic,
//! just the three shapes the suite's CLIs actually use (boolean flags,
//! `--flag VALUE` pairs, and greedy `--flag A B C…` tails).

use perennial_checker::{CheckConfigBuilder, CoverageGuided, Exhaustive, SleepSetDpor};
use std::collections::{BTreeMap, BTreeSet};

/// How a declared flag consumes arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// Boolean presence flag: `--faults`.
    Flag,
    /// One value: `--telemetry PATH`. Last occurrence wins.
    Value,
    /// Greedy tail: `--merge A B C…` consumes everything after it.
    Rest,
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    pub name: &'static str,
    pub kind: ArgKind,
}

/// Declares a boolean flag.
pub const fn flag(name: &'static str) -> ArgSpec {
    ArgSpec {
        name,
        kind: ArgKind::Flag,
    }
}

/// Declares a `--flag VALUE` pair.
pub const fn value(name: &'static str) -> ArgSpec {
    ArgSpec {
        name,
        kind: ArgKind::Value,
    }
}

/// Declares a greedy `--flag A B C…` tail.
pub const fn rest(name: &'static str) -> ArgSpec {
    ArgSpec {
        name,
        kind: ArgKind::Rest,
    }
}

/// Parsed command line: declared flags plus free positionals.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    flags: BTreeSet<String>,
    values: BTreeMap<String, String>,
    tails: BTreeMap<String, Vec<String>>,
    positionals: Vec<String>,
}

impl ParsedArgs {
    /// Whether the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The value of a `--flag VALUE` pair, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A greedy tail's collected values (empty if the flag was absent).
    pub fn tail(&self, name: &str) -> &[String] {
        self.tails.get(name).map_or(&[], Vec::as_slice)
    }

    /// Free (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Parses a `--flag VALUE` through `FromStr`, with a uniform error.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(s) => s
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {name} value {s:?}")),
        }
    }
}

/// Parses `raw` against `spec`. Unknown `--flags` are errors; anything
/// not starting with `--` is a positional.
pub fn parse_args(
    raw: impl IntoIterator<Item = String>,
    spec: &[ArgSpec],
) -> Result<ParsedArgs, String> {
    let mut out = ParsedArgs::default();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let Some(s) = spec.iter().find(|s| s.name == arg) else {
            if arg.starts_with("--") {
                return Err(format!("unknown argument {arg:?}"));
            }
            out.positionals.push(arg);
            continue;
        };
        match s.kind {
            ArgKind::Flag => {
                out.flags.insert(s.name.to_string());
            }
            ArgKind::Value => {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.insert(s.name.to_string(), v);
            }
            ArgKind::Rest => {
                let first = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs at least one value"))?;
                let tail = out.tails.entry(s.name.to_string()).or_default();
                tail.push(first);
                tail.extend(it.by_ref());
            }
        }
    }
    Ok(out)
}

/// Applies a `--strategy` name to a [`CheckConfigBuilder`] — the one
/// copy of the strategy-name table (aliases included) the CLIs share.
pub fn apply_strategy(
    builder: CheckConfigBuilder,
    name: &str,
) -> Result<CheckConfigBuilder, String> {
    Ok(match name {
        "exhaustive" => builder.strategy(Exhaustive),
        "dpor" | "sleep-set-dpor" => builder.strategy(SleepSetDpor),
        "coverage" | "coverage-guided" => builder.strategy(CoverageGuided),
        other => {
            return Err(format!(
                "unknown strategy {other:?} (exhaustive|dpor|coverage)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<ArgSpec> {
        vec![
            flag("--faults"),
            value("--telemetry"),
            value("--workers"),
            rest("--merge"),
        ]
    }

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()), &spec())
    }

    #[test]
    fn flags_values_tails_and_positionals_parse() {
        let a = parse(&["kv/", "--faults", "--telemetry", "t.jsonl", "8"]).unwrap();
        assert!(a.flag("--faults"));
        assert_eq!(a.value("--telemetry"), Some("t.jsonl"));
        assert_eq!(a.positionals(), ["kv/", "8"]);
        assert_eq!(a.parse_value::<u64>("--workers").unwrap(), None);
    }

    #[test]
    fn rest_consumes_everything_after_it() {
        let a = parse(&["--merge", "a.json", "b.json", "--faults"]).unwrap();
        assert_eq!(a.tail("--merge"), ["a.json", "b.json", "--faults"]);
        assert!(!a.flag("--faults"), "consumed by the tail, not parsed");
    }

    #[test]
    fn errors_are_uniform() {
        assert!(parse(&["--unknown"]).unwrap_err().contains("--unknown"));
        assert!(parse(&["--telemetry"])
            .unwrap_err()
            .contains("needs a value"));
        let a = parse(&["--workers", "x"]).unwrap();
        assert!(a.parse_value::<usize>("--workers").is_err());
    }

    #[test]
    fn strategy_table_accepts_aliases_and_rejects_unknowns() {
        use perennial_checker::CheckConfig;
        for name in [
            "exhaustive",
            "dpor",
            "sleep-set-dpor",
            "coverage",
            "coverage-guided",
        ] {
            assert!(
                apply_strategy(CheckConfig::builder(), name).is_ok(),
                "{name}"
            );
        }
        assert!(apply_strategy(CheckConfig::builder(), "nope").is_err());
    }
}
