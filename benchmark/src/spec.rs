//! `BENCHMARK.json` as the single source of metric names, units,
//! directions and regression bounds: the run prints exactly the metrics
//! it lists, and `compare` judges with the bounds it fixes.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Value::Object(root) = root else {
            return Err("BENCHMARK.json: not an object".to_string());
        };
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let Some(Value::Array(items)) = root.get(key) else {
                return Err(format!("BENCHMARK.json: no {key:?} array"));
            };
            items
                .iter()
                .map(|item| {
                    let Value::Object(m) = item else {
                        return Err(format!("BENCHMARK.json: {key}: entry is not an object"));
                    };
                    let text = |k: &str| match m.get(k) {
                        Some(Value::String(s)) => Ok(s.clone()),
                        _ => Err(format!("BENCHMARK.json: {key}: entry without {k:?}")),
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: match text("better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: match m.get("bound") {
                            Some(Value::Number(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: match root.get("run_seconds") {
                Some(Value::Number(s)) => *s,
                _ => return Err("BENCHMARK.json: no run_seconds".to_string()),
            },
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_file_meets_the_contract_shape() {
        let spec = Spec::load().unwrap();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
    }
}
