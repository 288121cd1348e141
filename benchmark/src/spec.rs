//! The benchmark definition in the repository's `BENCHMARK.json`:
//! workload names, metric names with units and directions, and the
//! bounds the gate applies.

use serde::Value;

/// The committed definition, compiled in so the binary and the file
/// cannot disagree.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Largest relative worsening of the median that still counts as
    /// no regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    serde::expect_map(v, "object")
        .and_then(|m| serde::map_field(m, name, "BENCHMARK.json entry"))
        .map_err(|e| e.to_string())
}

fn string(v: &Value, name: &str) -> Result<String, String> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("`{name}` must be a string, found {other:?}")),
    }
}

fn list<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], String> {
    match field(v, name)? {
        Value::Seq(items) => Ok(items),
        other => Err(format!("`{name}` must be a list, found {other:?}")),
    }
}

fn metric(v: &Value, with_bound: bool) -> Result<MetricSpec, String> {
    let better = string(v, "better")?;
    let bound = if with_bound {
        match field(v, "bound")? {
            Value::Float(f) => Some(*f),
            Value::UInt(n) => Some(*n as f64),
            other => return Err(format!("`bound` must be a number, found {other:?}")),
        }
    } else {
        None
    };
    Ok(MetricSpec {
        name: string(v, "name")?,
        unit: string(v, "unit")?,
        lower_is_better: match better.as_str() {
            "lower" => true,
            "higher" => false,
            other => return Err(format!("`better` must be lower or higher, not {other:?}")),
        },
        bound,
    })
}

/// Parses a `BENCHMARK.json` text.
pub fn parse(text: &str) -> Result<Spec, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = list(&root, "workloads")?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list(&root, "end_to_end")?
        .iter()
        .map(|m| metric(m, true))
        .collect::<Result<_, _>>()?;
    let per_layer = list(&root, "per_layer")?
        .iter()
        .map(|m| metric(m, false))
        .collect::<Result<_, _>>()?;
    let run_seconds = match field(&root, "run_seconds")? {
        Value::UInt(n) => *n,
        other => {
            return Err(format!(
                "`run_seconds` must be a whole number, found {other:?}"
            ))
        }
    };
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
        run_seconds,
    })
}

/// The compiled-in definition.
pub fn get() -> Spec {
    parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
}

/// Whether `name` is a valid metric or workload name:
/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64
/// characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_definition_names_are_valid_and_unique() {
        let spec = get();
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("gpu.mem_ns_per_req"));
        assert!(valid_name("peak_rss_mb"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn parse_rejects_bad_direction() {
        let text = r#"{"workloads": [], "run_seconds": 1, "per_layer": [],
            "end_to_end": [{"name": "a", "unit": "s", "better": "faster", "bound": 0.1}]}"#;
        assert!(parse(text).unwrap_err().contains("better"));
    }
}
