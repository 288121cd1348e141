//! Every path of the benchmark at test scale: `run --smoke` over all
//! four workloads, `trace --smoke`, and `compare` of the smoke output
//! against itself. One test function, so the children run one at a
//! time.

use serde::Value;
use std::path::Path;
use std::process::Command;

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    let map = serde::expect_map(v, "object").expect("an object");
    serde::map_field(map, name, "object").expect("the field exists")
}

fn names(list: &Value, key: &str) -> Vec<String> {
    match list {
        Value::Seq(items) => items
            .iter()
            .map(|m| match field(m, key) {
                Value::Str(s) => s.clone(),
                other => panic!("{key} is {other:?}"),
            })
            .collect(),
        other => panic!("expected a list, found {other:?}"),
    }
}

fn valid(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the benchmark binary and returns its stdout's last line as JSON.
fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_gvc-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn smoke_run_trace_and_self_compare() {
    let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
    let workloads = names(field(&spec, "workloads"), "name");
    let e2e = names(field(&spec, "end_to_end"), "name");
    let layers = names(field(&spec, "per_layer"), "name");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let (base, cand) = (dir.join("base"), dir.join("cand"));
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&cand).unwrap();
    let out = base.join("run.json");

    let line = run(&["run", "--smoke", "--out", out.to_str().unwrap()]);
    assert_eq!(field(&line, "correct"), &Value::Bool(true), "{line:?}");
    assert_eq!(field(&line, "failed"), &Value::UInt(0));
    let Value::Map(metrics) = field(&line, "metrics") else {
        panic!("metrics is a map")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<String> = workloads
        .iter()
        .flat_map(|w| e2e.iter().map(move |m| format!("{w}.{m}")))
        .collect();
    assert_eq!(got, want);
    for (name, m) in metrics {
        match field(m, "value") {
            Value::Float(v) => assert!(*v > 0.0, "{name} = {v}"),
            other => panic!("{name} value is {other:?}"),
        }
    }

    // Every metric any workload prints, detail rows included, has a
    // valid name.
    let file: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let Value::Seq(results) = field(&file, "results") else {
        panic!("results is a list")
    };
    assert_eq!(results.len(), workloads.len());
    for r in results {
        for key in ["metrics", "detail"] {
            for name in names(field(r, key), "name") {
                assert!(valid(&name), "invalid metric name {name:?}");
            }
        }
    }

    let line = run(&["trace", "--smoke"]);
    assert_eq!(field(&line, "correct"), &Value::Bool(true), "{line:?}");
    let Value::Map(metrics) = field(&line, "metrics") else {
        panic!("metrics is a map")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<String> = workloads
        .iter()
        .flat_map(|w| layers.iter().map(move |m| format!("{w}.{m}")))
        .collect();
    assert_eq!(got, want);

    std::fs::copy(&out, cand.join("run.json")).unwrap();
    let verdicts = Command::new(env!("CARGO_BIN_EXE_gvc-benchmark"))
        .args(["compare", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&verdicts.stdout);
    assert!(verdicts.status.success(), "{text}");
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(rows.len(), workloads.len() * (e2e.len() + 1), "{text}");
    assert!(rows.iter().all(|r| r.ends_with("unchanged")), "{text}");
}
