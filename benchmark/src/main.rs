//! `gvc-benchmark`: the repository's benchmark.
//!
//! ```text
//! gvc-benchmark run     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                       [--out FILE] [--smoke] [--inject-delay gpu.mem:PCT]
//! gvc-benchmark trace   (run --trace 1)
//! gvc-benchmark compare BASE_DIR CAND_DIR
//! gvc-benchmark pin
//! ```
//!
//! `run` starts one child process per workload (this binary again,
//! `child ...`), one at a time, so peak memory and the per-thread graph
//! memo belong to one workload. It prints a table per workload and, as
//! its last line, one JSON object: `correct`, `attempted`, `failed`,
//! and every `BENCHMARK.json` metric with its value and unit
//! (end-to-end ones, or per-layer ones with `--trace 1`).

mod cells;
mod compare;
mod figures;
mod host;
mod probe;
mod record;
mod replay;
mod service;
mod spans;
mod spec;
mod stats;

use record::{Book, Metric, RunFile, WorkloadResult};
use serde::{Serialize, Value};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What one workload run does.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measurement budget; a run makes at least its minimum passes.
    pub seconds: f64,
    pub trace: bool,
    /// Test scale, one pass, no warm-up: proves every path runs.
    pub smoke: bool,
    /// Check outputs against the pinned fingerprints.
    pub pins: bool,
    /// `--inject-delay gpu.mem:PCT`.
    pub inject_pct: Option<f64>,
    /// The `repro` binary (figures only).
    pub repro: Option<PathBuf>,
}

const USAGE: &str = "usage: gvc-benchmark run [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--smoke] [--inject-delay gpu.mem:PCT]\n       \
gvc-benchmark trace [same flags]\n       \
gvc-benchmark compare BASE_DIR CAND_DIR\n       \
gvc-benchmark pin";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    pins: bool,
    inject_pct: Option<f64>,
    repro: Option<PathBuf>,
}

fn parse(args: &[String], spec: &spec::Spec) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: record::PIN_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        out: None,
        smoke: false,
        pins: true,
        inject_pct: None,
        repro: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec.workloads.contains(w) {
                    return Err(format!(
                        "unknown workload {w:?} (one of {})",
                        spec.workloads.join(", ")
                    ));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--no-pins" => a.pins = false,
            "--inject-delay" => {
                let v = value()?;
                let pct = v
                    .strip_prefix("gpu.mem:")
                    .and_then(|p| p.parse::<f64>().ok())
                    .filter(|p| (0.0..=1000.0).contains(p))
                    .ok_or_else(|| format!("--inject-delay takes gpu.mem:PCT, not {v:?}"))?;
                a.inject_pct = Some(pct);
            }
            "--repro" => a.repro = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = spec.workloads.clone();
    }
    Ok(a)
}

fn opts(a: &Args) -> Opts {
    Opts {
        seed: a.seed,
        // A smoke run makes exactly one pass.
        seconds: if a.smoke { 0.0 } else { a.seconds },
        trace: a.trace,
        smoke: a.smoke,
        pins: a.pins && !a.smoke && a.seed == record::pins().seed,
        inject_pct: a.inject_pct,
        repro: a.repro.clone(),
    }
}

/// Runs one workload in this process (the child side of `run`).
fn child(a: &Args, spec: &spec::Spec) -> WorkloadResult {
    let name = a.workloads[0].as_str();
    let opts = opts(a);
    let mut book = Book::new(name, opts.pins.then(record::pins));
    let (metrics, detail) = if opts.trace {
        let mut spans = Spans::new();
        let (metrics, detail, counters) = match name {
            "irregular" => cells::trace(
                &cells::CellSet::irregular(opts.smoke),
                &opts,
                &mut book,
                &mut spans,
                None,
            ),
            "streaming" => cells::trace(
                &cells::CellSet::streaming(opts.smoke),
                &opts,
                &mut book,
                &mut spans,
                None,
            ),
            "figures" => figures::trace(&opts, &mut book, &mut spans),
            "service" => service::trace(&opts, &mut book, &mut spans),
            _ => unreachable!("workload names are validated"),
        };
        let counters = Value::Seq(
            counters
                .into_iter()
                .map(|(k, gaps, ns)| (k, gaps, ns).to_value())
                .collect(),
        );
        let path = spans.write(name, opts.seed, counters);
        eprintln!("[{name}: spans written to {}]", path.display());
        (metrics, detail)
    } else {
        match name {
            "irregular" => cells::run(&cells::CellSet::irregular(opts.smoke), &opts, &mut book),
            "streaming" => cells::run(&cells::CellSet::streaming(opts.smoke), &opts, &mut book),
            "figures" => figures::run(&opts, &mut book),
            "service" => service::run(&opts, &mut book),
            _ => unreachable!("workload names are validated"),
        }
    };
    let want = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let wanted: Vec<&str> = want.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names, wanted,
        "{name} must report exactly the BENCHMARK.json metrics"
    );
    for m in &detail {
        assert!(
            spec::valid_name(&m.name),
            "invalid metric name {:?}",
            m.name
        );
    }
    book.finish(opts.seed, opts.trace, metrics, detail)
}

/// Builds `repro` from the repository this benchmark sits in and
/// returns its path. Cargo honours `CARGO_TARGET_DIR`, relative to the
/// working directory, as it does for the benchmark itself.
fn ensure_repro() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "gvc-bench",
            "--bin",
            "repro",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    let repro = target.join("release").join("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!("{}: not built", repro.display()))
    }
}

/// Runs `workload` in a child process and parses its result.
fn spawn_child(workload: &str, a: &Args, repro: Option<&Path>) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    if !a.pins {
        cmd.arg("--no-pins");
    }
    if let Some(pct) = a.inject_pct {
        cmd.args(["--inject-delay", &format!("gpu.mem:{pct}")]);
    }
    if let Some(repro) = repro {
        cmd.arg("--repro").arg(repro);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("the {workload} child's result: {e}"))
}

fn print_metric(m: &Metric, bound: Option<f64>) {
    let (q1, q3) = stats::quartiles(&m.samples);
    let tail = match stats::tail(&m.samples) {
        Some((p, v)) => format!("p{p} {v:.4}"),
        None => String::new(),
    };
    let bound = bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
    println!(
        "  {:<28} {:<9} {:>14.4} {:>12.4} {:>12.4} {:>12.4} {:>5} {:>6}  {tail}",
        m.name,
        m.unit,
        m.value,
        stats::median(&m.samples),
        q1,
        q3,
        m.samples.len(),
        bound,
    );
}

fn print_result(r: &WorkloadResult, spec: &spec::Spec) {
    println!(
        "== {} (seed {}, {}; {} operations, {} failed) ==",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "end to end" },
        r.attempted,
        r.failed
    );
    println!(
        "  {:<28} {:<9} {:>14} {:>12} {:>12} {:>12} {:>5} {:>6}  tail",
        "metric", "unit", "value", "median", "q1", "q3", "n", "bound"
    );
    for m in &r.metrics {
        let bound = spec
            .end_to_end
            .iter()
            .find(|s| s.name == m.name)
            .and_then(|s| s.bound);
        print_metric(m, bound);
    }
    if !r.detail.is_empty() {
        println!("  -- detail --");
        for m in &r.detail {
            print_metric(m, None);
        }
    }
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

/// The last line: `{"correct", "attempted", "failed", "metrics"}`.
/// Several workloads' metrics are named `<workload>.<metric>`.
fn summary_line(results: &[WorkloadResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let prefix = results.len() > 1;
    let metrics = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.clone()
                };
                let value = Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (name, value)
            })
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("in-memory JSON serialization")
}

fn run(a: &Args, spec: &spec::Spec) -> Result<Vec<WorkloadResult>, String> {
    let repro = if a.workloads.iter().any(|w| w == "figures") {
        Some(ensure_repro()?)
    } else {
        None
    };
    let mut results = Vec::new();
    for w in &a.workloads {
        let r = spawn_child(w, a, repro.as_deref())?;
        print_result(&r, spec);
        results.push(r);
    }
    Ok(results)
}

fn write(path: &Path, text: String) -> Result<(), String> {
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::get();
    let usage = |e: &str| {
        eprintln!("gvc-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    };
    let Some(cmd) = args.first() else {
        return usage("no command");
    };
    let parsed = |rest: &[String]| parse(rest, &spec);
    match cmd.as_str() {
        "run" | "trace" | "child" => {
            let mut a = match parsed(&args[1..]) {
                Ok(a) => a,
                Err(e) => return usage(&e),
            };
            a.trace |= cmd == "trace";
            if cmd == "child" {
                let r = child(&a, &spec);
                println!(
                    "{}",
                    serde_json::to_string(&r.to_value()).expect("in-memory JSON")
                );
                return ExitCode::SUCCESS;
            }
            let results = match run(&a, &spec) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("gvc-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(out) = &a.out {
                let file = RunFile {
                    schema: record::SCHEMA.to_string(),
                    results: results.clone(),
                };
                let text = serde_json::to_string(&file.to_value()).expect("in-memory JSON");
                if let Err(e) = write(out, text) {
                    eprintln!("gvc-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", summary_line(&results));
            ExitCode::SUCCESS
        }
        "setup" => {
            let a = match parsed(&args[1..]) {
                Ok(a) => a,
                Err(e) => return usage(&e),
            };
            let secs = match a.workloads[0].as_str() {
                "irregular" => cells::setup_once(&cells::CellSet::irregular(a.smoke), a.seed),
                "streaming" => cells::setup_once(&cells::CellSet::streaming(a.smoke), a.seed),
                "service" => service::setup_once(&opts(&a)),
                other => return usage(&format!("{other} has no in-process set-up")),
            };
            println!("{secs}");
            ExitCode::SUCCESS
        }
        "compare" => {
            let [base, cand] = &args[1..] else {
                return usage("compare takes BASE_DIR CAND_DIR");
            };
            let load = |d: &String| compare::load_dir(Path::new(d));
            match (load(base), load(cand)) {
                (Ok(b), Ok(c)) => {
                    if compare::compare(&spec, &b, &c) {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("gvc-benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "pin" => {
            let mut a = match parsed(&[
                "--seconds".to_string(),
                "0".to_string(),
                "--no-pins".to_string(),
            ]) {
                Ok(a) => a,
                Err(e) => return usage(&e),
            };
            a.seed = record::PIN_SEED;
            let results = match run(&a, &spec) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("gvc-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(r) = results.iter().find(|r| r.failed > 0) {
                eprintln!(
                    "gvc-benchmark: not pinning, {} failed: {:?}",
                    r.workload, r.failures
                );
                return ExitCode::FAILURE;
            }
            let pins = record::Pins {
                seed: a.seed,
                ops: results
                    .iter()
                    .flat_map(|r| {
                        r.fingerprints
                            .iter()
                            .map(move |(op, fp)| (format!("{}/{op}", r.workload), fp.clone()))
                    })
                    .collect(),
            };
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints.json");
            match write(&path, record::json_of(&pins)) {
                Ok(()) => {
                    eprintln!(
                        "pinned {} outputs in {}; rebuild to embed them",
                        pins.ops.len(),
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gvc-benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(&format!("unknown command {cmd:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse(
            &v.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &spec::get(),
        )
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args(&[
            "--workload",
            "service",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["service".to_string()], 7, 3.0, true)
        );
        assert_eq!(args(&[]).unwrap().workloads, spec::get().workloads);
        assert_eq!(
            args(&["--inject-delay", "gpu.mem:5"]).unwrap().inject_pct,
            Some(5.0)
        );
        for bad in [
            &["--workload", "hit"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--inject-delay", "tlb:5"],
            &["--bogus"],
            &["--seed"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            workload: "irregular".into(),
            seed: 1,
            traced: false,
            attempted: 5,
            failed: 1,
            failures: vec!["irregular/bfs/huge: panicked".into()],
            metrics: vec![Metric::exact("wall_s", "s", 2.5)],
            detail: vec![],
            fingerprints: vec![],
        };
        let line = summary_line(&[r]);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":5,"failed":1,"metrics":{"wall_s":{"value":2.5,"unit":"s"}}}"#
        );
    }
}
