//! The `figures` workload: `repro all --scale quick` as a child
//! process, the command people wait on to regenerate the paper's
//! figures. Only this workload exercises `repro`'s memo cache, worker
//! pool, figure assembly and JSON emission.

use crate::cells::{self, CellSet};
use crate::record::{fnv1a, Book, Budget, Metric, OpTimes, Traced};
use crate::spans::Spans;
use crate::{host, Opts};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One finished `repro` process.
struct ReproRun {
    wall_s: f64,
    peak_mib: f64,
    /// `(target, seconds)` from the `[<target> took …]` lines, in order.
    targets: Vec<(String, f64)>,
    json_bytes: u64,
    json_fp: u64,
}

/// Parses a `Duration`'s `Debug` text (`1.7s`, `826.7ms`, `44.7µs`).
fn parse_duration(text: &str) -> Option<f64> {
    let split = text.find(|c: char| c.is_ascii_alphabetic() || c == 'µ')?;
    let (num, unit) = text.split_at(split);
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" | "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// `[fig9 took 291.9ms]` → `("fig9", 0.2919)`.
fn parse_took(line: &str) -> Option<(String, f64)> {
    let inner = line.strip_prefix('[')?.strip_suffix(']')?;
    let (target, took) = inner.split_once(" took ")?;
    Some((target.to_string(), parse_duration(took)?))
}

/// FNV-1a over every file of `dir` in name order (name, NUL, bytes),
/// and their total size.
fn fingerprint_dir(dir: &Path) -> Result<(u64, u64), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    let mut all = Vec::new();
    let mut bytes = 0u64;
    for path in entries {
        let data = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += data.len() as u64;
        all.extend_from_slice(path.file_name().unwrap_or_default().as_encoded_bytes());
        all.push(0);
        all.extend_from_slice(&data);
    }
    if bytes == 0 {
        return Err(format!("{}: no JSON written", dir.display()));
    }
    Ok((fnv1a(&all), bytes))
}

fn repro_path(opts: &Opts) -> &Path {
    opts.repro
        .as_deref()
        .expect("the parent builds repro before starting the figures workload")
}

/// Runs `repro all` into a fresh directory, polling the child's peak
/// resident set while it runs.
fn repro_all(opts: &Opts) -> Result<ReproRun, String> {
    let scratch = host::Scratch::new("figures");
    let json = scratch.0.join("json");
    let stderr_path = scratch.0.join("stderr.txt");
    let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let scale = if opts.smoke { "test" } else { "quick" };
    let t0 = Instant::now();
    let mut child = Command::new(repro_path(opts))
        .args(["all", "--scale", scale, "--jobs", &jobs.to_string()])
        .args(["--seed", &opts.seed.to_string(), "--json"])
        .arg(&json)
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn repro: {e}"))?;
    let mut peak_mib = 0.0f64;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for repro: {e}"));
            }
        }
        if let Some(mib) = host::peak_rss_mib(Some(child.id())) {
            peak_mib = peak_mib.max(mib);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let log = std::fs::read_to_string(&stderr_path).unwrap_or_default();
    if !status.success() {
        let tail: Vec<&str> = log.lines().rev().take(3).collect();
        return Err(format!("repro exited with {status}: {}", tail.join(" | ")));
    }
    let targets: Vec<(String, f64)> = log.lines().filter_map(parse_took).collect();
    if targets.is_empty() {
        return Err("repro printed no target timings".to_string());
    }
    let (json_fp, json_bytes) = fingerprint_dir(&json)?;
    Ok(ReproRun {
        wall_s,
        peak_mib,
        targets,
        json_bytes,
        json_fp,
    })
}

/// Set-up: the wall time of a `repro` process that builds no
/// simulation (`repro table1`), i.e. process start, argument parsing
/// and exit.
fn setup_once(opts: &Opts) -> Result<f64, String> {
    let t0 = Instant::now();
    let status = Command::new(repro_path(opts))
        .args(["table1", "--scale", "quick"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn repro: {e}"))?;
    if status.success() {
        Ok(t0.elapsed().as_secs_f64())
    } else {
        Err(format!("repro table1 exited with {status}"))
    }
}

pub fn run(opts: &Opts, book: &mut Book) -> (Vec<Metric>, Vec<Metric>) {
    let mut setup = host::Setup::default();
    setup.take(book, opts, 5, || setup_once(opts));
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut targets = OpTimes::default();
    let mut json_kb = 0.0;
    let mut budget = Budget::new(opts.seconds, if opts.smoke { 1 } else { 3 });
    while budget.more() {
        let t0 = Instant::now();
        match repro_all(opts) {
            Ok(r) => {
                book.output("json", r.json_fp);
                walls.push(r.wall_s);
                peaks.push(r.peak_mib);
                json_kb = r.json_bytes as f64 / 1024.0;
                for (t, s) in &r.targets {
                    targets.push(t, *s);
                }
            }
            Err(e) => book.fail("repro_all", e),
        }
        budget.done(t0.elapsed().as_secs_f64());
        setup.take(book, opts, 5, || setup_once(opts));
    }
    let metrics = vec![
        // The fastest run, as for the other workloads' operations.
        Metric::new(
            "wall_s",
            "s",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls,
        ),
        Metric::median("peak_rss_mb", "MiB", peaks),
        Metric::median("setup_s", "s", setup.samples),
    ];
    let mut detail = vec![Metric::exact("figures.json_kb", "KiB", json_kb)];
    detail.extend(target_metrics(&targets));
    (metrics, detail)
}

fn target_metrics(targets: &OpTimes) -> Vec<Metric> {
    targets
        .iter()
        .map(|(t, s)| Metric::median(&format!("figures.{t}_s"), "s", s.to_vec()))
        .collect()
}

/// One `repro all` with a span per figure target, then the layer
/// profile of the sweep's quick-scale cells in-process (a child
/// process cannot be wrapped).
pub fn trace(opts: &Opts, book: &mut Book, spans: &mut Spans) -> Traced {
    let t0 = Instant::now();
    let mut detail = Vec::new();
    let root = match repro_all(opts) {
        Ok(r) => {
            book.output("json", r.json_fp);
            let root = spans.push(
                "repro_all",
                None,
                t0,
                t0 + Duration::from_secs_f64(r.wall_s),
            );
            let mut at = spans.us(t0);
            let mut targets = OpTimes::default();
            for (t, s) in &r.targets {
                spans.push_us(t, Some(root), at, s * 1e6);
                at += s * 1e6;
                targets.push(t, *s);
            }
            detail.push(Metric::exact(
                "figures.json_kb",
                "KiB",
                r.json_bytes as f64 / 1024.0,
            ));
            detail.extend(target_metrics(&targets));
            Some(root)
        }
        Err(e) => {
            book.fail("repro_all", e);
            None
        }
    };
    let rest = Opts {
        seconds: (opts.seconds - t0.elapsed().as_secs_f64()).max(0.0),
        ..opts.clone()
    };
    let set = CellSet::figures_profile(opts.smoke);
    let (metrics, more, counters) = cells::trace(&set, &rest, book, spans, root);
    detail.extend(more);
    (metrics, detail, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_repro_timing_lines() {
        assert_eq!(parse_took("[fig2 took 1.7s]"), Some(("fig2".into(), 1.7)));
        let (t, s) = parse_took("[table1 took 161.6µs]").unwrap();
        assert_eq!(t, "table1");
        assert!((s - 161.6e-6).abs() < 1e-12);
        assert!((parse_took("[fig4 took 826.7ms]").unwrap().1 - 0.8267).abs() < 1e-12);
        assert_eq!(parse_took("repro: error"), None);
        assert_eq!(parse_took("[fig9 took soon]"), None);
    }
}
