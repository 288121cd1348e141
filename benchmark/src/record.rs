//! What one workload run measured, and the bookkeeping that produces
//! it: per-operation timings, attempted and failed operations, and
//! output fingerprints checked across passes and against the pinned
//! seed-42 values.

use crate::stats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The run's value: a median, or a sum of per-operation medians.
    pub value: f64,
    /// The samples behind the value, for quartiles, tail and count.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }

    /// The median of `samples`.
    pub fn median(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        Metric::new(name, unit, stats::median(&samples), samples)
    }

    /// A single exact value (a count, or a ratio of totals).
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Metric::new(name, unit, value, vec![value])
    }
}

/// Everything one workload run reports. A child process prints this
/// as its last line; `run --out` writes a list of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `workload/op: reason` for each failed operation.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names: end-to-end, or per-layer
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Further rows for people: workload-specific layers and counts.
    pub detail: Vec<Metric>,
    /// `(op, FNV-1a of its output)` from the first pass.
    pub fingerprints: Vec<(String, String)>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A traced run's per-layer metrics, its detail rows, and per-kernel
/// `(cell/kernel, gaps, gap ns)` counters for the spans file.
pub type Traced = (Vec<Metric>, Vec<Metric>, Vec<(String, u64, u64)>);

/// A `run --out` file: one result per workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    pub schema: String,
    pub results: Vec<WorkloadResult>,
}

pub const SCHEMA: &str = "gvc-benchmark/1";

/// 64-bit FNV-1a, the fingerprint the repository's golden tests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// The pretty JSON every report is written as (the same bytes `repro`
/// and the golden tests hash).
pub fn json_of<T: Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(&v.to_value()).expect("in-memory JSON serialization")
}

/// Pinned fingerprints: `fingerprints.json`, written by `gvc-benchmark
/// pin` at seed [`PIN_SEED`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pins {
    pub seed: u64,
    pub ops: Vec<(String, String)>,
}

pub const PIN_SEED: u64 = 42;

pub fn pins() -> Pins {
    serde_json::from_str(include_str!("../fingerprints.json"))
        .expect("the committed fingerprints.json parses")
}

/// Counts attempted and failed operations and checks each output's
/// fingerprint against the first pass and, when `pins` is set, against
/// the pinned value.
pub struct Book {
    workload: String,
    pins: Option<Pins>,
    pub attempted: u64,
    pub failures: Vec<String>,
    first: Vec<(String, u64)>,
}

impl Book {
    pub fn new(workload: &str, pins: Option<Pins>) -> Self {
        Book {
            workload: workload.to_string(),
            pins,
            attempted: 0,
            failures: Vec::new(),
            first: Vec::new(),
        }
    }

    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Records one operation that completed with output fingerprint
    /// `fp`.
    pub fn output(&mut self, op: &str, fp: u64) {
        self.attempted += 1;
        if let Some(&(_, first)) = self.first.iter().find(|(o, _)| o == op) {
            if first != fp {
                self.push_failure(
                    op,
                    format!(
                        "output {} differs from the first pass's {}",
                        hex(fp),
                        hex(first)
                    ),
                );
            }
            return;
        }
        self.first.push((op.to_string(), fp));
        let key = format!("{}/{op}", self.workload);
        if let Some(pins) = &self.pins {
            match pins.ops.iter().find(|(k, _)| *k == key) {
                Some((_, want)) if *want == hex(fp) => {}
                Some((_, want)) => {
                    let why = format!("output {} differs from the pinned {want}", hex(fp));
                    self.push_failure(op, why)
                }
                None => self.push_failure(op, "no pinned fingerprint".to_string()),
            }
        }
    }

    /// Records one operation that completed with no output of its own
    /// to check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation that failed.
    pub fn fail(&mut self, op: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.push_failure(op, why.to_string());
    }

    fn push_failure(&mut self, op: &str, why: String) {
        self.failures.push(format!("{}/{op}: {why}", self.workload));
    }

    pub fn finish(
        self,
        seed: u64,
        traced: bool,
        metrics: Vec<Metric>,
        detail: Vec<Metric>,
    ) -> WorkloadResult {
        WorkloadResult {
            workload: self.workload,
            seed,
            traced,
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            failures: self.failures,
            metrics,
            detail,
            fingerprints: self
                .first
                .into_iter()
                .map(|(op, fp)| (op, hex(fp)))
                .collect(),
        }
    }
}

/// Host seconds of each operation across passes, keyed by operation in
/// first-seen order.
#[derive(Debug, Default)]
pub struct OpTimes {
    ops: Vec<(String, Vec<f64>)>,
}

impl OpTimes {
    pub fn push(&mut self, op: &str, secs: f64) {
        match self.ops.iter_mut().find(|(o, _)| o == op) {
            Some((_, v)) => v.push(secs),
            None => self.ops.push((op.to_string(), vec![secs])),
        }
    }

    /// Σ over operations of each operation's fastest time: one pass
    /// with every operation at its best. Noise on a shared host only
    /// ever adds time, and slow spells last seconds, so the per-run
    /// minimum is far steadier from run to run than the median.
    pub fn sum_of_minima(&self) -> f64 {
        self.ops
            .iter()
            .map(|(_, v)| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// Each operation with its samples.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.ops.iter().map(|(o, v)| (o.as_str(), v.as_slice()))
    }

    /// Every sample of every operation whose name starts with `prefix`.
    pub fn pooled(&self, prefix: &str) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|(o, _)| o.starts_with(prefix))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

/// Per-pass layer samples, each reduced to its median at the end.
#[derive(Debug, Default)]
pub struct LayerSamples(Vec<(String, String, Vec<f64>)>);

impl LayerSamples {
    pub fn push(&mut self, name: &str, unit: &str, v: f64) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, s)) => s.push(v),
            None => self.0.push((name.to_string(), unit.to_string(), vec![v])),
        }
    }

    /// Removes `name` and returns its median.
    pub fn take(&mut self, name: &str) -> Metric {
        let i = self
            .0
            .iter()
            .position(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no samples for {name}"));
        let (name, unit, samples) = self.0.remove(i);
        Metric::median(&name, &unit, samples)
    }

    /// The medians of everything not taken.
    pub fn rest(self) -> Vec<Metric> {
        self.0
            .into_iter()
            .map(|(n, u, s)| Metric::median(&n, &u, s))
            .collect()
    }
}

/// `num / den`, 0 for a zero denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Decides how many passes a run makes: at least `min`, and more while
/// another pass as long as the last one still fits in the budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
    pub passes: usize,
    last: f64,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min,
            passes: 0,
            last: 0.0,
        }
    }

    pub fn more(&self) -> bool {
        self.passes < self.min || self.start.elapsed().as_secs_f64() + self.last <= self.seconds
    }

    pub fn done(&mut self, pass_secs: f64) {
        self.passes += 1;
        self.last = pass_secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn a_perturbed_output_is_counted_as_failed() {
        let pins = Pins {
            seed: 42,
            ops: vec![("w/cell".into(), hex(fnv1a(b"report")))],
        };
        let mut book = Book::new("w", Some(pins));
        book.output("cell", fnv1a(b"report"));
        book.output("cell", fnv1a(b"report"));
        let clean = Book::new("w", None).finish(42, false, vec![], vec![]);
        assert_eq!(clean.failed, 0);
        // One byte of drift in the second pass: a round-to-round
        // difference, named by workload and operation.
        book.output("cell", fnv1a(b"reporT"));
        let r = book.finish(42, false, vec![], vec![]);
        assert_eq!((r.attempted, r.failed), (3, 1));
        assert!(
            r.failures[0].starts_with("w/cell: output"),
            "{:?}",
            r.failures
        );

        // Drift against the pin on the first pass.
        let pins = Pins {
            seed: 42,
            ops: vec![("w/cell".into(), hex(fnv1a(b"report")))],
        };
        let mut book = Book::new("w", Some(pins));
        book.output("cell", fnv1a(b"reporT"));
        book.output("other", 1);
        let r = book.finish(42, false, vec![], vec![]);
        assert_eq!((r.attempted, r.failed), (2, 2));
        assert!(r.failures[0].contains("pinned"));
        assert!(r.failures[1].contains("no pinned fingerprint"));
    }

    #[test]
    fn sum_of_minima_takes_each_operation_separately() {
        let mut t = OpTimes::default();
        for (a, b) in [(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)] {
            t.push("a", a);
            t.push("b", b);
        }
        assert_eq!(t.sum_of_minima(), 11.0);
        assert_eq!(t.pooled("a").len(), 3);
    }
}
