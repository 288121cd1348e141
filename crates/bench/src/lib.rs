//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation from the `gvc` simulator.
//!
//! Each figure module produces a serializable data structure plus a
//! text rendering that mirrors the paper's presentation. The `repro`
//! binary drives them (`cargo run --release -p gvc-bench --bin repro
//! -- all`) through one [`Runner`], which carries the command line's
//! run settings and the memo cache. Host-time performance is measured
//! by the separate `benchmark/` package (see `BENCHMARK.json`).

pub mod cli;
pub mod figures;
pub mod runner;
pub mod signals;
pub mod soak;
pub mod trace;

pub use runner::{RunKey, Runner};

/// Panics if any number in the JSON tree under `v` is non-finite,
/// naming the `$`-rooted path of the offender. The vendored
/// serializer emits `null` for NaN/inf, so this must run on the
/// [`serde::Value`] tree *before* serialization — after, the evidence
/// is gone.
pub fn assert_json_finite(label: &str, v: &serde::Value) {
    fn walk(label: &str, path: &mut String, v: &serde::Value) {
        match v {
            serde::Value::Float(f) => {
                assert!(
                    f.is_finite(),
                    "{label}: non-finite number {f} at {path} — \
                     the vendored serializer would silently emit null"
                );
            }
            serde::Value::Seq(items) => {
                for (i, item) in items.iter().enumerate() {
                    let len = path.len();
                    path.push_str(&format!("[{i}]"));
                    walk(label, path, item);
                    path.truncate(len);
                }
            }
            serde::Value::Map(entries) => {
                for (k, item) in entries {
                    let len = path.len();
                    path.push_str(&format!(".{k}"));
                    walk(label, path, item);
                    path.truncate(len);
                }
            }
            _ => {}
        }
    }
    walk(label, &mut String::from("$"), v);
}
