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

/// Pretty JSON of `x`, streamed straight to text. The writer prints
/// a non-finite number as `null`, so when it saw one this rebuilds
/// the [`serde::Value`] tree and panics through
/// [`assert_json_finite`], naming the offender's `$`-rooted path —
/// before the caller has written anything.
pub fn to_json_pretty_checked<T: serde::Serialize + ?Sized>(label: &str, x: &T) -> String {
    let mut w = serde::JsonWriter::pretty();
    x.serialize(&mut w);
    if w.saw_nonfinite() {
        assert_json_finite(label, &x.to_value());
        unreachable!("{label}: the writer saw a non-finite number the tree lacks");
    }
    w.into_string()
}

/// [`to_json_pretty_checked`] written to a new file at `path` as it is
/// made, so the whole text is never in memory at once. When the writer
/// saw a non-finite number, the file is removed before the panic.
pub fn write_json_pretty_checked<T: serde::Serialize + ?Sized>(
    label: &str,
    x: &T,
    path: &str,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = serde::JsonWriter::pretty_into(file);
    x.serialize(&mut w);
    if w.saw_nonfinite() {
        drop(w);
        let _ = std::fs::remove_file(path);
        assert_json_finite(label, &x.to_value());
        unreachable!("{label}: the writer saw a non-finite number the tree lacks");
    }
    w.finish().map_err(|e| format!("{path}: {e}"))
}

/// Panics if any number in the JSON tree under `v` is non-finite,
/// naming the `$`-rooted path of the offender. The vendored
/// serializer emits `null` for NaN/inf, so this must run on the
/// [`serde::Value`] tree *before* serialization — after, the evidence
/// is gone. The walk allocates nothing unless it finds one.
pub fn assert_json_finite(label: &str, v: &serde::Value) {
    /// The first non-finite number under `v`, with its path's
    /// segments innermost first.
    fn find(v: &serde::Value) -> Option<(f64, Vec<String>)> {
        match v {
            serde::Value::Float(f) if !f.is_finite() => Some((*f, Vec::new())),
            serde::Value::Seq(items) => items.iter().enumerate().find_map(|(i, item)| {
                let (f, mut path) = find(item)?;
                path.push(format!("[{i}]"));
                Some((f, path))
            }),
            serde::Value::Map(entries) => entries.iter().find_map(|(k, item)| {
                let (f, mut path) = find(item)?;
                path.push(format!(".{k}"));
                Some((f, path))
            }),
            _ => None,
        }
    }
    if let Some((f, segments)) = find(v) {
        let path: String = segments.iter().rev().map(String::as_str).collect();
        panic!(
            "{label}: non-finite number {f} at ${path} — \
             the vendored serializer would silently emit null"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The panic message `f` raises.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let panic = std::panic::catch_unwind(f).expect_err("expected a panic");
        panic.downcast_ref::<String>().expect("formatted").clone()
    }

    fn nested(x: f64) -> Value {
        Value::Map(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Seq(vec![
                    Value::Float(0.5),
                    Value::Null,
                    Value::Map(vec![
                        ("c".into(), Value::Float(1.0)),
                        ("d".into(), Value::Float(x)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn assert_json_finite_names_the_path() {
        assert_json_finite("ok", &nested(2.0));
        assert_eq!(
            panic_message(|| assert_json_finite("fig", &nested(f64::NAN))),
            "fig: non-finite number NaN at $.b[2].d — \
             the vendored serializer would silently emit null"
        );
        assert_eq!(
            panic_message(|| assert_json_finite("top", &Value::Float(f64::NEG_INFINITY))),
            "top: non-finite number -inf at $ — \
             the vendored serializer would silently emit null"
        );
    }

    #[test]
    fn checked_json_streams_or_panics_with_the_path() {
        let text = to_json_pretty_checked("ok", &nested(2.0));
        assert_eq!(text, serde_json::to_string_pretty(&nested(2.0)).unwrap());
        assert_eq!(
            panic_message(|| {
                to_json_pretty_checked("fig", &(1u64, vec![0.5, f64::INFINITY]));
            }),
            "fig: non-finite number inf at $[1][1] — \
             the vendored serializer would silently emit null"
        );
    }
}
