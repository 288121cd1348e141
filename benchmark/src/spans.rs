//! Spans of the traced run, kept in memory and written as one JSON
//! file when the run ends.

use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Span {
    id: usize,
    name: String,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

pub struct Spans {
    origin: Instant,
    items: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            items: Vec::new(),
        }
    }

    /// Microseconds from the recorder's start to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Adds a span given in microseconds from the recorder's start.
    pub fn push_us(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_us: f64,
        dur_us: f64,
    ) -> usize {
        let id = self.items.len();
        self.items.push(Span {
            id,
            name: name.to_string(),
            parent,
            start_us,
            dur_us,
        });
        id
    }

    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.us(start), self.us(end));
        self.push_us(name, parent, s, e - s)
    }

    /// Writes `{workload, seed, spans, counters}` and returns the path.
    pub fn write(&self, workload: &str, seed: u64, counters: Value) -> PathBuf {
        let path = crate::host::out_dir("spans").join(format!("{workload}-seed{seed}.json"));
        let doc = Value::Map(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            ("spans".into(), self.items.to_value()),
            ("counters".into(), counters),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("in-memory JSON serialization");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}
