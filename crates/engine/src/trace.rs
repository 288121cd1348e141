//! Cycle-attributed structured tracing: a bounded ring of typed span
//! events plus per-cause interval metrics, designed to be zero-cost
//! when disabled.
//!
//! The model mirrors how the simulator computes time: each memory
//! request is resolved analytically inside a single `access()` call,
//! visiting pipeline stages in order (coalescer, TLB, caches, NoC,
//! IOMMU, DRAM). The sink therefore tracks exactly one *active*
//! request with a moving cycle cursor: [`TraceSink::begin_request`]
//! plants the cursor at issue time, every [`TraceSink::stage`] emits a
//! span from the cursor to the stage's completion cycle and advances
//! the cursor, and [`TraceSink::end_request`] closes the request and
//! returns a [`RequestAttribution`] whose telescoping-sum property —
//! stage cycles summing exactly to end-to-end latency — is what
//! `gvc::check` asserts as a conservation law in paranoid mode.
//!
//! Enabling a sink must not perturb simulation: the sink only observes
//! cycles already computed, never feeds anything back, and lives
//! outside every config / memo key.

use crate::stats::IntervalSampler;
use crate::time::{Cycle, Duration};
use serde::Value;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Default sampling interval for per-cause metrics: 700 cycles = 1 µs
/// at the paper's 700 MHz GPU clock (matches the IOMMU's sampler).
pub const TRACE_SAMPLE_INTERVAL: u64 = 700;

/// Minimum ring capacity. Large enough that the ring always holds at
/// least one *completed* request block ahead of the in-flight one, so
/// eviction can drop whole begin/end-balanced blocks.
pub const TRACE_MIN_CAPACITY: usize = 4096;

/// What a traced span's cycles were spent on — the hardware stage that
/// owned the request for that slice of its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCause {
    /// Whole-request envelope span (one per memory instruction line).
    Request,
    /// Wave issue and coalescer admission ahead of the memory system.
    Coalesce,
    /// Per-CU TLB lookup latency.
    TlbLookup,
    /// L1 (virtual or physical) tag lookup.
    L1Lookup,
    /// L2 bank port queue plus tag lookup.
    L2Lookup,
    /// Synonym-filter membership check on an FBT eviction.
    FilterCheck,
    /// Queueing for the IOMMU-TLB's single lookup port.
    IommuQueue,
    /// IOMMU-TLB lookup service latency.
    IommuService,
    /// Page-table walk (walker queue + walk itself).
    Walk,
    /// Forward Back-Translation second-level / BT probe latency.
    FbtProbe,
    /// DRAM line fetch behind the directory.
    Dram,
    /// On-chip network hop(s).
    Noc,
    /// Stalled on an MSHR merge with an earlier outstanding miss.
    MshrWait,
}

impl TraceCause {
    /// Every cause, in display order.
    pub const ALL: [TraceCause; 13] = [
        TraceCause::Request,
        TraceCause::Coalesce,
        TraceCause::TlbLookup,
        TraceCause::L1Lookup,
        TraceCause::L2Lookup,
        TraceCause::FilterCheck,
        TraceCause::IommuQueue,
        TraceCause::IommuService,
        TraceCause::Walk,
        TraceCause::FbtProbe,
        TraceCause::Dram,
        TraceCause::Noc,
        TraceCause::MshrWait,
    ];

    /// Stable display name (also the Perfetto span name).
    pub fn name(self) -> &'static str {
        match self {
            TraceCause::Request => "request",
            TraceCause::Coalesce => "coalesce",
            TraceCause::TlbLookup => "tlb_lookup",
            TraceCause::L1Lookup => "l1_lookup",
            TraceCause::L2Lookup => "l2_lookup",
            TraceCause::FilterCheck => "filter_check",
            TraceCause::IommuQueue => "iommu_queue",
            TraceCause::IommuService => "iommu_service",
            TraceCause::Walk => "walk",
            TraceCause::FbtProbe => "fbt_probe",
            TraceCause::Dram => "dram",
            TraceCause::Noc => "noc",
            TraceCause::MshrWait => "mshr_wait",
        }
    }

    fn index(self) -> usize {
        TraceCause::ALL.iter().position(|c| *c == self).unwrap()
    }
}

/// Whether a [`TraceEvent`] opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Span start ("B" in Chrome trace-event terms).
    Begin,
    /// Span end ("E").
    End,
}

/// One ring-buffer entry: a span boundary with full attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Open or close.
    pub kind: TraceEventKind,
    /// The stage this span is attributed to.
    pub cause: TraceCause,
    /// Monotonically increasing per-sink request id.
    pub req: u64,
    /// Component id: the compute unit that issued the request.
    pub cu: u32,
    /// Event timestamp.
    pub cycle: Cycle,
}

/// Per-request latency attribution, returned by
/// [`TraceSink::end_request`].
///
/// The conservation law checked in paranoid mode: `stage_cycles ==
/// end - start` (spans are contiguous and telescoping by
/// construction, so this holds iff no stage ever moved the cursor
/// backwards — `monotone`), and for non-posted requests `end ==
/// done_at` (the trace explains *all* of the observed latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Request id.
    pub req: u64,
    /// Issuing compute unit.
    pub cu: u32,
    /// Cycle the request began (issue time).
    pub start: Cycle,
    /// Final cursor position: the end of the last attributed stage.
    pub end: Cycle,
    /// Completion cycle reported to the caller of `access()`.
    pub done_at: Cycle,
    /// Sum of all stage span durations, accumulated span by span.
    pub stage_cycles: u64,
    /// Number of stage spans emitted.
    pub stages: u32,
    /// True iff every stage ended at or after the cursor it started
    /// from (no negative spans).
    pub monotone: bool,
}

#[derive(Debug)]
struct ActiveRequest {
    req: u64,
    cu: u32,
    start: Cycle,
    cursor: Cycle,
    stage_cycles: u64,
    stages: u32,
    monotone: bool,
}

/// Bounded ring buffer of [`TraceEvent`]s plus per-cause
/// [`IntervalSampler`] metrics.
///
/// When full, the ring evicts whole request *blocks* (a request's
/// events are contiguous because exactly one request is active at a
/// time), so the surviving events always form balanced begin/end
/// pairs; `dropped` counts evicted events.
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    next_req: u64,
    requests: u64,
    active: Option<ActiveRequest>,
    /// One sampler per [`TraceCause::ALL`] entry; records a completion
    /// event at each span's end cycle.
    samplers: Vec<IntervalSampler>,
    /// Total attributed cycles per cause, same indexing.
    cause_cycles: Vec<u64>,
}

impl TraceSink {
    /// Creates a sink bounded to `capacity` events (clamped up to
    /// [`TRACE_MIN_CAPACITY`]), sampling metrics at
    /// [`TRACE_SAMPLE_INTERVAL`].
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(TRACE_MIN_CAPACITY);
        let n = TraceCause::ALL.len();
        TraceSink {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            next_req: 0,
            requests: 0,
            active: None,
            samplers: vec![IntervalSampler::new(Duration::new(TRACE_SAMPLE_INTERVAL)); n],
            cause_cycles: vec![0; n],
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.evict_block();
        }
        self.events.push_back(ev);
    }

    /// Drops the oldest complete request block (everything up to and
    /// including the first `End`/`Request` event).
    fn evict_block(&mut self) {
        while let Some(ev) = self.events.pop_front() {
            self.dropped += 1;
            if ev.kind == TraceEventKind::End && ev.cause == TraceCause::Request {
                break;
            }
        }
    }

    /// Opens a new request issued by `cu` at cycle `at` and returns its
    /// id. Panics if a request is already active: requests are resolved
    /// one at a time, so nesting means an emission-point bug.
    pub fn begin_request(&mut self, cu: u32, at: Cycle) -> u64 {
        assert!(
            self.active.is_none(),
            "trace: begin_request while request {:?} still active",
            self.active.as_ref().map(|a| a.req)
        );
        let req = self.next_req;
        self.next_req += 1;
        self.active = Some(ActiveRequest {
            req,
            cu,
            start: at,
            cursor: at,
            stage_cycles: 0,
            stages: 0,
            monotone: true,
        });
        self.push(TraceEvent {
            kind: TraceEventKind::Begin,
            cause: TraceCause::Request,
            req,
            cu,
            cycle: at,
        });
        req
    }

    /// True if a request is currently open.
    pub fn has_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attributes the cycles from the cursor up to `end` to `cause`,
    /// emitting one span and advancing the cursor to `end`.
    ///
    /// A no-op when no request is active: some components (e.g. the
    /// synonym filters) are also exercised outside request context, by
    /// coherence traffic.
    pub fn stage(&mut self, cause: TraceCause, end: Cycle) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let begin = active.cursor;
        if end.raw() >= begin.raw() {
            active.stage_cycles += end.raw() - begin.raw();
        } else {
            active.monotone = false;
        }
        active.cursor = end;
        active.stages += 1;
        let (req, cu) = (active.req, active.cu);
        let idx = cause.index();
        self.samplers[idx].record(end);
        self.cause_cycles[idx] += end.raw().saturating_sub(begin.raw());
        self.push(TraceEvent {
            kind: TraceEventKind::Begin,
            cause,
            req,
            cu,
            cycle: begin,
        });
        self.push(TraceEvent {
            kind: TraceEventKind::End,
            cause,
            req,
            cu,
            cycle: end,
        });
    }

    /// Closes the active request, recording `done_at` as the completion
    /// cycle the simulator reported, and returns its attribution.
    ///
    /// # Panics
    ///
    /// Panics if no request is active.
    pub fn end_request(&mut self, done_at: Cycle) -> RequestAttribution {
        let active = self
            .active
            .take()
            .expect("trace: end_request with no active request");
        // The envelope closes at the cursor (the end of the last
        // attributed stage) so per-request tracks nest perfectly; for
        // posted writes `done_at` (the ack) may differ from it.
        let end = active.cursor;
        self.requests += 1;
        let idx = TraceCause::Request.index();
        self.samplers[idx].record(end);
        self.cause_cycles[idx] += end.raw().saturating_sub(active.start.raw());
        self.push(TraceEvent {
            kind: TraceEventKind::End,
            cause: TraceCause::Request,
            req: active.req,
            cu: active.cu,
            cycle: end,
        });
        RequestAttribution {
            req: active.req,
            cu: active.cu,
            start: active.start,
            end,
            done_at,
            stage_cycles: active.stage_cycles,
            stages: active.stages,
            monotone: active.monotone,
        }
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of completed requests.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total cycles attributed to `cause` across all requests.
    pub fn cause_cycles(&self, cause: TraceCause) -> u64 {
        self.cause_cycles[cause.index()]
    }

    /// Builds a Chrome/Perfetto trace-event JSON document
    /// (`{"traceEvents": [...]}`) from the buffered events.
    ///
    /// Mapping: `pid` = compute unit (the component id), `tid` =
    /// request id, `ts` = cycle, `name` = cause. Because each request's
    /// spans are contiguous and telescoping, every (pid, tid) track is
    /// perfectly nested and balanced.
    pub fn perfetto(&self) -> Value {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|ev| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(ev.cause.name().to_string())),
                    ("cat".to_string(), Value::Str("gvc".to_string())),
                    (
                        "ph".to_string(),
                        Value::Str(
                            match ev.kind {
                                TraceEventKind::Begin => "B",
                                TraceEventKind::End => "E",
                            }
                            .to_string(),
                        ),
                    ),
                    ("ts".to_string(), Value::UInt(ev.cycle.raw())),
                    ("pid".to_string(), Value::UInt(ev.cu as u64)),
                    ("tid".to_string(), Value::UInt(ev.req)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
            (
                "otherData".to_string(),
                Value::Map(vec![
                    ("clock".to_string(), Value::Str("gpu-cycle".to_string())),
                    ("dropped_events".to_string(), Value::UInt(self.dropped)),
                    ("requests".to_string(), Value::UInt(self.requests)),
                ]),
            ),
        ])
    }

    /// Builds the per-interval metrics JSON document: for each cause,
    /// span counts, attributed cycles, and the [`IntervalSampler`]
    /// summary over `[0, end)` (plus any trailing intervals holding
    /// events).
    pub fn metrics(&self, end: Cycle) -> Value {
        let causes: Vec<Value> = TraceCause::ALL
            .iter()
            .map(|&cause| {
                let idx = cause.index();
                let s = self.samplers[idx].finish(end);
                Value::Map(vec![
                    ("cause".to_string(), Value::Str(cause.name().to_string())),
                    ("spans".to_string(), Value::UInt(self.samplers[idx].total())),
                    ("cycles".to_string(), Value::UInt(self.cause_cycles[idx])),
                    ("intervals".to_string(), Value::UInt(s.intervals())),
                    (
                        "mean_per_interval".to_string(),
                        Value::Float(s.mean_per_interval()),
                    ),
                    (
                        "std_dev_per_interval".to_string(),
                        Value::Float(s.std_dev_per_interval()),
                    ),
                    (
                        "max_per_interval".to_string(),
                        Value::Float(s.max_per_interval()),
                    ),
                    (
                        "mean_per_cycle".to_string(),
                        Value::Float(s.mean_per_cycle()),
                    ),
                    ("max_per_cycle".to_string(), Value::Float(s.max_per_cycle())),
                ])
            })
            .collect();
        Value::Map(vec![
            (
                "interval_cycles".to_string(),
                Value::UInt(TRACE_SAMPLE_INTERVAL),
            ),
            ("end_cycle".to_string(), Value::UInt(end.raw())),
            ("requests".to_string(), Value::UInt(self.requests)),
            ("dropped_events".to_string(), Value::UInt(self.dropped)),
            ("causes".to_string(), Value::Seq(causes)),
        ])
    }
}

/// Cloneable handle to a shared [`TraceSink`], attached to the
/// simulator components *after* construction so trace enablement never
/// enters a config, memo key, or report.
///
/// The sink is single-threaded by design — a traced run happens
/// entirely on the thread that built its simulator (the sweep runner's
/// workers each construct their own sim in-thread), so the handle is
/// an `Rc<RefCell<_>>`: emitting a span is a refcount-free borrow
/// instead of an atomic lock on every pipeline stage of every request.
/// The type is deliberately `!Send`, which turns any future attempt to
/// share one sink across threads into a compile error rather than a
/// contended lock.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    sink: Rc<RefCell<TraceSink>>,
}

/// Two handles are equal when they share one sink.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.sink, &other.sink)
    }
}

impl TraceHandle {
    /// Creates a handle over a fresh sink bounded to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceHandle {
            sink: Rc::new(RefCell::new(TraceSink::new(capacity))),
        }
    }

    /// See [`TraceSink::begin_request`].
    pub fn begin_request(&self, cu: u32, at: Cycle) -> u64 {
        self.sink.borrow_mut().begin_request(cu, at)
    }

    /// See [`TraceSink::has_active`].
    pub fn has_active(&self) -> bool {
        self.sink.borrow().has_active()
    }

    /// See [`TraceSink::stage`].
    pub fn stage(&self, cause: TraceCause, end: Cycle) {
        self.sink.borrow_mut().stage(cause, end);
    }

    /// See [`TraceSink::end_request`].
    pub fn end_request(&self, done_at: Cycle) -> RequestAttribution {
        self.sink.borrow_mut().end_request(done_at)
    }

    /// Runs `f` against the sink, e.g. for export.
    pub fn with_sink<R>(&self, f: impl FnOnce(&TraceSink) -> R) -> R {
        f(&self.sink.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telescoping_attribution_sums_to_latency() {
        let mut sink = TraceSink::new(0);
        sink.begin_request(3, Cycle::new(100));
        sink.stage(TraceCause::TlbLookup, Cycle::new(104));
        sink.stage(TraceCause::Noc, Cycle::new(120));
        sink.stage(TraceCause::Dram, Cycle::new(220));
        let attr = sink.end_request(Cycle::new(220));
        assert!(attr.monotone);
        assert_eq!(attr.stages, 3);
        assert_eq!(attr.stage_cycles, 120);
        assert_eq!(attr.end.raw() - attr.start.raw(), 120);
        assert_eq!(attr.end, attr.done_at);
        assert_eq!(sink.requests(), 1);
        assert_eq!(sink.cause_cycles(TraceCause::Dram), 100);
        // 1 request B/E pair + 3 stage pairs = 8 events.
        assert_eq!(sink.events().count(), 8);
    }

    #[test]
    fn negative_span_clears_monotone() {
        let mut sink = TraceSink::new(0);
        sink.begin_request(0, Cycle::new(50));
        sink.stage(TraceCause::L1Lookup, Cycle::new(40));
        let attr = sink.end_request(Cycle::new(40));
        assert!(!attr.monotone);
    }

    #[test]
    fn stage_without_active_request_is_noop() {
        let mut sink = TraceSink::new(0);
        sink.stage(TraceCause::FilterCheck, Cycle::new(10));
        assert_eq!(sink.events().count(), 0);
    }

    #[test]
    fn ring_evicts_whole_blocks_and_counts_drops() {
        let mut sink = TraceSink::new(0); // clamped to TRACE_MIN_CAPACITY
        let mut t = 0u64;
        // Each request emits 4 events (request pair + 1 stage pair), so
        // 2000 requests overflow the 4096-event ring.
        for i in 0..2000u64 {
            sink.begin_request((i % 4) as u32, Cycle::new(t));
            t += 3;
            sink.stage(TraceCause::L2Lookup, Cycle::new(t));
            sink.end_request(Cycle::new(t));
        }
        assert!(sink.dropped() > 0);
        assert_eq!(sink.dropped() % 4, 0, "evicts whole request blocks");
        // Survivors stay balanced: first event opens a request.
        let first = sink.events().next().unwrap();
        assert_eq!(first.kind, TraceEventKind::Begin);
        assert_eq!(first.cause, TraceCause::Request);
        let begins = sink
            .events()
            .filter(|e| e.kind == TraceEventKind::Begin)
            .count();
        let ends = sink
            .events()
            .filter(|e| e.kind == TraceEventKind::End)
            .count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn perfetto_export_shape() {
        let mut sink = TraceSink::new(0);
        sink.begin_request(1, Cycle::new(0));
        sink.stage(TraceCause::Coalesce, Cycle::new(2));
        sink.end_request(Cycle::new(2));
        let doc = sink.perfetto();
        let Value::Map(fields) = &doc else {
            panic!("perfetto doc must be a map")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let Value::Seq(events) = events else {
            panic!("traceEvents must be a list")
        };
        assert_eq!(events.len(), 4);
    }
}
