//! Host-time attribution of `GpuSim::run` from outside the simulator.
//!
//! [`run_probed`] wraps the workload's `KernelSource`, and every
//! `WaveProgram` of every kernel it yields, before handing them to
//! `GpuSim::run`. The simulator is single-threaded and asks exactly one
//! wave for its next op at a time, so the host time between one op's
//! return and the next call into any wave belongs to the op just
//! returned:
//!
//! * after a `Read`/`Write`: coalescing plus every
//!   `MemorySystem::access` for that op (`gpu.mem`);
//! * after `Compute`, `Scratch`, end of wave or a kernel launch: the
//!   event queue and issue ports (`gpu.sched`);
//! * inside `next_kernel` and `next`: workload generation
//!   (`workloads`);
//! * from `next_kernel() == None` to `run`'s return: end-of-run report
//!   assembly (`gpu.finish`).
//!
//! The same wrappers record the coalesced line stream for the layer
//! replays, or inject a fixed delay after each memory op for the
//! gate's self-test.

use gvc_gpu::{coalesce, GpuSim, Kernel, KernelSource, RunReport, WaveOp, WaveProgram};
use gvc_mem::{Asid, OsLite, VAddr};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// What the wrappers do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Attribute host time to layers.
    Time,
    /// Record the coalesced line stream (up to [`STREAM_CAP`] lines).
    Record,
    /// Spin this long after every `Read`/`Write` op.
    Delay(Duration),
}

/// Lines recorded per cell at most, bounding replay memory and time.
pub const STREAM_CAP: usize = 1 << 20;

/// One coalesced line request, in issue order.
#[derive(Debug, Clone, Copy)]
pub struct LineRec {
    /// Index of the issuing wave within its kernel (`GpuSim` places
    /// wave `i` on CU `i % n_cus`).
    pub wave: u32,
    pub asid: Asid,
    pub line: VAddr,
    pub write: bool,
}

/// Host time of one probed `GpuSim::run`, split by layer.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// The whole `run` call.
    pub run_ns: u64,
    /// From `run`'s start to its first `next_kernel` (THP promotion).
    pub start_ns: u64,
    pub kernel_ns: u64,
    pub gen_ns: u64,
    pub gen_calls: u64,
    pub mem_ns: u64,
    pub mem_ops: u64,
    pub sched_ns: u64,
    pub sched_ops: u64,
    pub finish_ns: u64,
    /// Per kernel name: `(name, gaps, gap ns)`.
    pub kernels: Vec<(String, u64, u64)>,
    /// Kernel spans `(name, start ns, end ns)` from `run`'s start.
    pub spans: Vec<(String, u64, u64)>,
    pub stream: Vec<LineRec>,
}

/// Kernel spans kept per cell at most.
const SPAN_CAP: usize = 4096;

struct Probe {
    mode: Mode,
    origin: Instant,
    last_out: Instant,
    last_mem: bool,
    started: bool,
    open_span: Option<(usize, Instant)>,
    done_at: Option<Instant>,
    profile: Profile,
}

impl Probe {
    fn new(mode: Mode) -> Self {
        let now = Instant::now();
        Probe {
            mode,
            origin: now,
            last_out: now,
            last_mem: false,
            started: false,
            open_span: None,
            done_at: None,
            profile: Profile::default(),
        }
    }

    /// Charges the gap since the last op returned to that op's layer
    /// and to kernel `slot`.
    fn charge(&mut self, now: Instant, slot: usize) {
        let gap = nanos(now - self.last_out);
        let p = &mut self.profile;
        if self.last_mem {
            p.mem_ns += gap;
            p.mem_ops += 1;
        } else {
            p.sched_ns += gap;
            p.sched_ops += 1;
        }
        if let Some(k) = p.kernels.get_mut(slot) {
            k.1 += 1;
            k.2 += gap;
        }
    }

    fn slot(&mut self, name: &str) -> usize {
        let ks = &mut self.profile.kernels;
        ks.iter().position(|k| k.0 == name).unwrap_or_else(|| {
            ks.push((name.to_string(), 0, 0));
            ks.len() - 1
        })
    }

    fn close_span(&mut self, now: Instant) {
        if let Some((slot, start)) = self.open_span.take() {
            if self.profile.spans.len() < SPAN_CAP {
                let name = self.profile.kernels[slot].0.clone();
                let rel = |t: Instant| nanos(t - self.origin);
                self.profile.spans.push((name, rel(start), rel(now)));
            }
        }
    }
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

fn with_probe<R>(f: impl FnOnce(&mut Probe) -> R) -> R {
    PROBE.with(|cell| {
        f(cell
            .borrow_mut()
            .as_mut()
            .expect("wrappers run inside run_probed"))
    })
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Busy-waits for `d` (a sleep would hand the core away and the
/// scheduler's wake-up latency would swamp sub-microsecond delays).
pub fn spin(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

struct ProbedSource<'a> {
    inner: &'a mut dyn KernelSource,
}

impl KernelSource for ProbedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        with_probe(|p| {
            let t_in = Instant::now();
            let kernel = self.inner.next_kernel();
            let t_out = Instant::now();
            if p.mode == Mode::Time {
                if p.started {
                    if let Some((slot, _)) = p.open_span {
                        p.charge(t_in, slot);
                    }
                } else {
                    p.started = true;
                    p.profile.start_ns = nanos(t_in - p.origin);
                }
                p.close_span(t_in);
                p.profile.kernel_ns += nanos(t_out - t_in);
            }
            let Some(mut kernel) = kernel else {
                p.done_at = Some(t_out);
                return None;
            };
            let slot = p.slot(&kernel.name);
            let asid = kernel.asid;
            kernel.waves = std::mem::take(&mut kernel.waves)
                .into_iter()
                .enumerate()
                .map(|(i, inner)| {
                    Box::new(ProbedWave {
                        inner,
                        wave: i as u32,
                        asid,
                        slot,
                    }) as WaveProgram
                })
                .collect();
            let now = Instant::now();
            p.open_span = Some((slot, now));
            p.last_out = now;
            p.last_mem = false;
            Some(kernel)
        })
    }
}

struct ProbedWave {
    inner: WaveProgram,
    wave: u32,
    asid: Asid,
    slot: usize,
}

fn is_mem(op: &Option<WaveOp>) -> bool {
    matches!(op, Some(WaveOp::Read(_) | WaveOp::Write(_)))
}

impl Iterator for ProbedWave {
    type Item = WaveOp;

    fn next(&mut self) -> Option<WaveOp> {
        // The wave program never touches the probe, so holding it
        // across `inner.next()` is safe and costs one lookup per op.
        with_probe(|p| match p.mode {
            Mode::Delay(d) => {
                let op = self.inner.next();
                if is_mem(&op) {
                    spin(d);
                }
                op
            }
            Mode::Record => {
                let op = self.inner.next();
                if let Some(WaveOp::Read(lanes) | WaveOp::Write(lanes)) = &op {
                    let write = matches!(op, Some(WaveOp::Write(_)));
                    let room = STREAM_CAP.saturating_sub(p.profile.stream.len());
                    let recs = coalesce(lanes).into_iter().take(room).map(|line| LineRec {
                        wave: self.wave,
                        asid: self.asid,
                        line,
                        write,
                    });
                    p.profile.stream.extend(recs);
                }
                op
            }
            Mode::Time => {
                let t_in = Instant::now();
                let op = self.inner.next();
                let t_out = Instant::now();
                p.charge(t_in, self.slot);
                p.profile.gen_ns += nanos(t_out - t_in);
                p.profile.gen_calls += 1;
                p.last_mem = is_mem(&op);
                p.last_out = t_out;
                op
            }
        })
    }
}

/// Runs `sim` over `source` with the wrappers in `mode`.
pub fn run_probed(
    sim: GpuSim,
    source: &mut dyn KernelSource,
    os: &mut OsLite,
    mode: Mode,
) -> (RunReport, Profile) {
    PROBE.with(|cell| *cell.borrow_mut() = Some(Probe::new(mode)));
    let t0 = Instant::now();
    let report = sim.run(&mut ProbedSource { inner: source }, os);
    let end = Instant::now();
    let probe = PROBE
        .with(|cell| cell.borrow_mut().take())
        .expect("installed above");
    let mut profile = probe.profile;
    profile.run_ns = nanos(end - t0);
    profile.finish_ns = probe.done_at.map_or(0, |t| nanos(end - t));
    (report, profile)
}
