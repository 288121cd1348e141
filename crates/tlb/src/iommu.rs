//! The IOMMU translation front end.
//!
//! Per the paper's baseline (Figure 1): all CUs share one IOMMU holding
//! a shared TLB, a pool of 16 page-table walkers, and an 8 KB page-walk
//! cache. The shared TLB can begin **one lookup per cycle** (the
//! bandwidth knob of Figure 5); requests that arrive faster queue, and
//! that queuing delay is the serialization overhead the paper
//! identifies as the dominant cost of GPU address translation.
//!
//! [`Iommu::translate`] is the single entry point. It accepts an
//! optional *second-level lookup* closure, which `gvc` uses to consult
//! the forward-backward table between a shared-TLB miss and a page
//! walk ("VC With OPT", §4.1 of the paper).

use crate::pwc::{Pwc, PwcConfig, PwcStats};
use crate::tlb::{Tlb, TlbConfig, TlbKey, TlbStats};
use crate::walker::WalkerPool;
use gvc_engine::stats::{IntervalSampler, IntervalSummary, RateAccum};
use gvc_engine::time::{Cycle, Duration};
use gvc_engine::{Counter, SimRng, ThroughputPort, TraceCause, TraceHandle};
use gvc_mem::{Asid, OsLite, Perms, Ppn, Vpn, WalkOutcome};
use serde::{Deserialize, Serialize};

/// IOMMU configuration (Table 1 / Table 2 presets below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IommuConfig {
    /// Shared TLB organization.
    pub tlb: TlbConfig,
    /// Lookups the shared TLB can begin per cycle; `None` = unlimited
    /// (the IDEAL MMU and the Figure 3 measurement).
    pub port_width: Option<u32>,
    /// Shared TLB lookup latency in cycles.
    pub tlb_latency: u64,
    /// Concurrent page-table walkers.
    pub walkers: usize,
    /// Page-walk cache configuration.
    pub pwc: PwcConfig,
    /// Cost of a PWC hit during a walk.
    pub pwc_hit_cycles: u64,
    /// Cost of a page-table memory access on a PWC miss.
    pub memory_access_cycles: u64,
    /// Latency of the optional second-level lookup (the FBT).
    pub second_level_latency: u64,
    /// Sampling interval for the access-rate statistic (1 µs at
    /// 700 MHz by default).
    pub sample_interval: u64,
}

impl IommuConfig {
    /// The paper's "Small IOMMU TLB" baseline: 512 entries, 1
    /// access/cycle.
    pub fn small() -> Self {
        IommuConfig {
            tlb: TlbConfig::shared(512),
            port_width: Some(1),
            tlb_latency: 4,
            walkers: 16,
            pwc: PwcConfig::default(),
            pwc_hit_cycles: 2,
            memory_access_cycles: 60,
            second_level_latency: 5,
            sample_interval: 700,
        }
    }

    /// The paper's "Large IOMMU TLB": 16K entries, 1 access/cycle.
    pub fn large() -> Self {
        IommuConfig {
            tlb: TlbConfig::shared(16 * 1024),
            ..IommuConfig::small()
        }
    }

    /// The IDEAL MMU's translation back end: infinite TLB, unlimited
    /// bandwidth, minimal latency.
    pub fn ideal() -> Self {
        IommuConfig {
            tlb: TlbConfig::infinite(),
            port_width: None,
            tlb_latency: 0,
            ..IommuConfig::small()
        }
    }

    /// `small()` with a different port width (the Figure 5 sweep).
    pub fn with_port_width(mut self, width: u32) -> Self {
        self.port_width = Some(width);
        self
    }
}

/// How a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IommuOutcome {
    /// Hit in the shared TLB.
    TlbHit {
        /// Physical page.
        ppn: Ppn,
        /// Page permissions.
        perms: Perms,
    },
    /// Missed the shared TLB, hit the second-level structure (FBT).
    SecondLevelHit {
        /// Physical page.
        ppn: Ppn,
        /// Page permissions.
        perms: Perms,
    },
    /// Resolved by a page-table walk.
    Walked {
        /// Physical page.
        ppn: Ppn,
        /// Page permissions.
        perms: Perms,
    },
    /// The page is not mapped: a GPU page fault (handled by the CPU).
    Fault,
}

impl IommuOutcome {
    /// The translation, unless the walk faulted.
    pub fn translation(&self) -> Option<(Ppn, Perms)> {
        match *self {
            IommuOutcome::TlbHit { ppn, perms }
            | IommuOutcome::SecondLevelHit { ppn, perms }
            | IommuOutcome::Walked { ppn, perms } => Some((ppn, perms)),
            IommuOutcome::Fault => None,
        }
    }
}

/// A completed translation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IommuResponse {
    /// When the shared TLB began servicing the request (the difference
    /// from arrival is the serialization delay).
    pub service_at: Cycle,
    /// When the translation completed.
    pub done_at: Cycle,
    /// How it was satisfied.
    pub outcome: IommuOutcome,
    /// Whether the translation is backed by a reach-granularity
    /// mapping — a 2 MB large-page leaf, or a subregion the fill path
    /// proved physically contiguous. Per-CU TLBs with reach sub-arrays
    /// use this to cache the whole block from one response; always
    /// `false` on faults and second-level (FBT) hits.
    pub large: bool,
}

/// IOMMU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IommuStats {
    /// Requests received.
    pub requests: Counter,
    /// Shared TLB hits.
    pub tlb_hits: Counter,
    /// Second-level (FBT) hits.
    pub second_level_hits: Counter,
    /// Page walks performed.
    pub walks: Counter,
    /// Page faults.
    pub faults: Counter,
    /// Total serialization delay at the port (cycles).
    pub serialization_cycles: Counter,
    /// Faults injected by [`Iommu::set_inject`] (also counted in
    /// `faults` — an injected fault is a real fault to every consumer).
    pub injected_faults: Counter,
    /// Walk-latency spikes injected by [`Iommu::set_inject`].
    pub injected_spikes: Counter,
}

/// Deterministic fault injection at the walker: spurious page faults
/// and walk-latency spikes, rolled per *walk* from a dedicated seeded
/// generator (the `gvc::inject` subsystem's walker-level half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WalkInjectConfig {
    /// Seed for the walker's private generator.
    pub seed: u64,
    /// Spurious-fault rate, parts-per-million per walk. An injected
    /// fault turns a successful walk into [`IommuOutcome::Fault`]
    /// without filling the TLB — the transient fault a real IOMMU
    /// reports when a walk races a PTE update.
    pub fault_ppm: u32,
    /// Latency-spike rate, parts-per-million per walk.
    pub spike_ppm: u32,
    /// Extra cycles a spiked walk takes (host memory contention,
    /// ATS/PRI round trips).
    pub spike_cycles: u64,
}

/// Armed walker injection: the config and its generator mid-stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WalkInject(WalkInjectConfig, SimRng);

const PPM: u64 = 1_000_000;

/// The shared IOMMU translation front end (see [module docs](self)).
///
/// The IOMMU is its own checkpoint, injection generator mid-stream
/// included; the trace handle is observation only and is not written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Iommu {
    config: IommuConfig,
    tlb: Tlb,
    port: ThroughputPort,
    walkers: WalkerPool,
    pwc: Pwc,
    sampler: IntervalSampler,
    stats: IommuStats,
    inject: Option<WalkInject>,
    #[serde(skip)]
    trace: Option<TraceHandle>,
}

/// The optional second-level lookup hook (e.g. the FBT's forward
/// table). Returns the translation if the structure holds one.
pub type SecondLevel<'a> = &'a mut dyn FnMut(Asid, Vpn) -> Option<(Ppn, Perms)>;

impl Iommu {
    /// Builds an IOMMU.
    pub fn new(config: IommuConfig) -> Self {
        let port = match config.port_width {
            Some(w) => ThroughputPort::per_cycle(w),
            None => ThroughputPort::unlimited(),
        };
        Iommu {
            tlb: Tlb::new(config.tlb),
            port,
            walkers: WalkerPool::new(config.walkers),
            pwc: Pwc::new(config.pwc),
            sampler: IntervalSampler::new(Duration::new(config.sample_interval)),
            config,
            stats: IommuStats::default(),
            inject: None,
            trace: None,
        }
    }

    /// Attaches a shared trace sink; the IOMMU then attributes its
    /// queue/service/probe/walk cycles to the active request. Purely
    /// observational — timing and stats are unaffected.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Emits a stage span ending at `end` when tracing is on (no-op
    /// when no request is active, e.g. standalone IOMMU tests).
    fn tr(&self, cause: TraceCause, end: Cycle) {
        if let Some(t) = &self.trace {
            t.stage(cause, end);
        }
    }

    /// Arms walker-level fault injection. Decisions are drawn from a
    /// generator seeded by `cfg.seed` in a fixed per-walk order (spike
    /// first, then fault), so the injected schedule is a pure function
    /// of the seed and the walk stream — byte-identical on replay.
    pub fn set_inject(&mut self, cfg: WalkInjectConfig) {
        self.inject = Some(WalkInject(cfg, SimRng::seeded(cfg.seed)));
    }

    /// The configuration.
    pub fn config(&self) -> IommuConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Shared TLB statistics (the base 4 KB array).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Shared TLB reach sub-array statistics, when one is configured.
    pub fn tlb_reach_stats(&self) -> Option<TlbStats> {
        self.tlb.reach_stats()
    }

    /// PWC statistics.
    pub fn pwc_stats(&self) -> PwcStats {
        self.pwc.stats()
    }

    /// Summarizes the access-rate sampling (Figures 3 and 8) over the
    /// simulation that ended at `end`.
    pub fn access_rate(&self, end: Cycle) -> IntervalSummary {
        self.sampler.finish(end)
    }

    /// Spills completed access-rate intervals before `up_to` into `acc`
    /// so long-horizon runs keep bounded resident sampler state (see
    /// [`IntervalSampler::spill_into`]). Returns intervals drained.
    pub fn spill_access_rate(&mut self, up_to: Cycle, acc: &mut RateAccum) -> u64 {
        self.sampler.spill_into(up_to, acc)
    }

    /// Summarizes the access rate over a spilled long-horizon run:
    /// `acc` carries the spilled history, the resident window is folded
    /// in (see [`IntervalSampler::finish_into`]).
    pub fn access_rate_with(&self, end: Cycle, acc: &RateAccum) -> IntervalSummary {
        self.sampler.finish_into(end, acc)
    }

    /// Number of resident (unspilled) sampler intervals — the quantity
    /// the bounded-memory soak contract is about.
    pub fn resident_rate_intervals(&self) -> usize {
        self.sampler.counts().len()
    }

    /// The sampler's interval length, for building a matching
    /// [`RateAccum`].
    pub fn sample_interval(&self) -> Duration {
        self.sampler.interval()
    }

    /// Translates `(asid, vpn)` for a request arriving at `arrival`.
    ///
    /// `second_level`, if provided, is consulted after a shared-TLB
    /// miss and before a page walk.
    pub fn translate(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        arrival: Cycle,
        os: &OsLite,
        second_level: Option<SecondLevel<'_>>,
    ) -> IommuResponse {
        self.stats.requests.inc();
        self.sampler.record(arrival);
        let service_at = self.port.reserve(arrival);
        self.stats
            .serialization_cycles
            .add(service_at.raw() - arrival.raw());
        let key = TlbKey::new(asid, vpn);
        let lookup_done = service_at + Duration::new(self.config.tlb_latency);
        self.tr(TraceCause::IommuQueue, service_at);
        self.tr(TraceCause::IommuService, lookup_done);

        if let Some((entry, from_reach)) = self.tlb.lookup_tagged(key, service_at) {
            self.stats.tlb_hits.inc();
            return IommuResponse {
                service_at,
                done_at: lookup_done,
                outcome: IommuOutcome::TlbHit {
                    ppn: entry.ppn,
                    perms: entry.perms,
                },
                large: from_reach,
            };
        }

        let mut t = lookup_done;
        if let Some(hook) = second_level {
            t += Duration::new(self.config.second_level_latency);
            self.tr(TraceCause::FbtProbe, t);
            if let Some((ppn, perms)) = hook(asid, vpn) {
                self.stats.second_level_hits.inc();
                // The FBT tracks 4 KB lines, so its hits fill (and
                // report) base-page translations even under a large
                // mapping — conservative but always correct.
                self.tlb.insert(key, ppn, perms, t);
                return IommuResponse {
                    service_at,
                    done_at: t,
                    outcome: IommuOutcome::SecondLevelHit { ppn, perms },
                    large: false,
                };
            }
        }

        // Page walk on the real radix tables.
        self.stats.walks.inc();
        let (walker, start) = self.walkers.acquire(t);
        let (outcome, path) = os.walk_asid(asid, vpn).unwrap_or((
            WalkOutcome::Fault,
            gvc_mem::WalkPath {
                entries: Vec::new(),
            },
        ));
        // Charge the walk. The final entry of a *successful* walk is
        // the leaf PTE, which paging-structure caches never hold: a
        // 4 KB walk's leaf sits at level 3 (past `max_cached_level`
        // anyway), but a 2 MB walk's leaf sits at level 2, where the
        // PWC *would* cache it — so large-page walks must skip the PWC
        // for their last access and pay memory, or sibling-subpage
        // walks would be impossibly charged 3 PWC hits. Faulting walks
        // are charged as before: their last fetched entry is a
        // non-present interior slot, not a leaf translation.
        let mapped = matches!(outcome, WalkOutcome::Mapped { .. });
        let n_accesses = path.entries.len();
        let mut latency = 0u64;
        for (level, pte_addr) in path.entries.iter().enumerate() {
            let leaf = mapped && level + 1 == n_accesses;
            latency += if !leaf && self.pwc.access(*pte_addr, level) {
                self.config.pwc_hit_cycles
            } else {
                self.config.memory_access_cycles
            };
        }
        // Walker-level injection: a fixed two-draw sequence per walk
        // (spike, then fault) keeps the schedule replayable.
        let mut spurious_fault = false;
        if let Some(WalkInject(cfg, rng)) = &mut self.inject {
            if rng.below(PPM) < cfg.spike_ppm as u64 {
                latency += cfg.spike_cycles;
                self.stats.injected_spikes.inc();
            }
            spurious_fault = rng.below(PPM) < cfg.fault_ppm as u64;
        }
        let end = start + Duration::new(latency);
        self.walkers.release(walker, end);
        self.walkers.record_latency(latency);
        self.tr(TraceCause::Walk, end);

        match outcome {
            // An injected fault suppresses the TLB fill: the walk
            // "failed", so nothing may be cached from it. The next
            // access to the page simply walks again — the transient
            // fault-and-retry schedule the GPU fault path must absorb.
            WalkOutcome::Mapped { .. } if spurious_fault => {
                self.stats.faults.inc();
                self.stats.injected_faults.inc();
                IommuResponse {
                    service_at,
                    done_at: end,
                    outcome: IommuOutcome::Fault,
                    large: false,
                }
            }
            WalkOutcome::Mapped { ppn, perms, large } => {
                // Reach eligibility of this fill: a 2 MB leaf covers
                // any span dividing 512 pages; a 4 KB leaf can still
                // back a *coalesced* (sub-512) span if the whole
                // span-aligned block around it is contiguous in
                // physical memory with uniform permissions. The
                // contiguity probe is free in time: the span's PTEs
                // share the cache line the walker just fetched.
                let span_backed = match self.tlb.reach_span() {
                    Some(span) if span >= gvc_mem::PAGES_PER_LARGE => large,
                    Some(span) => large || os.span_contiguous_asid(asid, vpn, span),
                    None => large,
                };
                self.tlb.insert_sized(key, ppn, perms, end, span_backed);
                IommuResponse {
                    service_at,
                    done_at: end,
                    outcome: IommuOutcome::Walked { ppn, perms },
                    large: span_backed,
                }
            }
            WalkOutcome::Fault => {
                self.stats.faults.inc();
                IommuResponse {
                    service_at,
                    done_at: end,
                    outcome: IommuOutcome::Fault,
                    large: false,
                }
            }
        }
    }

    /// Applies a single-page shootdown to the shared TLB and flushes
    /// the PWC (its cached PTEs may be stale).
    pub fn shootdown_page(&mut self, asid: Asid, vpn: Vpn) {
        self.tlb.invalidate(TlbKey::new(asid, vpn));
        self.pwc.flush();
    }

    /// Applies an all-entry shootdown for one address space.
    pub fn shootdown_asid(&mut self, asid: Asid) {
        self.tlb.invalidate_asid(asid);
        self.pwc.flush();
    }

    /// Direct access to the shared TLB (for invariants/tests).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// This IOMMU as a checkpoint: a copy without the trace handle.
    ///
    /// # Panics
    ///
    /// Panics if a walker is acquired (see [`WalkerPool::snapshot`]).
    pub fn snapshot(&self) -> Iommu {
        Iommu {
            walkers: self.walkers.snapshot(),
            trace: None,
            ..self.clone()
        }
    }

    /// Restores `snap`. The IOMMU must have been built with the same
    /// configuration; afterwards it behaves bit-identically to the
    /// snapshotted one. The trace handle stays attached.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's configuration does not match.
    pub fn restore(&mut self, snap: &Iommu) {
        assert_eq!(self.config, snap.config, "IOMMU snapshot config mismatch");
        self.tlb.restore(&snap.tlb);
        self.port.clone_from(&snap.port);
        self.walkers.restore(&snap.walkers);
        self.pwc.restore(&snap.pwc);
        self.sampler.clone_from(&snap.sampler);
        self.stats = snap.stats;
        self.inject.clone_from(&snap.inject);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_mem::{OsLite, Perms as P, PAGE_BYTES};

    fn setup(pages: u64) -> (OsLite, gvc_mem::ProcessId, gvc_mem::VRange) {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, pages * PAGE_BYTES, P::READ_WRITE).unwrap();
        (os, pid, r)
    }

    #[test]
    fn first_access_walks_then_hits() {
        let (os, pid, r) = setup(4);
        let mut iommu = Iommu::new(IommuConfig::small());
        let vpn = r.start().vpn();
        let a = iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        assert!(matches!(a.outcome, IommuOutcome::Walked { .. }));
        let b = iommu.translate(pid.asid(), vpn, Cycle::new(1000), &os, None);
        assert!(matches!(b.outcome, IommuOutcome::TlbHit { .. }));
        assert_eq!(b.done_at, Cycle::new(1000 + 4));
        assert_eq!(iommu.stats().walks.get(), 1);
    }

    #[test]
    fn serialization_delay_accumulates() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::small());
        let vpn = r.start().vpn();
        // Warm the TLB.
        iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        // A burst of 10 same-cycle requests serializes at 1/cycle.
        let mut last = Cycle::ZERO;
        for _ in 0..10 {
            let resp = iommu.translate(pid.asid(), vpn, Cycle::new(500), &os, None);
            assert!(resp.service_at >= last);
            last = resp.service_at;
        }
        assert_eq!(last, Cycle::new(509));
        assert!(iommu.stats().serialization_cycles.get() >= 45);
    }

    #[test]
    fn unlimited_port_never_serializes() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::ideal());
        let vpn = r.start().vpn();
        iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        for _ in 0..10 {
            let resp = iommu.translate(pid.asid(), vpn, Cycle::new(500), &os, None);
            assert_eq!(resp.service_at, Cycle::new(500));
        }
        assert_eq!(iommu.stats().serialization_cycles.get(), 0);
    }

    #[test]
    fn second_level_hit_avoids_walk() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::small());
        let vpn = r.start().vpn();
        let (ppn, perms) = os
            .space(pid)
            .unwrap()
            .table()
            .translate(os.phys(), vpn)
            .unwrap();
        let mut hook = |_a: Asid, _v: Vpn| Some((ppn, perms));
        let resp = iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, Some(&mut hook));
        assert!(matches!(resp.outcome, IommuOutcome::SecondLevelHit { .. }));
        assert_eq!(iommu.stats().walks.get(), 0);
        assert_eq!(
            resp.done_at,
            Cycle::new(
                IommuConfig::small().tlb_latency + IommuConfig::small().second_level_latency
            )
        );
        // And the shared TLB was filled.
        let again = iommu.translate(pid.asid(), vpn, Cycle::new(100), &os, Some(&mut hook));
        assert!(matches!(again.outcome, IommuOutcome::TlbHit { .. }));
    }

    #[test]
    fn second_level_miss_falls_through_to_walk() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::small());
        let mut hook = |_a: Asid, _v: Vpn| None;
        let resp = iommu.translate(
            pid.asid(),
            r.start().vpn(),
            Cycle::new(0),
            &os,
            Some(&mut hook),
        );
        assert!(matches!(resp.outcome, IommuOutcome::Walked { .. }));
        assert_eq!(iommu.stats().second_level_hits.get(), 0);
    }

    #[test]
    fn unmapped_page_faults() {
        let (os, pid, _r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::small());
        let resp = iommu.translate(pid.asid(), Vpn::new(1), Cycle::new(0), &os, None);
        assert_eq!(resp.outcome, IommuOutcome::Fault);
        assert_eq!(resp.outcome.translation(), None);
        assert_eq!(iommu.stats().faults.get(), 1);
    }

    #[test]
    fn pwc_makes_neighbor_walks_cheaper() {
        let (os, pid, r) = setup(8);
        let mut iommu = Iommu::new(IommuConfig::small());
        let base = r.start().vpn().raw();
        let first = iommu.translate(pid.asid(), Vpn::new(base), Cycle::new(0), &os, None);
        let cold = first.done_at.raw();
        let second = iommu.translate(
            pid.asid(),
            Vpn::new(base + 1),
            Cycle::new(10_000),
            &os,
            None,
        );
        let warm = second.done_at.raw() - 10_000;
        assert!(
            warm < cold,
            "PWC must accelerate sibling walks: cold {cold}, warm {warm}"
        );
    }

    #[test]
    fn shootdown_removes_translation() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::small());
        let vpn = r.start().vpn();
        iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        iommu.shootdown_page(pid.asid(), vpn);
        let resp = iommu.translate(pid.asid(), vpn, Cycle::new(100), &os, None);
        assert!(matches!(resp.outcome, IommuOutcome::Walked { .. }));
    }

    #[test]
    fn injected_faults_suppress_tlb_fill_and_count() {
        let (os, pid, r) = setup(2);
        let mut iommu = Iommu::new(IommuConfig::small());
        iommu.set_inject(WalkInjectConfig {
            seed: 1,
            fault_ppm: 1_000_000, // every walk faults
            spike_ppm: 0,
            spike_cycles: 0,
        });
        let vpn = r.start().vpn();
        for i in 0..4 {
            let resp = iommu.translate(pid.asid(), vpn, Cycle::new(i * 1000), &os, None);
            assert_eq!(resp.outcome, IommuOutcome::Fault, "walk {i}");
        }
        let s = iommu.stats();
        assert_eq!(s.walks.get(), 4, "faulted walks never fill the TLB");
        assert_eq!(s.faults.get(), 4);
        assert_eq!(s.injected_faults.get(), 4);
        assert!(s.faults.get() <= s.walks.get(), "conservation law holds");
    }

    #[test]
    fn injected_spikes_slow_walks() {
        let (os, pid, r) = setup(1);
        let vpn = r.start().vpn();
        let mut plain = Iommu::new(IommuConfig::small());
        let base = plain.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        let mut spiky = Iommu::new(IommuConfig::small());
        spiky.set_inject(WalkInjectConfig {
            seed: 1,
            fault_ppm: 0,
            spike_ppm: 1_000_000, // every walk spikes
            spike_cycles: 777,
        });
        let slow = spiky.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        assert_eq!(slow.done_at, base.done_at + Duration::new(777));
        assert!(matches!(slow.outcome, IommuOutcome::Walked { .. }));
        assert_eq!(spiky.stats().injected_spikes.get(), 1);
    }

    #[test]
    fn walker_injection_is_deterministic_in_the_seed() {
        let (os, pid, r) = setup(8);
        let cfg = WalkInjectConfig {
            seed: 42,
            fault_ppm: 300_000,
            spike_ppm: 300_000,
            spike_cycles: 100,
        };
        let run = |seed| {
            let mut iommu = Iommu::new(IommuConfig::small());
            iommu.set_inject(WalkInjectConfig { seed, ..cfg });
            let mut trace = Vec::new();
            for (i, vpn) in r.pages().enumerate() {
                let resp = iommu.translate(pid.asid(), vpn, Cycle::new(i as u64 * 500), &os, None);
                trace.push((resp.done_at, resp.outcome));
            }
            trace
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "seed does not reach the walker");
    }

    #[test]
    fn large_page_walk_is_three_accesses_and_its_leaf_bypasses_the_pwc() {
        // The large-page correctness regression: a GPU access into an
        // `mmap_large` region must walk exactly 3 levels, return the
        // right subframe PAddr, and keep the level-2 *leaf* PTE out of
        // the page-walk cache (paging-structure caches hold interior
        // nodes only). Pre-fix, the walker charged the leaf as a
        // cacheable level-2 entry: 3 PWC lookups on the cold walk and
        // an impossible 3-PWC-hit (6-cycle) sibling walk.
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 1, P::READ_WRITE).unwrap();
        let base = r.start().vpn().raw();
        let vpn = gvc_mem::Vpn::new(base + 37);

        // The exact 3-access walk path and outcome, as the walker sees it.
        let (outcome, path) = os.walk_asid(pid.asid(), vpn).unwrap();
        assert_eq!(path.entries.len(), 3, "large walk stops at level 2");
        assert!(matches!(
            outcome,
            gvc_mem::WalkOutcome::Mapped { large: true, .. }
        ));

        let mut iommu = Iommu::new(IommuConfig::small());
        let cfg = IommuConfig::small();
        let resp = iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
        // Cold walk: TLB lookup + 3 memory accesses, nothing cached yet.
        assert_eq!(
            resp.done_at,
            Cycle::new(cfg.tlb_latency + 3 * cfg.memory_access_cycles)
        );
        // The returned PAddr is subframe 37 of the contiguous block.
        let (ppn, _) = resp.outcome.translation().expect("mapped");
        let (expect, _) = os.translate(pid, vpn.base()).unwrap();
        assert_eq!(ppn, expect.ppn(), "wrong subframe PPN for a 2 MB page");
        // Only the two interior levels touched the PWC.
        assert_eq!(
            iommu.pwc_stats().lookups.get(),
            2,
            "the large-page leaf must bypass the PWC"
        );
        // A sibling subpage's walk hits the PWC for levels 0-1 but pays
        // memory for the leaf: 2 + 2 + 60 cycles, not 2 + 2 + 2.
        let second = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base + 200),
            Cycle::new(10_000),
            &os,
            None,
        );
        assert_eq!(
            second.done_at.raw() - 10_000,
            cfg.tlb_latency + 2 * cfg.pwc_hit_cycles + cfg.memory_access_cycles,
            "sibling large-page walk must pay memory for its leaf"
        );
    }

    #[test]
    fn huge_reach_tlb_covers_the_block_from_one_walk() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 1, P::READ_WRITE).unwrap();
        let base = r.start().vpn().raw();
        let mut iommu = Iommu::new(IommuConfig {
            tlb: TlbConfig::shared(512).with_reach(64, gvc_mem::PAGES_PER_LARGE),
            ..IommuConfig::small()
        });
        let first = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base),
            Cycle::new(0),
            &os,
            None,
        );
        assert!(first.large, "a 2 MB walk fills the reach sub-array");
        // Every sibling subpage now hits the shared TLB's 2 MB entry.
        let sib = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base + 511),
            Cycle::new(1000),
            &os,
            None,
        );
        assert!(matches!(sib.outcome, IommuOutcome::TlbHit { .. }));
        assert!(sib.large);
        let (ppn, _) = sib.outcome.translation().unwrap();
        let (expect, _) = os
            .translate(pid, gvc_mem::Vpn::new(base + 511).base())
            .unwrap();
        assert_eq!(ppn, expect.ppn());
        assert_eq!(iommu.stats().walks.get(), 1, "one walk covered 512 pages");
        // Shooting down any subpage kills the whole 2 MB view.
        iommu.shootdown_page(pid.asid(), gvc_mem::Vpn::new(base + 3));
        let again = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base),
            Cycle::new(2000),
            &os,
            None,
        );
        assert!(matches!(again.outcome, IommuOutcome::Walked { .. }));
        assert_eq!(iommu.tlb_reach_stats().unwrap().invalidations.get(), 1);
    }

    #[test]
    fn coalesced_reach_tlb_requires_actual_contiguity() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        // `mmap` allocates each data frame *before* any page-table node
        // frames its mapping needs, so the region's first span is split
        // around the node allocations while later spans come out of the
        // bump allocator back to back.
        let r = os.mmap(pid, 64 * PAGE_BYTES, P::READ_WRITE).unwrap();
        let base = r.start().vpn().raw();
        assert!(os.span_contiguous_asid(pid.asid(), gvc_mem::Vpn::new(base + 8), 8));
        let mut iommu = Iommu::new(IommuConfig {
            tlb: TlbConfig::shared(512).with_reach(64, 8),
            ..IommuConfig::small()
        });
        // Span [0..8): page 0's frame is not adjacent to page 1's.
        let first = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base),
            Cycle::new(0),
            &os,
            None,
        );
        assert!(!first.large, "a fragmented span must not coalesce");
        // Span [8..16): contiguous, so one walk covers all eight pages.
        let walked = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base + 8),
            Cycle::new(100),
            &os,
            None,
        );
        assert!(walked.large, "a contiguous span must coalesce");
        let sib = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base + 15),
            Cycle::new(200),
            &os,
            None,
        );
        assert!(matches!(sib.outcome, IommuOutcome::TlbHit { .. }));
        let (ppn, _) = sib.outcome.translation().unwrap();
        let (expect, _) = os
            .translate(pid, gvc_mem::Vpn::new(base + 15).base())
            .unwrap();
        assert_eq!(ppn, expect.ppn());
        // Break a later span's contiguity: relocating one page vetoes
        // coalescing for the whole block.
        os.remap_page(pid, gvc_mem::Vpn::new(base + 25)).unwrap();
        let broken = iommu.translate(
            pid.asid(),
            gvc_mem::Vpn::new(base + 24),
            Cycle::new(300),
            &os,
            None,
        );
        assert!(!broken.large, "a remapped page must veto coalescing");
        assert!(matches!(broken.outcome, IommuOutcome::Walked { .. }));
    }

    #[test]
    fn access_rate_reflects_bursts() {
        let (os, pid, r) = setup(1);
        let mut iommu = Iommu::new(IommuConfig::ideal());
        let vpn = r.start().vpn();
        for _ in 0..700 {
            iommu.translate(pid.asid(), vpn, Cycle::new(10), &os, None);
        }
        let rate = iommu.access_rate(Cycle::new(1400));
        assert_eq!(rate.total(), 700);
        assert_eq!(rate.max_per_cycle(), 1.0);
        assert_eq!(rate.mean_per_cycle(), 0.5);
    }
}
