//! Deterministic fault injection: adversarial events, replayable from
//! a seed.
//!
//! The paper's correctness argument (§4) rests on rare events — TLB
//! shootdowns arriving mid-kernel (§4.2), CPU coherence probes that
//! the FBT must filter or honor (§4.2), page faults and slow IOMMU
//! walks, FBT capacity overflow forcing the flush path (§4.2), and
//! dynamic page remaps (§4.3). The synthetic workloads emit none of
//! these on their own, so sweeps only ever exercise the happy path.
//! This module injects all of them *deterministically*: an
//! [`InjectPlan`] is derived from a [`SimRng`] seed carried in
//! [`InjectConfig`], every decision is a fixed number of draws from
//! that generator, and no decision depends on wall-clock time or
//! thread scheduling — so a run with injection enabled is replayable
//! byte-identically from `(workload, config, scale, seed)` alone,
//! exactly like an uninjected run.
//!
//! Event classes:
//!
//! * **Shootdown storms** — a burst of [`Shootdown::Pages`] against
//!   recently touched pages, driven through the same coherence path
//!   the OS uses ([`crate::hierarchy::MemorySystem::apply_shootdown`]).
//! * **Probe bursts** — CPU coherence probes against the physical
//!   frames backing recently touched pages (the FBT's backward
//!   translation must filter or honor each one).
//! * **FBT capacity pressure** — temporarily shrinks the usable FBT
//!   ways ([`crate::fbt::Fbt::set_usable_ways`]) so inserts contend
//!   for a sliver of the table and the §4.2 overflow/flush path runs.
//! * **Page remaps** — `OsLite::remap_page` moves a live page to a new
//!   physical frame mid-kernel and the resulting shootdown is applied,
//!   the Mosaic-style migration the §4.3 discussion anticipates.
//! * **Huge-page splinters** — `OsLite::splinter` demotes the 2 MB
//!   block under a hot page back to 4 KB mappings, the fragmentation
//!   back-off every transparent-huge-page OS performs; the shootdown
//!   must purge the block's reach-TLB entry everywhere.
//! * **Walker faults and latency spikes** — injected inside the IOMMU
//!   walk path itself (see `gvc_tlb::iommu::WalkInjectConfig`); the
//!   plan only carries their rates.
//!
//! The plan picks *which* pages to attack from a small ring of
//! recently observed `(asid, vpn)` pairs, so injected events hit pages
//! the hierarchy actually has state for — a shootdown of a never-
//! touched page exercises nothing.

use crate::config::SystemConfig;
use gvc_engine::SimRng;
use gvc_mem::{Asid, Shootdown, Vpn, LINES_PER_PAGE};
use serde::{Deserialize, Serialize};

/// Rates are expressed in parts-per-million per memory instruction so
/// the whole config stays integral (and therefore `Eq + Hash`, which
/// the bench runner's memo-cache key requires).
pub const PPM: u64 = 1_000_000;

/// How many recently touched pages the plan remembers as candidate
/// targets.
const HOT_RING: usize = 32;

/// RNG stream ids (forked off the seed) for the plan and the walker,
/// so the two injection sites draw from independent sequences.
const PLAN_STREAM: u64 = 0x1;
/// See [`PLAN_STREAM`].
const WALKER_STREAM: u64 = 0x2;

/// Configuration of the deterministic fault-injection layer.
///
/// All fields are integers: rates in parts-per-million (see [`PPM`])
/// per *memory instruction* (for plan-level events) or per *IOMMU
/// walk* (for walker-level events). This keeps the type `Copy + Eq +
/// Hash`, so it can ride inside [`SystemConfig`] and the bench
/// runner's memo key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InjectConfig {
    /// Seed for all injection decisions. Independent of the workload
    /// seed: the same workload can be soaked under many fault
    /// schedules.
    pub seed: u64,
    /// Shootdown-storm rate (ppm per memory instruction).
    pub storm_ppm: u32,
    /// CPU probe-burst rate (ppm per memory instruction).
    pub probe_ppm: u32,
    /// FBT capacity-pressure rate (ppm per memory instruction).
    pub pressure_ppm: u32,
    /// Mid-kernel page-remap rate (ppm per memory instruction).
    pub remap_ppm: u32,
    /// Huge-page splinter rate (ppm per memory instruction): demotes
    /// the 2 MB block under a hot page back to 512 discrete 4 KB
    /// mappings, modelling the OS backing off transparent huge pages
    /// under memory fragmentation. A hot page that is not part of a
    /// large mapping is skipped (counted, never fatal).
    pub splinter_ppm: u32,
    /// Spurious page-fault rate at the IOMMU walker (ppm per walk).
    pub fault_ppm: u32,
    /// Walk-latency-spike rate at the IOMMU walker (ppm per walk).
    pub spike_ppm: u32,
    /// Pages per shootdown storm.
    pub storm_pages: u32,
    /// Probes per burst.
    pub burst_probes: u32,
    /// Accesses a pressure window lasts before full FBT ways return.
    pub pressure_window: u32,
    /// Usable FBT ways while a pressure window is active.
    pub pressure_ways: u32,
    /// Extra cycles a spiked walk takes.
    pub spike_cycles: u64,
}

impl InjectConfig {
    /// A config injecting every legacy event class at the same
    /// `rate_ppm`, with the default shape parameters. This is what
    /// `repro --inject <rate>` builds. Splintering defaults to *off*
    /// here so the decision stream of a given `(rate, seed)` pair is
    /// unchanged from before huge pages existed; opt in with
    /// [`InjectConfig::with_splinter`].
    pub fn uniform(rate_ppm: u32, seed: u64) -> Self {
        InjectConfig {
            seed,
            storm_ppm: rate_ppm,
            probe_ppm: rate_ppm,
            pressure_ppm: rate_ppm,
            remap_ppm: rate_ppm,
            splinter_ppm: 0,
            fault_ppm: rate_ppm,
            spike_ppm: rate_ppm,
            storm_pages: 4,
            burst_probes: 4,
            pressure_window: 256,
            pressure_ways: 1,
            spike_cycles: 500,
        }
    }

    /// Enables fragmentation-driven huge-page splintering at
    /// `rate_ppm` (see [`InjectConfig::splinter_ppm`]).
    pub fn with_splinter(mut self, rate_ppm: u32) -> Self {
        self.splinter_ppm = rate_ppm;
        self
    }

    /// Seed for the plan-level generator (storms, probes, pressure,
    /// remaps).
    pub fn plan_seed(&self) -> u64 {
        SimRng::seeded(self.seed).fork(PLAN_STREAM).next_u64()
    }

    /// Seed for the walker-level generator (spurious faults, latency
    /// spikes). Forked on a different stream than [`plan_seed`]
    /// (`InjectConfig::plan_seed`) so the two sites are independent.
    pub fn walker_seed(&self) -> u64 {
        SimRng::seeded(self.seed).fork(WALKER_STREAM).next_u64()
    }
}

/// A single probe the plan wants delivered. The caller (which owns the
/// OS) translates the page and forwards a coherence probe at the
/// backing frame; an unmapped page is skipped (counted, never fatal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTarget {
    /// Address space of the targeted page.
    pub asid: Asid,
    /// The targeted virtual page.
    pub vpn: Vpn,
    /// Which line within the page to probe.
    pub line: u32,
    /// `true` for an invalidating probe, `false` for a downgrade.
    pub invalidate: bool,
}

/// One injected event, ready for the run loop to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectEvent {
    /// Apply a TLB shootdown covering a burst of hot pages.
    Shootdown(Shootdown),
    /// Deliver a burst of CPU coherence probes.
    ProbeBurst(Vec<ProbeTarget>),
    /// Shrink the usable FBT ways to `ways` for `window` accesses.
    FbtPressure {
        /// Usable ways during the window.
        ways: usize,
        /// Window length in memory-system accesses.
        window: u32,
    },
    /// Remap one hot page to a fresh physical frame mid-kernel.
    Remap {
        /// Address space of the remapped page.
        asid: Asid,
        /// The page to migrate.
        vpn: Vpn,
    },
    /// Splinter the 2 MB mapping under one hot page back to 4 KB
    /// pages (skipped if the page is not large-mapped).
    Splinter {
        /// Address space of the targeted page.
        asid: Asid,
        /// Any page inside the block to demote.
        vpn: Vpn,
    },
}

/// What the plan injected over one run. Walker-level events are
/// counted separately in `IommuStats` (`injected_faults`,
/// `injected_spikes`) because they fire inside the walk path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectReport {
    /// Shootdown storms applied.
    pub storms: u64,
    /// Total pages covered by injected shootdowns.
    pub storm_pages: u64,
    /// Probe bursts issued.
    pub probe_bursts: u64,
    /// Individual probes delivered (unmapped targets excluded).
    pub probes: u64,
    /// Probes skipped because the target page was no longer mapped.
    pub probes_skipped: u64,
    /// FBT pressure windows opened.
    pub pressure_windows: u64,
    /// Page remaps that succeeded (shootdown applied).
    pub remaps: u64,
    /// Remap attempts that failed (page gone or part of a large
    /// mapping) — skipped, never fatal.
    pub remaps_failed: u64,
    /// Huge-page splinters that succeeded (shootdown applied).
    pub splinters: u64,
    /// Splinter attempts that found no large mapping under the target
    /// — skipped, never fatal.
    pub splinters_failed: u64,
}

/// The deterministic fault-injection plan: a seeded generator plus a
/// ring of recently touched pages.
///
/// The run loop calls [`observe`](Self::observe) for every line access
/// and [`poll`](Self::poll) once per memory instruction; `poll` makes
/// exactly one rate draw (plus a bounded number of target-picking
/// draws when an event fires), so the decision sequence is a pure
/// function of the seed and the access stream.
///
/// The plan is its own checkpoint (see [`InjectPlan::restore`]). Field
/// order is the checkpoint's key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectPlan {
    cfg: InjectConfig,
    rng: SimRng,
    hot: Vec<(Asid, Vpn)>,
    hot_next: usize,
    report: InjectReport,
}

impl InjectPlan {
    /// Builds the plan for `cfg`.
    pub fn new(cfg: InjectConfig) -> Self {
        InjectPlan {
            cfg,
            rng: SimRng::seeded(cfg.plan_seed()),
            hot: Vec::with_capacity(HOT_RING),
            hot_next: 0,
            report: InjectReport::default(),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &InjectConfig {
        &self.cfg
    }

    /// Records a touched page as a future injection target.
    pub fn observe(&mut self, asid: Asid, vpn: Vpn) {
        if self.hot.last() == Some(&(asid, vpn)) {
            return; // consecutive lines of one page collapse to one slot
        }
        if self.hot.len() < HOT_RING {
            self.hot.push((asid, vpn));
        } else {
            self.hot[self.hot_next] = (asid, vpn);
            self.hot_next = (self.hot_next + 1) % HOT_RING;
        }
    }

    /// Rolls the per-instruction dice. At most one event class fires
    /// per instruction; the cumulative-threshold comparison spends a
    /// single draw when nothing fires.
    pub fn poll(&mut self) -> Option<InjectEvent> {
        if self.hot.is_empty() {
            return None; // nothing to aim at yet
        }
        let u = self.rng.below(PPM);
        let mut threshold = self.cfg.storm_ppm as u64;
        if u < threshold {
            return Some(self.storm());
        }
        threshold += self.cfg.probe_ppm as u64;
        if u < threshold {
            return Some(self.burst());
        }
        threshold += self.cfg.pressure_ppm as u64;
        if u < threshold {
            self.report.pressure_windows += 1;
            return Some(InjectEvent::FbtPressure {
                ways: self.cfg.pressure_ways.max(1) as usize,
                window: self.cfg.pressure_window.max(1),
            });
        }
        threshold += self.cfg.remap_ppm as u64;
        if u < threshold {
            let (asid, vpn) = self.pick_hot();
            return Some(InjectEvent::Remap { asid, vpn });
        }
        threshold += self.cfg.splinter_ppm as u64;
        if u < threshold {
            let (asid, vpn) = self.pick_hot();
            return Some(InjectEvent::Splinter { asid, vpn });
        }
        None
    }

    /// Tells the plan how an executed event went; keeps the report in
    /// one place without the plan needing OS access.
    pub fn record_remap(&mut self, ok: bool) {
        if ok {
            self.report.remaps += 1;
        } else {
            self.report.remaps_failed += 1;
        }
    }

    /// See [`InjectReport::splinters`] /
    /// [`InjectReport::splinters_failed`].
    pub fn record_splinter(&mut self, ok: bool) {
        if ok {
            self.report.splinters += 1;
        } else {
            self.report.splinters_failed += 1;
        }
    }

    /// See [`InjectReport::probes`] / [`InjectReport::probes_skipped`].
    pub fn record_probe(&mut self, delivered: bool) {
        if delivered {
            self.report.probes += 1;
        } else {
            self.report.probes_skipped += 1;
        }
    }

    /// The tally of injected events so far.
    pub fn report(&self) -> InjectReport {
        self.report
    }

    fn pick_hot(&mut self) -> (Asid, Vpn) {
        let i = self.rng.below(self.hot.len() as u64) as usize;
        self.hot[i]
    }

    fn storm(&mut self) -> InjectEvent {
        // One storm targets one address space (a shootdown is an
        // invalidation command for a single ASID).
        let (asid, first) = self.pick_hot();
        let mut vpns = vec![first];
        for _ in 1..self.cfg.storm_pages.max(1) {
            let (a, v) = self.pick_hot();
            if a == asid && !vpns.contains(&v) {
                vpns.push(v);
            }
        }
        self.report.storms += 1;
        self.report.storm_pages += vpns.len() as u64;
        InjectEvent::Shootdown(Shootdown::Pages { asid, vpns })
    }

    /// Restores a plan cloned or deserialized from a checkpoint. The
    /// RNG resumes mid-sequence, so the post-restore decision stream is
    /// bit-for-bit the continuation of the checkpointed one.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's configuration does not match.
    pub fn restore(&mut self, snap: &InjectPlan) {
        assert_eq!(self.cfg, snap.cfg, "inject plan snapshot config mismatch");
        self.clone_from(snap);
    }

    fn burst(&mut self) -> InjectEvent {
        let mut targets = Vec::with_capacity(self.cfg.burst_probes.max(1) as usize);
        for _ in 0..self.cfg.burst_probes.max(1) {
            let (asid, vpn) = self.pick_hot();
            let line = self.rng.below(LINES_PER_PAGE) as u32;
            let invalidate = self.rng.below(2) == 0;
            targets.push(ProbeTarget {
                asid,
                vpn,
                line,
                invalidate,
            });
        }
        self.report.probe_bursts += 1;
        InjectEvent::ProbeBurst(targets)
    }
}

/// Builds an [`InjectPlan`] for a configuration, if injection is
/// enabled and any plan-level rate is nonzero.
pub fn plan_for(cfg: &SystemConfig) -> Option<InjectPlan> {
    let ic = cfg.inject?;
    let plan_rates = ic.storm_ppm | ic.probe_ppm | ic.pressure_ppm | ic.remap_ppm | ic.splinter_ppm;
    (plan_rates > 0).then(|| InjectPlan::new(ic))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_plan(cfg: InjectConfig) -> InjectPlan {
        let mut p = InjectPlan::new(cfg);
        for i in 0..8 {
            p.observe(Asid(0), Vpn::new(0x100 + i));
        }
        p
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let cfg = InjectConfig::uniform(200_000, 7);
        let mut a = hot_plan(cfg);
        let mut b = hot_plan(cfg);
        for _ in 0..4096 {
            assert_eq!(a.poll(), b.poll());
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = hot_plan(InjectConfig::uniform(200_000, 1));
        let mut b = hot_plan(InjectConfig::uniform(200_000, 2));
        let diverged = (0..4096).any(|_| a.poll() != b.poll());
        assert!(diverged, "seed does not reach the plan");
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = hot_plan(InjectConfig::uniform(0, 42));
        for _ in 0..4096 {
            assert_eq!(p.poll(), None);
        }
        assert_eq!(p.report(), InjectReport::default());
    }

    #[test]
    fn empty_hot_ring_fires_nothing() {
        let mut p = InjectPlan::new(InjectConfig::uniform(PPM as u32, 42));
        assert_eq!(p.poll(), None);
    }

    #[test]
    fn all_event_classes_fire_at_high_rate() {
        let mut p = hot_plan(InjectConfig::uniform(250_000, 3));
        for _ in 0..4096 {
            p.poll();
        }
        let r = p.report();
        assert!(r.storms > 0, "no storms: {r:?}");
        assert!(r.probe_bursts > 0, "no probe bursts: {r:?}");
        assert!(r.pressure_windows > 0, "no pressure windows: {r:?}");
    }

    #[test]
    fn storms_target_one_asid_without_duplicates() {
        let mut p = InjectPlan::new(InjectConfig::uniform(PPM as u32, 11));
        for i in 0..4 {
            p.observe(Asid(0), Vpn::new(0x10 + i));
            p.observe(Asid(1), Vpn::new(0x90 + i));
        }
        for _ in 0..256 {
            if let Some(InjectEvent::Shootdown(Shootdown::Pages { asid, vpns })) = p.poll() {
                let mut uniq = vpns.clone();
                uniq.dedup();
                assert_eq!(uniq.len(), vpns.len(), "duplicate vpns in storm");
                let base = if asid == Asid(0) { 0x10 } else { 0x90 };
                for v in &vpns {
                    assert!((base..base + 4).contains(&v.raw()), "cross-asid storm");
                }
            }
        }
    }

    #[test]
    fn splinters_fire_only_when_opted_in() {
        let mut off = hot_plan(InjectConfig::uniform(150_000, 3));
        let mut on = hot_plan(InjectConfig::uniform(150_000, 3).with_splinter(250_000));
        let mut fired = false;
        for _ in 0..4096 {
            off.poll();
            if let Some(InjectEvent::Splinter { asid, vpn }) = on.poll() {
                fired = true;
                assert_eq!(asid, Asid(0));
                assert!((0x100..0x108).contains(&vpn.raw()), "target not hot");
            }
        }
        assert!(fired, "splinter rate never fired");
        let legacy = off.report();
        assert!(legacy.storms > 0 && legacy.probe_bursts > 0);
    }

    #[test]
    fn hot_ring_is_bounded() {
        let mut p = InjectPlan::new(InjectConfig::uniform(1, 0));
        for i in 0..1000 {
            p.observe(Asid(0), Vpn::new(i));
        }
        assert!(p.hot.len() <= HOT_RING);
    }

    #[test]
    fn snapshot_restore_continues_the_decision_stream() {
        let cfg = InjectConfig::uniform(200_000, 13);
        let mut a = hot_plan(cfg);
        let mut b = hot_plan(cfg);
        for _ in 0..100 {
            a.poll();
            b.poll();
        }
        let mut c = InjectPlan::new(cfg);
        c.restore(&a);
        assert_eq!(c, a, "restore is a fixed point");
        for i in 0..1000 {
            assert_eq!(b.poll(), c.poll(), "decision {i} diverged");
        }
        assert_eq!(b.report(), c.report());
    }

    #[test]
    fn plan_and_walker_seeds_differ() {
        let cfg = InjectConfig::uniform(100, 9);
        assert_ne!(cfg.plan_seed(), cfg.walker_seed());
    }
}
