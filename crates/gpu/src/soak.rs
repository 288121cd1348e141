//! Long-horizon soak harness: the multi-tenant service core of
//! [`crate::service`] with no kernel budget, cut into **epochs** so it
//! can run for billions of simulated cycles with bounded resident
//! memory and be checkpointed, killed, and resumed byte-identically.
//!
//! Scheduling, arrivals and churn are the service's; the soak's tenants
//! submit kernels forever and the run ends at a configured cycle
//! horizon ([`SoakConfig::horizon_epochs`] × [`SoakConfig::epoch_cycles`]).
//! The epochs add two things:
//!
//! * **Epoch-windowed stats** — each tenant's raw per-access stall
//!   samples live only within the current epoch. At every epoch
//!   boundary they are spilled into exactly-mergeable sketches
//!   ([`Histogram`] for stall latencies, [`RateAccum`] for the IOMMU
//!   access rate), so resident stats memory is bounded by one epoch's
//!   access count regardless of the horizon. Spilling happens at
//!   *every* boundary — never only when a checkpoint is due — so the
//!   accumulation schedule of an interrupted run is identical to an
//!   uninterrupted one.
//! * **Checkpointable** — [`SoakSim::snapshot`] captures the complete
//!   simulation state (memory system, OS, tenants, RNG streams,
//!   injection cursors, admission heaps, spilled accumulators) as a
//!   versioned, serializable [`SoakCheckpoint`]. Restoring it into a
//!   freshly built simulation and continuing produces the *same bytes*
//!   in the final report as never having stopped; tests enforce this
//!   at multiple checkpoint cadences.
//!
//! Under paranoid mode the full invariant sweep
//! ([`MemorySystem::check_invariants`]) additionally runs at every
//! epoch boundary, and [`SoakReport::check_conservation`] asserts the
//! stall/access conservation laws across the spill pipeline: nothing
//! recorded per-access may go missing on its way through the epoch
//! sketches.
//!
//! [`MemorySystem::check_invariants`]: gvc::MemorySystem::check_invariants

use crate::service::{
    check_tenant_sums, fairness, Core, Outstanding, ServiceConfig, Tenant, TenantStats,
};
use gvc::{InjectPlan, InjectPlanSnapshot, InjectReport};
use gvc::{MemSystemSnapshot, SystemConfig};
use gvc_engine::time::Cycle;
use gvc_engine::{Cdf, Histogram, IntervalSummary, RateAccum, RngSnapshot, SimRng};
use gvc_mem::{OsSnapshot, ProcessId, VRange};
use serde::{Deserialize, Serialize};

/// Version tag of the [`SoakCheckpoint`] schema; bump on any layout
/// change so a stale checkpoint file fails loudly instead of
/// deserializing into nonsense.
pub const SOAK_CHECKPOINT_VERSION: u32 = 1;

/// Shape of a long-horizon soak run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Number of tenants (each gets its own process/ASID).
    pub tenants: usize,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Fixed cost of switching the active address space.
    pub context_switch_cycles: u64,
    /// Wavefronts per kernel.
    pub waves_per_kernel: u64,
    /// Coalesced line accesses per wavefront.
    pub accesses_per_wave: u64,
    /// 4 KB pages in each tenant's working set.
    pub pages_per_tenant: u64,
    /// Evict + respawn the completing tenant every this many kernel
    /// completions across the service; `0` disables churn.
    pub churn_period: u64,
    /// Mean think time between a tenant's kernel completions and its
    /// next submission.
    pub mean_arrival_gap: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Outstanding line requests per CU (MSHR admission limit).
    pub max_outstanding_per_cu: usize,
    /// Master seed; all randomness derives from per-tenant forks.
    pub seed: u64,
    /// Epoch length in cycles: the spill / invariant-sweep /
    /// checkpoint granularity.
    pub epoch_cycles: u64,
    /// Run length in epochs; the horizon is
    /// `horizon_epochs * epoch_cycles` simulated cycles.
    pub horizon_epochs: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            tenants: 4,
            quantum: 512,
            context_switch_cycles: 300,
            waves_per_kernel: 4,
            accesses_per_wave: 32,
            pages_per_tenant: 16,
            churn_period: 7,
            mean_arrival_gap: 2_000,
            write_fraction: 0.25,
            max_outstanding_per_cu: 64,
            seed: 42,
            epoch_cycles: 100_000,
            horizon_epochs: 8,
        }
    }
}

impl SoakConfig {
    /// The scheduling shape shared with the service. A soak has no
    /// kernel budget, so `kernels_per_tenant` is unused.
    fn service(&self) -> ServiceConfig {
        ServiceConfig {
            tenants: self.tenants,
            quantum: self.quantum,
            context_switch_cycles: self.context_switch_cycles,
            kernels_per_tenant: 0,
            waves_per_kernel: self.waves_per_kernel,
            accesses_per_wave: self.accesses_per_wave,
            pages_per_tenant: self.pages_per_tenant,
            churn_period: self.churn_period,
            mean_arrival_gap: self.mean_arrival_gap,
            write_fraction: self.write_fraction,
            max_outstanding_per_cu: self.max_outstanding_per_cu,
            seed: self.seed,
        }
    }
}

/// One point of the per-epoch long-horizon curve: epoch-local (not
/// cumulative) service-level metrics, one entry per closed epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochPoint {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Line accesses issued during the epoch.
    pub accesses: u64,
    /// Stall cycles accumulated during the epoch.
    pub stall_cycles: u64,
    /// p99 stall latency over the epoch's accesses.
    pub p99_stall: f64,
    /// Tenant evictions during the epoch.
    pub evictions: u64,
}

/// End-of-run report for one soak cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakReport {
    /// Memory-system design label.
    pub design: String,
    /// Tenant count.
    pub tenants: usize,
    /// Epochs completed.
    pub epochs: u64,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// Total simulated cycles (horizon, or last completion beyond it).
    pub cycles: u64,
    /// Line accesses across all tenants.
    pub accesses: u64,
    /// Aggregate throughput in accesses per kilocycle.
    pub throughput: f64,
    /// Sum of all tenants' stall cycles, accumulated independently of
    /// the per-tenant tallies.
    pub aggregate_stall_cycles: u64,
    /// p99 stall latency over every access (histogram sketch).
    pub p99_stall: f64,
    /// Mean stall latency over every access.
    pub mean_stall: f64,
    /// Jain's fairness index over per-tenant service rates.
    pub fairness: f64,
    /// Tenant evictions performed (churn).
    pub evictions: u64,
    /// Address-space context switches performed.
    pub context_switches: u64,
    /// Faulting accesses (should be 0 outside injection runs).
    pub faults: u64,
    /// IOMMU access rate over the whole horizon, assembled from the
    /// spilled [`RateAccum`] plus the resident sampler window.
    pub iommu_rate: IntervalSummary,
    /// Fault-injection tally when the design config armed a plan.
    pub injected: Option<InjectReport>,
    /// Set when the run was cut short (signal-truncated partial
    /// report); a completed run is always `false`.
    pub truncated: bool,
    /// Per-epoch long-horizon curve.
    pub epoch_curve: Vec<EpochPoint>,
    /// Per-tenant breakdown.
    pub per_tenant: Vec<TenantStats>,
}

impl SoakReport {
    /// Asserts the conservation laws across the epoch spill pipeline:
    /// per-tenant access/stall sums equal the aggregates, the epoch
    /// curve sums to the same totals, and every access survived into
    /// the merged histograms.
    ///
    /// # Panics
    ///
    /// Panics if any sample was lost or double-counted on its way
    /// through an epoch boundary.
    pub fn check_conservation(&self) {
        check_tenant_sums(&self.per_tenant, self.aggregate_stall_cycles, self.accesses);
        let curve_accesses: u64 = self.epoch_curve.iter().map(|e| e.accesses).sum();
        assert_eq!(
            curve_accesses, self.accesses,
            "access conservation: epoch curve != aggregate"
        );
        let curve_stall: u64 = self.epoch_curve.iter().map(|e| e.stall_cycles).sum();
        assert_eq!(
            curve_stall, self.aggregate_stall_cycles,
            "stall conservation: epoch curve != aggregate"
        );
        let curve_evictions: u64 = self.epoch_curve.iter().map(|e| e.evictions).sum();
        assert_eq!(
            curve_evictions, self.evictions,
            "eviction conservation: epoch curve != aggregate"
        );
    }
}

/// Checkpointed state of one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakTenantSnapshot {
    /// The tenant's ASID (process slot).
    pub asid: u16,
    /// The tenant's mapped working-set region.
    pub region: VRange,
    /// The tenant's private RNG stream, mid-sequence.
    pub rng: RngSnapshot,
    /// Wavefronts left in the in-flight kernel.
    pub waves_left: u64,
    /// Accesses left in the in-flight wavefront.
    pub accesses_left: u64,
    /// Arrival gate for the next kernel.
    pub next_arrival: u64,
    /// Accesses issued so far.
    pub accesses: u64,
    /// Stall cycles so far.
    pub stall_cycles: u64,
    /// Cumulative stall sketch.
    pub stall_hist: Histogram,
    /// Evictions so far.
    pub evictions: u64,
}

/// A versioned, complete snapshot of a [`SoakSim`] at an epoch
/// boundary. Serializing, deserializing, restoring into a freshly
/// built simulation, and continuing is byte-identical to never having
/// stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakCheckpoint {
    /// Schema version ([`SOAK_CHECKPOINT_VERSION`]); validated on
    /// restore.
    pub version: u32,
    /// The soak configuration (validated on restore).
    pub cfg: SoakConfig,
    /// Epochs closed so far.
    pub epoch: u64,
    /// The global clock.
    pub now: u64,
    /// Latest access completion seen.
    pub end: u64,
    /// The active tenant (round-robin cursor).
    pub active: Option<usize>,
    /// Kernel completions across the service (churn counter).
    pub completions: u64,
    /// Evictions so far.
    pub evictions: u64,
    /// Context switches so far.
    pub context_switches: u64,
    /// Faulting accesses so far.
    pub faults: u64,
    /// Aggregate stall cycles so far.
    pub aggregate_stall: u64,
    /// Total accesses so far.
    pub total_accesses: u64,
    /// The full memory-system state.
    pub mem: MemSystemSnapshot,
    /// The full OS state (page tables, physical memory, ASIDs).
    pub os: OsSnapshot,
    /// The injection plan, mid-stream, when armed.
    pub plan: Option<InjectPlanSnapshot>,
    /// Per-tenant state.
    pub tenants: Vec<SoakTenantSnapshot>,
    /// Per-CU outstanding completion times, sorted.
    pub outstanding: Vec<Vec<u64>>,
    /// Spilled IOMMU rate history.
    pub iommu_rate: RateAccum,
    /// Aggregate cumulative stall sketch.
    pub stall_hist: Histogram,
    /// The per-epoch curve so far.
    pub epoch_curve: Vec<EpochPoint>,
}

/// The long-horizon soak simulation (see [module docs](self)).
///
/// Drive it one epoch at a time with [`SoakSim::run_epoch`], snapshot
/// at any boundary with [`SoakSim::snapshot`], and finalize with
/// [`SoakSim::finish`].
pub struct SoakSim {
    cfg: SoakConfig,
    core: Core,
    /// Epochs closed so far.
    epoch: u64,
    /// The cumulative counters at the last epoch close; the open
    /// epoch's curve point is their delta.
    closed: Tally,
    /// Per-tenant cumulative stall sketches.
    tenant_hists: Vec<Histogram>,
    /// Spilled IOMMU rate history (complete intervals only).
    iommu_rate: RateAccum,
    /// Aggregate cumulative stall sketch.
    stall_hist: Histogram,
    /// The per-epoch curve.
    epoch_curve: Vec<EpochPoint>,
}

/// The cumulative counters an [`EpochPoint`] is a delta of.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tally {
    accesses: u64,
    stall_cycles: u64,
    evictions: u64,
}

impl Tally {
    fn of(core: &Core) -> Self {
        Tally {
            accesses: core.total_accesses,
            stall_cycles: core.aggregate_stall,
            evictions: core.evictions,
        }
    }
}

impl SoakSim {
    /// Builds a soak simulation at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics on a zero tenant count, zero quantum, zero epoch length,
    /// zero horizon, a tenant count exceeding the ASID namespace, or a
    /// system config with lifetime tracking enabled (incompatible with
    /// bounded checkpoints).
    pub fn new(cfg: &SoakConfig, sys: SystemConfig) -> Self {
        assert!(cfg.epoch_cycles > 0, "epoch length must be nonzero");
        assert!(cfg.horizon_epochs > 0, "horizon must be nonzero");
        assert!(
            !sys.track_lifetimes,
            "lifetime tracking holds unbounded samples; soak runs must not enable it"
        );
        let core = Core::new(&cfg.service(), None, sys);
        let interval = core.mem.iommu_sample_interval();
        SoakSim {
            cfg: *cfg,
            closed: Tally::of(&core),
            core,
            epoch: 0,
            tenant_hists: vec![Histogram::new(); cfg.tenants],
            iommu_rate: RateAccum::new(interval),
            stall_hist: Histogram::new(),
            epoch_curve: Vec::new(),
        }
    }

    /// Epochs closed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the horizon has been reached.
    pub fn done(&self) -> bool {
        self.epoch >= self.cfg.horizon_epochs
    }

    /// The soak configuration.
    pub fn config(&self) -> &SoakConfig {
        &self.cfg
    }

    /// Raw per-access samples currently resident (epoch-local; the
    /// bounded-memory contract says this never exceeds one epoch's
    /// accesses and drops to zero at every boundary).
    pub fn resident_epoch_samples(&self) -> usize {
        self.core.tenants.iter().map(|t| t.stalls.len()).sum()
    }

    /// Resident (unspilled) IOMMU rate-sampler intervals; bounded by
    /// one epoch's worth regardless of the horizon.
    pub fn resident_iommu_rate_intervals(&self) -> usize {
        self.core.mem.resident_iommu_rate_intervals()
    }

    /// Whether the simulation sits at an epoch boundary: nothing has
    /// been recorded since the last close.
    fn at_boundary(&self) -> bool {
        self.resident_epoch_samples() == 0 && Tally::of(&self.core) == self.closed
    }

    /// Runs until exactly one more epoch closes (spill, paranoid
    /// sweep, curve point). Returns `true` while more epochs remain.
    /// A slice that crosses the boundary finishes its quantum; the
    /// epoch closes before the next one starts, even when an idle
    /// jump crosses several boundaries at once.
    ///
    /// # Panics
    ///
    /// Panics if the horizon was already reached, or on any paranoid
    /// invariant violation.
    pub fn run_epoch(&mut self) -> bool {
        assert!(!self.done(), "soak already at its horizon");
        let boundary = (self.epoch + 1) * self.cfg.epoch_cycles;
        while self.core.now < boundary {
            self.core.slice();
        }
        self.close_epoch();
        !self.done()
    }

    /// Closes the current epoch: spills every tenant's stall window
    /// into the bounded sketches, records the curve point, spills the
    /// IOMMU sampler, and (under paranoid mode) runs the full invariant
    /// sweep. Runs at *every* boundary so the accumulation schedule is
    /// independent of the checkpoint cadence.
    fn close_epoch(&mut self) {
        let boundary = (self.epoch + 1) * self.cfg.epoch_cycles;
        let mut window = Cdf::new();
        for (t, hist) in self.core.tenants.iter_mut().zip(&mut self.tenant_hists) {
            let stalls = std::mem::take(&mut t.stalls);
            for &stall in stalls.samples() {
                hist.record(stall as u64);
                self.stall_hist.record(stall as u64);
            }
            window.merge(&stalls);
        }
        let tally = Tally::of(&self.core);
        self.epoch_curve.push(EpochPoint {
            epoch: self.epoch,
            accesses: tally.accesses - self.closed.accesses,
            stall_cycles: tally.stall_cycles - self.closed.stall_cycles,
            p99_stall: window.quantile(0.99),
            evictions: tally.evictions - self.closed.evictions,
        });
        self.closed = tally;
        self.core
            .mem
            .spill_iommu_rate(Cycle::new(boundary), &mut self.iommu_rate);
        if self.core.mem.config().paranoid {
            self.core.mem.check_invariants();
        }
        self.epoch += 1;
    }

    /// Captures a complete, versioned checkpoint. Only valid at an
    /// epoch boundary (between [`SoakSim::run_epoch`] calls), where the
    /// epoch-local sample windows are empty by construction.
    ///
    /// # Panics
    ///
    /// Panics if called mid-epoch.
    pub fn snapshot(&self) -> SoakCheckpoint {
        assert!(
            self.at_boundary(),
            "soak checkpoints are taken at epoch boundaries"
        );
        let core = &self.core;
        SoakCheckpoint {
            version: SOAK_CHECKPOINT_VERSION,
            cfg: self.cfg,
            epoch: self.epoch,
            now: core.now,
            end: core.end,
            active: core.active,
            completions: core.completions,
            evictions: core.evictions,
            context_switches: core.context_switches,
            faults: core.faults,
            aggregate_stall: core.aggregate_stall,
            total_accesses: core.total_accesses,
            mem: core.mem.snapshot(),
            os: core.os.snapshot(),
            plan: core.plan.as_ref().map(InjectPlan::snapshot),
            tenants: core
                .tenants
                .iter()
                .zip(&self.tenant_hists)
                .map(|(t, hist)| SoakTenantSnapshot {
                    asid: t.pid.asid().0,
                    region: t.region,
                    rng: t.rng.snapshot(),
                    waves_left: t.waves_left,
                    accesses_left: t.accesses_left,
                    next_arrival: t.next_arrival,
                    accesses: t.accesses,
                    stall_cycles: t.stall_cycles,
                    stall_hist: hist.clone(),
                    evictions: t.evictions,
                })
                .collect(),
            outstanding: core
                .outstanding
                .iter()
                .map(Outstanding::to_sorted)
                .collect(),
            iommu_rate: self.iommu_rate.clone(),
            stall_hist: self.stall_hist.clone(),
            epoch_curve: self.epoch_curve.clone(),
        }
    }

    /// Restores state captured by [`SoakSim::snapshot`]. The
    /// simulation must have been built from the same [`SoakConfig`]
    /// and [`SystemConfig`]; build fresh with [`SoakSim::new`] and
    /// then restore.
    ///
    /// # Panics
    ///
    /// Panics on a checkpoint version or configuration mismatch, or if
    /// any component geometry does not match.
    pub fn restore(&mut self, ckpt: &SoakCheckpoint) {
        assert_eq!(
            ckpt.version, SOAK_CHECKPOINT_VERSION,
            "soak checkpoint version mismatch"
        );
        assert_eq!(self.cfg, ckpt.cfg, "soak checkpoint config mismatch");
        let core = &mut self.core;
        assert_eq!(
            core.plan.is_some(),
            ckpt.plan.is_some(),
            "soak checkpoint injection-plan presence mismatch"
        );
        assert_eq!(
            core.tenants.len(),
            ckpt.tenants.len(),
            "soak checkpoint tenant count mismatch"
        );
        assert_eq!(
            core.outstanding.len(),
            ckpt.outstanding.len(),
            "soak checkpoint CU count mismatch"
        );
        core.mem.restore(&ckpt.mem);
        core.os.restore(&ckpt.os);
        if let (Some(p), Some(s)) = (core.plan.as_mut(), ckpt.plan.as_ref()) {
            p.restore(s);
        }
        core.tenants = ckpt
            .tenants
            .iter()
            .map(|s| Tenant {
                pid: ProcessId(s.asid),
                region: s.region,
                rng: SimRng::from_snapshot(s.rng),
                kernels_left: None,
                waves_left: s.waves_left,
                accesses_left: s.accesses_left,
                next_arrival: s.next_arrival,
                accesses: s.accesses,
                stall_cycles: s.stall_cycles,
                stalls: Cdf::new(),
                evictions: s.evictions,
            })
            .collect();
        core.outstanding = ckpt
            .outstanding
            .iter()
            .map(|v| Outstanding::from_sorted(v))
            .collect();
        core.now = ckpt.now;
        core.end = ckpt.end;
        core.active = ckpt.active;
        core.completions = ckpt.completions;
        core.evictions = ckpt.evictions;
        core.context_switches = ckpt.context_switches;
        core.faults = ckpt.faults;
        core.aggregate_stall = ckpt.aggregate_stall;
        core.total_accesses = ckpt.total_accesses;
        self.closed = Tally::of(core);
        self.epoch = ckpt.epoch;
        self.tenant_hists = ckpt.tenants.iter().map(|s| s.stall_hist.clone()).collect();
        self.iommu_rate = ckpt.iommu_rate.clone();
        self.stall_hist = ckpt.stall_hist.clone();
        self.epoch_curve = ckpt.epoch_curve.clone();
    }

    /// Finalizes the run into a [`SoakReport`]. Under paranoid mode
    /// the conservation laws are asserted first.
    ///
    /// # Panics
    ///
    /// Panics if the horizon was not reached, or on a paranoid
    /// conservation violation.
    pub fn finish(mut self) -> SoakReport {
        assert!(self.done(), "finish() before the soak horizon");
        let horizon = self.cfg.horizon_epochs * self.cfg.epoch_cycles;
        let core = &mut self.core;
        let cycles = core.end.max(horizon);
        let iommu_rate = core
            .mem
            .iommu_rate_with(Cycle::new(cycles), &self.iommu_rate);
        let hists = &self.tenant_hists;
        let per_tenant = core.tenant_stats(|i, _| hists[i].quantile(0.99));
        assert_eq!(
            self.stall_hist.count(),
            core.total_accesses,
            "histogram conservation: merged sketch lost samples"
        );
        assert_eq!(
            self.stall_hist.sum(),
            core.aggregate_stall,
            "histogram conservation: merged sketch lost stall cycles"
        );
        let report = SoakReport {
            design: core.design(),
            tenants: self.cfg.tenants,
            epochs: self.epoch,
            epoch_cycles: self.cfg.epoch_cycles,
            cycles,
            accesses: core.total_accesses,
            throughput: core.total_accesses as f64 * 1000.0 / cycles.max(1) as f64,
            aggregate_stall_cycles: core.aggregate_stall,
            p99_stall: self.stall_hist.quantile(0.99),
            mean_stall: self.stall_hist.mean(),
            fairness: fairness(&per_tenant),
            evictions: core.evictions,
            context_switches: core.context_switches,
            faults: core.faults,
            iommu_rate,
            injected: core.plan.as_ref().map(InjectPlan::report),
            truncated: false,
            epoch_curve: self.epoch_curve,
            per_tenant,
        };
        if core.mem.config().paranoid {
            report.check_conservation();
        }
        report
    }

    /// Finalizes a *partial* run at the current epoch boundary into a
    /// report flagged `truncated` (the graceful-shutdown path: a
    /// signal-interrupted soak writes this next to its final
    /// checkpoint). Only valid at an epoch boundary.
    ///
    /// # Panics
    ///
    /// Panics if called mid-epoch.
    pub fn finish_truncated(mut self) -> SoakReport {
        assert!(
            self.at_boundary(),
            "truncated reports are cut at epoch boundaries"
        );
        // Pretend the horizon is the epochs actually completed; the
        // report carries the real horizon nowhere, and `truncated`
        // tells readers the curve is a prefix.
        self.cfg.horizon_epochs = self.epoch.max(1);
        if self.epoch == 0 {
            // Nothing ran: close an empty first epoch so finish() has
            // a consistent frame to summarize.
            self.close_epoch();
        }
        let mut report = self.finish();
        report.truncated = true;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SoakConfig {
        SoakConfig {
            tenants: 3,
            quantum: 256,
            waves_per_kernel: 2,
            accesses_per_wave: 16,
            pages_per_tenant: 8,
            churn_period: 5,
            mean_arrival_gap: 800,
            epoch_cycles: 20_000,
            horizon_epochs: 6,
            ..SoakConfig::default()
        }
    }

    fn run_to_end(cfg: &SoakConfig, sys: SystemConfig) -> SoakReport {
        let mut sim = SoakSim::new(cfg, sys);
        while !sim.done() {
            sim.run_epoch();
        }
        sim.finish()
    }

    #[test]
    fn soak_completes_and_conserves() {
        let rep = run_to_end(&small(), SystemConfig::vc_with_opt().with_paranoid());
        assert_eq!(rep.epochs, 6);
        assert!(rep.accesses > 0);
        assert!(rep.evictions > 0, "churn must fire at this period");
        assert_eq!(rep.faults, 0);
        assert!(!rep.truncated);
        assert_eq!(rep.epoch_curve.len(), 6);
        rep.check_conservation();
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let a = run_to_end(&small(), SystemConfig::vc_with_opt());
        let b = run_to_end(&small(), SystemConfig::vc_with_opt());
        assert_eq!(a, b, "same seed must replay identically");
        let other = SoakConfig { seed: 7, ..small() };
        let c = run_to_end(&other, SystemConfig::vc_with_opt());
        assert_ne!(a.accesses, c.accesses);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_boundary() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt().with_paranoid();
        let clean = run_to_end(&cfg, sys);
        for cut in 1..cfg.horizon_epochs {
            let mut first = SoakSim::new(&cfg, sys);
            for _ in 0..cut {
                first.run_epoch();
            }
            let ckpt = first.snapshot();
            drop(first); // the "crash"
            let mut resumed = SoakSim::new(&cfg, sys);
            resumed.restore(&ckpt);
            while !resumed.done() {
                resumed.run_epoch();
            }
            let rep = resumed.finish();
            assert_eq!(
                rep, clean,
                "kill at epoch {cut} + resume diverged from the clean run"
            );
        }
    }

    #[test]
    fn checkpoint_restore_is_a_fixed_point() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt();
        let mut sim = SoakSim::new(&cfg, sys);
        sim.run_epoch();
        sim.run_epoch();
        let ckpt = sim.snapshot();
        let mut other = SoakSim::new(&cfg, sys);
        other.restore(&ckpt);
        assert_eq!(
            other.snapshot(),
            ckpt,
            "restore must reproduce the snapshot"
        );
    }

    #[test]
    fn injection_soak_checkpoints_cleanly() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt()
            .with_paranoid()
            .with_inject(gvc::InjectConfig::uniform(3_000, 11));
        let clean = run_to_end(&cfg, sys);
        assert!(clean.injected.is_some());
        let mut first = SoakSim::new(&cfg, sys);
        first.run_epoch();
        first.run_epoch();
        first.run_epoch();
        let ckpt = first.snapshot();
        assert!(ckpt.plan.is_some(), "injection cursors must checkpoint");
        let mut resumed = SoakSim::new(&cfg, sys);
        resumed.restore(&ckpt);
        while !resumed.done() {
            resumed.run_epoch();
        }
        assert_eq!(resumed.finish(), clean);
    }

    #[test]
    fn bounded_resident_stats_drop_at_boundaries() {
        let cfg = small();
        let mut sim = SoakSim::new(&cfg, SystemConfig::vc_with_opt());
        let mut max_resident = 0usize;
        while !sim.done() {
            sim.run_epoch();
            assert_eq!(
                sim.resident_epoch_samples(),
                0,
                "epoch-local samples must spill at every boundary"
            );
            max_resident = max_resident.max(sim.resident_iommu_rate_intervals());
        }
        // The resident sampler window never exceeds ~one epoch of
        // intervals (plus the partial interval straddling the boundary).
        let per_epoch = (cfg.epoch_cycles / 700 + 2) as usize;
        assert!(
            max_resident <= 2 * per_epoch,
            "resident sampler window grew past the epoch bound: {max_resident}"
        );
        let rep = sim.finish();
        assert!(rep.iommu_rate.intervals() > 0);
    }

    #[test]
    fn truncated_report_is_a_prefix() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt().with_paranoid();
        let mut sim = SoakSim::new(&cfg, sys);
        sim.run_epoch();
        sim.run_epoch();
        let rep = sim.finish_truncated();
        assert!(rep.truncated);
        assert_eq!(rep.epochs, 2);
        assert_eq!(rep.epoch_curve.len(), 2);
        rep.check_conservation();
    }

    #[test]
    #[should_panic(expected = "quantum must be nonzero")]
    fn zero_quantum_is_rejected() {
        let cfg = SoakConfig {
            tenants: 1,
            quantum: 0,
            ..small()
        };
        SoakSim::new(&cfg, SystemConfig::vc_with_opt());
    }

    #[test]
    #[should_panic(expected = "config mismatch")]
    fn restore_rejects_mismatched_config() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt();
        let mut sim = SoakSim::new(&cfg, sys);
        sim.run_epoch();
        let ckpt = sim.snapshot();
        let other = SoakConfig { seed: 9, ..cfg };
        let mut fresh = SoakSim::new(&other, sys);
        fresh.restore(&ckpt);
    }

    #[test]
    #[should_panic(expected = "version mismatch")]
    fn restore_rejects_future_versions() {
        let cfg = small();
        let sys = SystemConfig::vc_with_opt();
        let mut sim = SoakSim::new(&cfg, sys);
        sim.run_epoch();
        let mut ckpt = sim.snapshot();
        ckpt.version += 1;
        let mut fresh = SoakSim::new(&cfg, sys);
        fresh.restore(&ckpt);
    }
}
