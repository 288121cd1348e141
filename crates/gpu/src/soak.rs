//! Long-horizon soak harness: the multi-tenant service loop of
//! [`crate::service`], restructured into **epochs** so it can run for
//! billions of simulated cycles with bounded resident memory and be
//! checkpointed, killed, and resumed byte-identically.
//!
//! Differences from [`crate::service::run_service`]:
//!
//! * **Unbounded work** — tenants submit kernels forever; the run ends
//!   at a configured cycle horizon ([`SoakConfig::horizon_epochs`] ×
//!   [`SoakConfig::epoch_cycles`]), not when a kernel budget drains.
//! * **Epoch-windowed stats** — raw per-access samples live only
//!   within the current epoch. At every epoch boundary they are
//!   spilled into exactly-mergeable sketches ([`Histogram`] for stall
//!   latencies, [`RateAccum`] for the IOMMU access rate), so resident
//!   stats memory is bounded by one epoch's access count regardless of
//!   the horizon. Spilling happens at *every* boundary — never only
//!   when a checkpoint is due — so the accumulation schedule of an
//!   interrupted run is identical to an uninterrupted one.
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

use crate::service::{apply_inject, jain_index, Outstanding};
use gvc::{inject, InjectPlan, InjectPlanSnapshot, InjectReport};
use gvc::{LineAccess, MemSystemSnapshot, MemorySystem, SystemConfig};
use gvc_engine::time::Cycle;
use gvc_engine::{Cdf, Histogram, IntervalSummary, RateAccum, RngSnapshot, SimRng};
use gvc_mem::{OsLite, OsSnapshot, Perms, ProcessId, VRange, LINE_BYTES, PAGE_BYTES};
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

/// One tenant's live soak state. Unlike the service tenant there is no
/// kernel budget, and per-access stall samples live in an epoch-local
/// [`Cdf`] that is folded into the bounded cumulative [`Histogram`] at
/// every epoch boundary.
struct SoakTenant {
    pid: ProcessId,
    region: VRange,
    rng: SimRng,
    /// Wavefronts left in the in-flight kernel (0 = between kernels).
    waves_left: u64,
    /// Accesses left in the in-flight wavefront.
    accesses_left: u64,
    /// Earliest cycle the next kernel may start.
    next_arrival: u64,
    accesses: u64,
    stall_cycles: u64,
    /// Cumulative, exactly-mergeable stall-latency sketch.
    stall_hist: Histogram,
    evictions: u64,
}

impl SoakTenant {
    /// Whether the tenant can issue at `now` (soak tenants always have
    /// queued work; only the arrival gate can stall them).
    fn runnable(&self, now: u64) -> bool {
        self.waves_left > 0 || self.next_arrival <= now
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

/// Per-tenant end-of-soak statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakTenantStats {
    /// The tenant's final ASID.
    pub asid: u16,
    /// Line accesses the tenant issued.
    pub accesses: u64,
    /// Total stall cycles.
    pub stall_cycles: u64,
    /// p99 stall latency from the tenant's bounded histogram sketch
    /// (a conservative bucket upper edge; see [`Histogram::quantile`]).
    pub p99_stall: f64,
    /// Times the tenant was evicted and respawned.
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
    pub per_tenant: Vec<SoakTenantStats>,
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
        let per_tenant_stall: u64 = self.per_tenant.iter().map(|t| t.stall_cycles).sum();
        assert_eq!(
            per_tenant_stall, self.aggregate_stall_cycles,
            "stall conservation: per-tenant sum != aggregate"
        );
        let per_tenant_accesses: u64 = self.per_tenant.iter().map(|t| t.accesses).sum();
        assert_eq!(
            per_tenant_accesses, self.accesses,
            "access conservation: per-tenant sum != aggregate"
        );
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
    paranoid: bool,
    n_cus: usize,
    mem: MemorySystem,
    os: OsLite,
    plan: Option<InjectPlan>,
    tenants: Vec<SoakTenant>,
    outstanding: Vec<Outstanding>,
    now: u64,
    end: u64,
    active: Option<usize>,
    completions: u64,
    evictions: u64,
    context_switches: u64,
    faults: u64,
    aggregate_stall: u64,
    total_accesses: u64,
    /// Epochs closed so far.
    epoch: u64,
    /// Epoch-local raw stall samples (cleared at every boundary).
    epoch_stalls: Cdf,
    /// Epoch-local tallies for the curve point.
    epoch_accesses: u64,
    epoch_stall_cycles: u64,
    epoch_evictions: u64,
    /// Spilled IOMMU rate history (complete intervals only).
    iommu_rate: RateAccum,
    /// Aggregate cumulative stall sketch.
    stall_hist: Histogram,
    /// The per-epoch curve.
    epoch_curve: Vec<EpochPoint>,
}

impl SoakSim {
    /// Builds a soak simulation at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics on a zero tenant count, zero epoch length, zero horizon,
    /// a tenant count exceeding the ASID namespace, or a system config
    /// with lifetime tracking enabled (incompatible with bounded
    /// checkpoints).
    pub fn new(cfg: &SoakConfig, sys: SystemConfig) -> Self {
        assert!(cfg.tenants > 0, "a soak needs at least one tenant");
        assert!(
            cfg.tenants <= gvc_mem::os::MAX_PROCESSES,
            "tenant count exceeds the ASID namespace"
        );
        assert!(cfg.epoch_cycles > 0, "epoch length must be nonzero");
        assert!(cfg.horizon_epochs > 0, "horizon must be nonzero");
        assert!(
            !sys.track_lifetimes,
            "lifetime tracking holds unbounded samples; soak runs must not enable it"
        );
        let paranoid = sys.paranoid;
        let n_cus = sys.n_cus;
        let plan = inject::plan_for(&sys);
        let mem = MemorySystem::new(sys);
        let interval = mem.iommu_sample_interval();

        let frames = cfg.tenants as u64 * (cfg.pages_per_tenant + 16) * 4 + 4096;
        let mut os = OsLite::new(frames * PAGE_BYTES);

        let root = SimRng::seeded(cfg.seed);
        let tenants: Vec<SoakTenant> = (0..cfg.tenants)
            .map(|i| {
                let mut rng = root.fork(i as u64 + 1);
                let pid = os
                    .try_create_process()
                    .expect("tenant count checked against the namespace");
                let region = os
                    .mmap(pid, cfg.pages_per_tenant * PAGE_BYTES, Perms::READ_WRITE)
                    .expect("sized physical memory above");
                let first_arrival = rng.below(cfg.mean_arrival_gap.max(1));
                SoakTenant {
                    pid,
                    region,
                    rng,
                    waves_left: 0,
                    accesses_left: 0,
                    next_arrival: first_arrival,
                    accesses: 0,
                    stall_cycles: 0,
                    stall_hist: Histogram::new(),
                    evictions: 0,
                }
            })
            .collect();

        SoakSim {
            cfg: *cfg,
            paranoid,
            n_cus,
            mem,
            os,
            plan,
            tenants,
            outstanding: (0..n_cus).map(|_| Outstanding::default()).collect(),
            now: 0,
            end: 0,
            active: None,
            completions: 0,
            evictions: 0,
            context_switches: 0,
            faults: 0,
            aggregate_stall: 0,
            total_accesses: 0,
            epoch: 0,
            epoch_stalls: Cdf::new(),
            epoch_accesses: 0,
            epoch_stall_cycles: 0,
            epoch_evictions: 0,
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
        self.epoch_stalls.samples().len()
    }

    /// Resident (unspilled) IOMMU rate-sampler intervals; bounded by
    /// one epoch's worth regardless of the horizon.
    pub fn resident_iommu_rate_intervals(&self) -> usize {
        self.mem.resident_iommu_rate_intervals()
    }

    /// Runs until exactly one more epoch closes (spill, paranoid
    /// sweep, curve point). Returns `true` while more epochs remain.
    ///
    /// # Panics
    ///
    /// Panics if the horizon was already reached, or on any paranoid
    /// invariant violation.
    pub fn run_epoch(&mut self) -> bool {
        assert!(!self.done(), "soak already at its horizon");
        let target = self.epoch + 1;
        while self.epoch < target {
            self.step();
        }
        !self.done()
    }

    /// One scheduling step: either close a pending epoch boundary or
    /// run one quantum slice for the next runnable tenant.
    fn step(&mut self) {
        let boundary = (self.epoch + 1) * self.cfg.epoch_cycles;
        if self.now >= boundary {
            self.close_epoch();
            return;
        }
        // Pick the next runnable tenant, round-robin from the last
        // active one; if every tenant is gated on an arrival, jump the
        // clock to the earliest gate. (The boundary check at the top of
        // the next step keeps epoch closing deterministic even when the
        // clock jumps across one or more boundaries.)
        let start = self.active.map_or(0, |a| a + 1);
        let next = (0..self.cfg.tenants)
            .map(|i| (start + i) % self.cfg.tenants)
            .find(|&i| self.tenants[i].runnable(self.now));
        let Some(idx) = next else {
            self.now = self
                .tenants
                .iter()
                .map(|t| t.next_arrival)
                .min()
                .expect("at least one tenant")
                .max(self.now + 1);
            return;
        };
        if self.active.is_some() && self.active != Some(idx) {
            self.now += self.cfg.context_switch_cycles;
            self.context_switches += 1;
        }
        self.active = Some(idx);

        let cap = self.cfg.max_outstanding_per_cu.max(1);
        let slice_end = self.now + self.cfg.quantum;
        while self.now < slice_end {
            let t = &mut self.tenants[idx];
            if t.waves_left == 0 {
                if t.next_arrival > self.now {
                    break;
                }
                t.waves_left = self.cfg.waves_per_kernel.max(1);
                t.accesses_left = self.cfg.accesses_per_wave.max(1);
            }

            // Issue one coalesced line access for the active tenant.
            let lines = t.region.bytes() / LINE_BYTES;
            let offset = t.rng.below(lines) * LINE_BYTES;
            let cu = t.rng.below(self.n_cus as u64) as usize;
            let is_write = t.rng.chance(self.cfg.write_fraction);
            let at = self.outstanding[cu].admit(Cycle::new(self.now + 1), cap);
            self.now = at.raw();
            let asid = t.pid.asid();
            if let Some(p) = self.plan.as_mut() {
                p.observe(asid, t.region.addr_at(offset).vpn());
            }
            let res = self.mem.access(
                LineAccess {
                    cu,
                    asid,
                    vaddr: t.region.addr_at(offset),
                    is_write,
                    at,
                },
                &self.os,
            );
            if res.fault.is_some() {
                self.faults += 1;
            }
            self.outstanding[cu].track(res.done_at);
            self.end = self.end.max(res.done_at.raw());
            let stall = res.done_at.raw() - at.raw();
            t.accesses += 1;
            t.stall_cycles += stall;
            t.stall_hist.record(stall);
            self.stall_hist.record(stall);
            self.epoch_stalls.push(stall as f64);
            self.epoch_accesses += 1;
            self.epoch_stall_cycles += stall;
            self.total_accesses += 1;
            self.aggregate_stall += stall;

            t.accesses_left -= 1;
            if t.accesses_left == 0 {
                t.waves_left -= 1;
                if t.waves_left > 0 {
                    t.accesses_left = self.cfg.accesses_per_wave.max(1);
                } else {
                    // Kernel complete: schedule the next submission and
                    // run the churn policy.
                    self.completions += 1;
                    let gap = t.rng.range(1, 2 * self.cfg.mean_arrival_gap.max(1));
                    t.next_arrival = self.now + gap;
                    if self.cfg.churn_period > 0
                        && self.completions.is_multiple_of(self.cfg.churn_period)
                    {
                        self.evict_and_respawn(idx);
                        self.evictions += 1;
                        self.epoch_evictions += 1;
                    }
                }
            }

            if let Some(p) = self.plan.as_mut() {
                if let Some(ev) = p.poll() {
                    apply_inject(ev, p, &mut self.os, &mut self.mem, Cycle::new(self.now));
                }
            }
        }
    }

    /// Destroys a tenant's process, applies the full shootdown,
    /// verifies (under paranoid mode) that no state tagged with the
    /// dead ASID survived, and respawns the tenant under the recycled
    /// ASID with a fresh working set.
    fn evict_and_respawn(&mut self, idx: usize) {
        let t = &mut self.tenants[idx];
        let dead = t.pid.asid();
        let sd = self
            .os
            .destroy_process(t.pid)
            .expect("tenant process is live");
        self.mem.apply_shootdown(&sd, Cycle::new(self.now));
        if self.paranoid {
            self.mem.assert_no_asid_residue(dead);
        }
        t.pid = self
            .os
            .try_create_process()
            .expect("the destroyed slot was just freed");
        debug_assert_eq!(t.pid.asid(), dead, "LIFO recycling reuses the dead ASID");
        t.region = self
            .os
            .mmap(
                t.pid,
                self.cfg.pages_per_tenant * PAGE_BYTES,
                Perms::READ_WRITE,
            )
            .expect("eviction freed at least the respawn's frames");
        t.evictions += 1;
    }

    /// Closes the current epoch: records the curve point, spills the
    /// epoch-local samples into the bounded sketches, spills the IOMMU
    /// sampler, and (under paranoid mode) runs the full invariant
    /// sweep. Runs at *every* boundary so the accumulation schedule is
    /// independent of the checkpoint cadence.
    fn close_epoch(&mut self) {
        let boundary = (self.epoch + 1) * self.cfg.epoch_cycles;
        self.epoch_curve.push(EpochPoint {
            epoch: self.epoch,
            accesses: self.epoch_accesses,
            stall_cycles: self.epoch_stall_cycles,
            p99_stall: self.epoch_stalls.quantile(0.99),
            evictions: self.epoch_evictions,
        });
        self.epoch_stalls = Cdf::new();
        self.epoch_accesses = 0;
        self.epoch_stall_cycles = 0;
        self.epoch_evictions = 0;
        self.mem
            .spill_iommu_rate(Cycle::new(boundary), &mut self.iommu_rate);
        if self.paranoid {
            self.mem.check_invariants();
        }
        self.epoch += 1;
    }

    /// Captures a complete, versioned checkpoint. Only valid at an
    /// epoch boundary (between [`SoakSim::run_epoch`] calls), where the
    /// epoch-local sample window is empty by construction.
    ///
    /// # Panics
    ///
    /// Panics if called mid-epoch.
    pub fn snapshot(&self) -> SoakCheckpoint {
        assert!(
            self.epoch_stalls.samples().is_empty() && self.epoch_accesses == 0,
            "soak checkpoints are taken at epoch boundaries"
        );
        SoakCheckpoint {
            version: SOAK_CHECKPOINT_VERSION,
            cfg: self.cfg,
            epoch: self.epoch,
            now: self.now,
            end: self.end,
            active: self.active,
            completions: self.completions,
            evictions: self.evictions,
            context_switches: self.context_switches,
            faults: self.faults,
            aggregate_stall: self.aggregate_stall,
            total_accesses: self.total_accesses,
            mem: self.mem.snapshot(),
            os: self.os.snapshot(),
            plan: self.plan.as_ref().map(InjectPlan::snapshot),
            tenants: self
                .tenants
                .iter()
                .map(|t| SoakTenantSnapshot {
                    asid: t.pid.asid().0,
                    region: t.region,
                    rng: t.rng.snapshot(),
                    waves_left: t.waves_left,
                    accesses_left: t.accesses_left,
                    next_arrival: t.next_arrival,
                    accesses: t.accesses,
                    stall_cycles: t.stall_cycles,
                    stall_hist: t.stall_hist.clone(),
                    evictions: t.evictions,
                })
                .collect(),
            outstanding: self
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
        assert_eq!(
            self.plan.is_some(),
            ckpt.plan.is_some(),
            "soak checkpoint injection-plan presence mismatch"
        );
        assert_eq!(
            self.tenants.len(),
            ckpt.tenants.len(),
            "soak checkpoint tenant count mismatch"
        );
        assert_eq!(
            self.outstanding.len(),
            ckpt.outstanding.len(),
            "soak checkpoint CU count mismatch"
        );
        self.mem.restore(&ckpt.mem);
        self.os.restore(&ckpt.os);
        if let (Some(p), Some(s)) = (self.plan.as_mut(), ckpt.plan.as_ref()) {
            p.restore(s);
        }
        self.tenants = ckpt
            .tenants
            .iter()
            .map(|s| SoakTenant {
                pid: ProcessId(s.asid),
                region: s.region,
                rng: SimRng::from_snapshot(s.rng),
                waves_left: s.waves_left,
                accesses_left: s.accesses_left,
                next_arrival: s.next_arrival,
                accesses: s.accesses,
                stall_cycles: s.stall_cycles,
                stall_hist: s.stall_hist.clone(),
                evictions: s.evictions,
            })
            .collect();
        self.outstanding = ckpt
            .outstanding
            .iter()
            .map(|v| Outstanding::from_sorted(v))
            .collect();
        self.now = ckpt.now;
        self.end = ckpt.end;
        self.active = ckpt.active;
        self.completions = ckpt.completions;
        self.evictions = ckpt.evictions;
        self.context_switches = ckpt.context_switches;
        self.faults = ckpt.faults;
        self.aggregate_stall = ckpt.aggregate_stall;
        self.total_accesses = ckpt.total_accesses;
        self.epoch = ckpt.epoch;
        self.epoch_stalls = Cdf::new();
        self.epoch_accesses = 0;
        self.epoch_stall_cycles = 0;
        self.epoch_evictions = 0;
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
    pub fn finish(self) -> SoakReport {
        assert!(self.done(), "finish() before the soak horizon");
        let horizon = self.cfg.horizon_epochs * self.cfg.epoch_cycles;
        let cycles = self.end.max(horizon);
        let iommu_rate = self
            .mem
            .iommu_rate_with(Cycle::new(cycles), &self.iommu_rate);
        let mut rates = Vec::with_capacity(self.cfg.tenants);
        let per_tenant: Vec<SoakTenantStats> = self
            .tenants
            .iter()
            .map(|t| {
                rates.push(t.accesses as f64 / (1.0 + t.stall_cycles as f64));
                SoakTenantStats {
                    asid: t.pid.asid().0,
                    accesses: t.accesses,
                    stall_cycles: t.stall_cycles,
                    p99_stall: t.stall_hist.quantile(0.99),
                    evictions: t.evictions,
                }
            })
            .collect();
        assert_eq!(
            self.stall_hist.count(),
            self.total_accesses,
            "histogram conservation: merged sketch lost samples"
        );
        assert_eq!(
            self.stall_hist.sum(),
            self.aggregate_stall,
            "histogram conservation: merged sketch lost stall cycles"
        );
        let report = SoakReport {
            design: self.mem.config().label().to_string(),
            tenants: self.cfg.tenants,
            epochs: self.epoch,
            epoch_cycles: self.cfg.epoch_cycles,
            cycles,
            accesses: self.total_accesses,
            throughput: self.total_accesses as f64 * 1000.0 / cycles.max(1) as f64,
            aggregate_stall_cycles: self.aggregate_stall,
            p99_stall: self.stall_hist.quantile(0.99),
            mean_stall: self.stall_hist.mean(),
            fairness: jain_index(&rates),
            evictions: self.evictions,
            context_switches: self.context_switches,
            faults: self.faults,
            iommu_rate,
            injected: self.plan.as_ref().map(InjectPlan::report),
            truncated: false,
            epoch_curve: self.epoch_curve,
            per_tenant,
        };
        if self.paranoid {
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
            self.epoch_stalls.samples().is_empty() && self.epoch_accesses == 0,
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
