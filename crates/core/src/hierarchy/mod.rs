//! The memory-side timing model: one [`MemorySystem`] per simulated
//! run, configured as any of the paper's MMU designs.
//!
//! The GPU front end (`gvc-gpu`) feeds line-granular [`LineAccess`]es
//! (already coalesced) in nondecreasing time order; the memory system
//! computes each access's completion time by walking it through the
//! configured hierarchy, reserving bandwidth on every port it crosses
//! (see `gvc-engine`'s resource-reservation timing style). State —
//! TLBs, tags, the FBT — updates in program order.
//!
//! Submodules implement the three organizations:
//!
//! * [`baseline`] — per-CU TLBs + physical L1/L2 (Figure 1); also the
//!   IDEAL MMU (infinite TLBs, unlimited IOMMU bandwidth).
//! * [`virtual_hier`] — the proposal: virtual L1s + virtual L2, no
//!   per-CU TLBs, translation and synonym resolution at the IOMMU/FBT
//!   only on L2 misses (Figure 6).
//! * [`l1only`] — virtual L1s over a physical L2 (§5.4's comparison).
//! * [`coherence`] — CPU probes and TLB shootdowns for all designs.

pub mod baseline;
pub mod coherence;
pub mod l1only;
pub mod virtual_hier;

use crate::config::{MmuDesign, SystemConfig};
use crate::fbt::Fbt;
use crate::remap::RemapTable;
use crate::report::{HierCounters, MemReport};
use gvc_cache::{BankedCache, InvalFilter, LifetimeTracker, LineKey, MshrFile, SetAssocCache};
use gvc_engine::time::{Cycle, Duration, Frequency};
use gvc_engine::{IntervalSummary, RateAccum, SortedMap, TraceCause, TraceHandle};
use gvc_mem::{Asid, AsidKey, OsLite, Perms, Ppn, VAddr, LINES_PER_PAGE};
use gvc_soc::{Directory, Dram, Noc};
use gvc_tlb::iommu::Iommu;
use gvc_tlb::tlb::{Tlb, TlbKey, TlbStats};
use serde::{Deserialize, Serialize};

/// The ASID under which physical caches key their lines.
pub(crate) const PHYS: Asid = Asid(u16::MAX);

/// One coalesced, line-granular memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Issuing compute unit.
    pub cu: usize,
    /// Issuing address space.
    pub asid: Asid,
    /// Any virtual address within the accessed line.
    pub vaddr: VAddr,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
    /// When the access leaves the coalescer.
    pub at: Cycle,
}

/// Why an access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessFault {
    /// The page is not mapped.
    PageFault,
    /// The page's permissions do not allow the access.
    PermissionDenied,
    /// A read-write synonym was detected and the configured policy
    /// faults (§4.2).
    ReadWriteSynonym,
}

/// The completion of a [`LineAccess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// When the access's data (or posted-write acknowledge) reaches
    /// the CU.
    pub done_at: Cycle,
    /// The fault, if the access failed.
    pub fault: Option<AccessFault>,
}

impl AccessResult {
    pub(crate) fn ok(done_at: Cycle) -> Self {
        AccessResult {
            done_at,
            fault: None,
        }
    }

    pub(crate) fn fault(done_at: Cycle, fault: AccessFault) -> Self {
        AccessResult {
            done_at,
            fault: Some(fault),
        }
    }
}

/// Lifetime trackers for Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifetimes {
    /// Per-CU TLB entry residence times.
    pub tlb: LifetimeTracker,
    /// L1 line active lifetimes.
    pub l1: LifetimeTracker,
    /// L2 line active lifetimes.
    pub l2: LifetimeTracker,
}

impl Lifetimes {
    fn new(clock: Frequency) -> Self {
        Lifetimes {
            tlb: LifetimeTracker::new(clock),
            l1: LifetimeTracker::new(clock),
            l2: LifetimeTracker::new(clock),
        }
    }
}

/// The memory system (see [module docs](self)).
///
/// ```
/// use gvc::{LineAccess, MemorySystem, SystemConfig};
/// use gvc_engine::Cycle;
/// use gvc_mem::{OsLite, Perms};
///
/// let mut os = OsLite::new(64 << 20);
/// let pid = os.create_process();
/// let region = os.mmap(pid, 64 * 4096, Perms::READ_WRITE)?;
///
/// let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
/// let access = LineAccess {
///     cu: 0,
///     asid: pid.asid(),
///     vaddr: region.start(),
///     is_write: false,
///     at: Cycle::new(0),
/// };
/// let first = mem.access(access, &os);
/// assert!(first.fault.is_none());
/// // The second access hits the virtual L1: no translation at all.
/// let second = mem.access(LineAccess { at: first.done_at, ..access }, &os);
/// assert!(second.done_at < first.done_at + gvc_engine::Duration::new(10));
/// # Ok::<(), gvc_mem::MemError>(())
/// ```
///
/// The memory system is its own checkpoint. The NoC (pure configuration),
/// lifetime trackers and trace sink (observation only) are not written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) l1: Vec<SetAssocCache>,
    pub(crate) l1_mshr: Vec<MshrFile>,
    pub(crate) l2: BankedCache,
    pub(crate) l2_mshr: MshrFile,
    pub(crate) dram: Dram,
    pub(crate) dir: Directory,
    #[serde(skip)]
    pub(crate) noc: Noc,
    pub(crate) iommu: Iommu,
    /// Per-CU TLBs (baseline and L1-only designs).
    pub(crate) tlbs: Vec<Tlb>,
    /// Per-CU in-flight translation fills (page-grain MSHRs), keyed
    /// by packed [`TlbKey`] so a bucket is 16 bytes.
    pub(crate) tlb_inflight: Vec<SortedMap<AsidKey, Cycle, TlbKey>>,
    /// Per-CU watermark: the latest fill completion ever registered in
    /// `tlb_inflight[cu]`. Once the clock passes it, no entry can
    /// still be in flight and the hash probe is skipped.
    pub(crate) tlb_inflight_until: Vec<Cycle>,
    /// The forward–backward table (virtual designs).
    pub(crate) fbt: Fbt,
    /// Per-CU L1 invalidation filters (virtual L1 designs).
    pub(crate) filters: Vec<InvalFilter>,
    /// Per-CU dynamic synonym remapping tables (§4.3, optional).
    pub(crate) srt: Vec<RemapTable>,
    pub(crate) counters: HierCounters,
    #[serde(skip)]
    pub(crate) lifetimes: Option<Lifetimes>,
    /// Accesses processed since the last full paranoid sweep (see
    /// [`crate::check`]).
    pub(crate) steps_since_sweep: u32,
    /// Accesses left in the active FBT-pressure window (fault
    /// injection); 0 = no window. See [`MemorySystem::inject_fbt_pressure`].
    fbt_pressure_left: u32,
    /// Optional trace sink (attached post-construction; never part of
    /// the config, memo keys, or reports).
    #[serde(skip)]
    pub(crate) trace: Option<TraceHandle>,
}

impl MemorySystem {
    /// Builds a memory system for `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let lifetimes = cfg
            .track_lifetimes
            .then(|| Lifetimes::new(Frequency::default()));
        let mut iommu = Iommu::new(cfg.iommu);
        if let Some(ic) = cfg.inject {
            if ic.fault_ppm > 0 || ic.spike_ppm > 0 {
                iommu.set_inject(gvc_tlb::iommu::WalkInjectConfig {
                    seed: ic.walker_seed(),
                    fault_ppm: ic.fault_ppm,
                    spike_ppm: ic.spike_ppm,
                    spike_cycles: ic.spike_cycles,
                });
            }
        }
        MemorySystem {
            l1: (0..cfg.n_cus).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l1_mshr: (0..cfg.n_cus).map(|_| MshrFile::new()).collect(),
            l2: BankedCache::new(cfg.l2_bank, cfg.l2_banks, cfg.l2_port_width),
            l2_mshr: MshrFile::new(),
            dram: Dram::new(cfg.dram),
            dir: Directory::default(),
            noc: Noc::new(cfg.noc),
            iommu,
            tlbs: (0..cfg.n_cus).map(|_| Tlb::new(cfg.per_cu_tlb)).collect(),
            tlb_inflight: (0..cfg.n_cus).map(|_| SortedMap::default()).collect(),
            tlb_inflight_until: vec![Cycle::ZERO; cfg.n_cus],
            fbt: Fbt::new(cfg.fbt),
            filters: (0..cfg.n_cus).map(|_| InvalFilter::new()).collect(),
            srt: (0..cfg.n_cus).map(|_| RemapTable::new(cfg.remap)).collect(),
            counters: HierCounters::default(),
            lifetimes,
            steps_since_sweep: 0,
            fbt_pressure_left: 0,
            trace: None,
            cfg,
        }
    }

    /// Attaches a shared trace sink for cycle-attributed tracing; the
    /// same sink is handed to the IOMMU so a request's cursor stays
    /// continuous across the CU → IOMMU → CU round trip. Observational
    /// only: timing, stats, and reports are untouched.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.iommu.attach_trace(trace.clone());
        self.trace = Some(trace);
    }

    /// Emits a stage span ending at `end` when tracing is on.
    pub(crate) fn tr_stage(&self, cause: TraceCause, end: Cycle) {
        if let Some(t) = &self.trace {
            t.stage(cause, end);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Protocol counters so far.
    pub fn counters(&self) -> &HierCounters {
        &self.counters
    }

    /// The FBT (virtual designs; empty otherwise).
    pub fn fbt(&self) -> &Fbt {
        &self.fbt
    }

    /// Lifetime trackers, when enabled.
    pub fn lifetimes_mut(&mut self) -> Option<&mut Lifetimes> {
        self.lifetimes.as_mut()
    }

    /// Opens an FBT capacity-pressure window (fault injection): new
    /// FBT allocations are squeezed into `ways` ways for the next
    /// `window` accesses, forcing the §4.2 overflow/flush path, after
    /// which full capacity returns. A second call before the window
    /// closes restarts it.
    pub fn inject_fbt_pressure(&mut self, ways: usize, window: u32) {
        self.fbt.set_usable_ways(ways);
        self.fbt_pressure_left = window.max(1);
        self.counters.fbt_pressure_windows.inc();
    }

    /// Issues one line access. Accesses must be fed in nondecreasing
    /// `at` order.
    ///
    /// # Panics
    ///
    /// Panics if `access.cu` is out of range.
    pub fn access(&mut self, access: LineAccess, os: &OsLite) -> AccessResult {
        assert!(access.cu < self.cfg.n_cus, "CU {} out of range", access.cu);
        if self.fbt_pressure_left > 0 {
            self.fbt_pressure_left -= 1;
            if self.fbt_pressure_left == 0 {
                self.fbt.set_usable_ways(self.cfg.fbt.ways);
            }
        }
        self.counters.accesses.inc();
        if access.is_write {
            self.counters.writes.inc();
        } else {
            self.counters.reads.inc();
        }
        // Open a trace request unless the GPU front end already did
        // (it begins at wave issue to also attribute coalescing).
        if let Some(tr) = &self.trace {
            if !tr.has_active() {
                tr.begin_request(access.cu as u32, access.at);
            }
        }
        let result = match self.cfg.design {
            MmuDesign::Baseline => self.access_baseline(access, os),
            MmuDesign::VirtualHierarchy {
                fbt_as_second_level,
            } => self.access_virtual(access, os, fbt_as_second_level),
            MmuDesign::L1OnlyVirtual => self.access_l1only(access, os),
        };
        if let Some(tr) = &self.trace {
            let attr = tr.end_request(result.done_at);
            if self.cfg.paranoid {
                crate::check::check_attribution(&attr, access.is_write);
            }
        }
        if self.cfg.paranoid {
            self.paranoid_step();
        }
        result
    }

    // ------------------------------------------------------------------
    // Shared helpers.
    // ------------------------------------------------------------------

    /// Fetches a line from the memory side (directory lookup + DRAM).
    pub(crate) fn fetch_line(&mut self, at: Cycle) -> Cycle {
        let dir_done = self.dir.fetch(at);
        let done = self.dram.read_line(dir_done);
        self.tr_stage(TraceCause::Dram, done);
        done
    }

    /// The physical line key for `ppn` + the in-page line of `va`.
    pub(crate) fn phys_key(ppn: Ppn, va: VAddr) -> LineKey {
        LineKey::new(PHYS, ppn.raw() * LINES_PER_PAGE + va.line_in_page() as u64)
    }

    /// The virtual line key for an access.
    pub(crate) fn virt_key(asid: Asid, va: VAddr) -> LineKey {
        LineKey::new(asid, va.line_index())
    }

    /// Pending-fill wait for a *hit* at `now` on a resident `line`.
    ///
    /// Every `MshrFile::register` in this module is paired with a
    /// cache insert of the same key at the same cycle, so a resident
    /// line's `inserted_at` equals its registered fill-completion
    /// time. Once that time has passed — the common steady-state case
    /// — `pending` is provably `None` and the hash probe is skipped.
    /// A line still in flight delegates to [`MshrFile::pending`] so
    /// the MSHR file's pruning behaves exactly as before.
    #[inline]
    pub(crate) fn hit_fill_wait(
        mshr: &MshrFile,
        line: &gvc_cache::CacheLine,
        key: LineKey,
        now: Cycle,
    ) -> Option<Cycle> {
        if line.inserted_at > now {
            mshr.pending(key, now)
        } else {
            None
        }
    }

    /// Inserts into a physical L2; dirty victims write back.
    pub(crate) fn insert_l2_physical(&mut self, key: LineKey, dirty: bool, now: Cycle) {
        if let Some(victim) = self.l2.insert(key, Perms::READ_WRITE, dirty, now) {
            if victim.dirty {
                self.dram.write_line(now);
            }
            if let Some(lt) = self.lifetimes.as_mut() {
                lt.l2.record_line(&victim);
            }
        }
    }

    /// Inserts into a CU's L1; updates the invalidation filter when
    /// the L1 is virtual.
    pub(crate) fn insert_l1(
        &mut self,
        cu: usize,
        key: LineKey,
        perms: Perms,
        now: Cycle,
        virtual_l1: bool,
    ) {
        if virtual_l1 && self.l1[cu].peek(key).is_none() {
            self.filters[cu].line_filled(key.asid, gvc_mem::Vpn::new(key.page()));
        }
        if let Some(victim) = self.l1[cu].insert(key, perms, false, now) {
            if virtual_l1 {
                self.filters[cu]
                    .line_evicted(victim.key.asid, gvc_mem::Vpn::new(victim.key.page()));
            }
            if let Some(lt) = self.lifetimes.as_mut() {
                lt.l1.record_line(&victim);
            }
        }
    }

    /// Per-CU TLB translation (baseline and L1-only designs). Returns
    /// the translation, when it is usable, and whether this access
    /// missed the TLB.
    pub(crate) fn translate_per_cu(
        &mut self,
        cu: usize,
        asid: Asid,
        vpn: gvc_mem::Vpn,
        t: Cycle,
        os: &OsLite,
    ) -> Result<(Ppn, Perms, Cycle, bool), (Cycle, AccessFault)> {
        let key = TlbKey::new(asid, vpn);
        let packed = key.packed();
        let lookup_done = t + Duration::new(self.cfg.lat.per_cu_tlb);
        // A translation fill still in flight means this access *misses*:
        // the hardware entry is not valid yet. With MSHR-style merging
        // it rides the outstanding IOMMU request; in the paper's model
        // (the default) it issues its own IOMMU request and waits for
        // its own response.
        if lookup_done < self.tlb_inflight_until[cu] {
            if let Some(&d) = self.tlb_inflight[cu].get(&packed) {
                if d > lookup_done {
                    if let Some(e) = self.tlbs[cu].peek(key) {
                        self.tlbs[cu].record_merged_miss();
                        if self.cfg.merge_tlb_misses {
                            self.tr_stage(TraceCause::TlbLookup, lookup_done);
                            self.tr_stage(TraceCause::MshrWait, d);
                            return Ok((e.ppn, e.perms, d, true));
                        }
                        self.tr_stage(TraceCause::TlbLookup, lookup_done);
                        let io_arrival = lookup_done + self.noc.cu_to_iommu();
                        self.tr_stage(TraceCause::Noc, io_arrival);
                        let resp = self.iommu.translate(asid, vpn, io_arrival, os, None);
                        let ready = resp.done_at + self.noc.cu_to_iommu();
                        self.tr_stage(TraceCause::Noc, ready);
                        return Ok((e.ppn, e.perms, ready, true));
                    }
                }
            }
        }
        if let Some(e) = self.tlbs[cu].lookup(key, t) {
            self.tr_stage(TraceCause::TlbLookup, lookup_done);
            return Ok((e.ppn, e.perms, lookup_done, false));
        }
        self.tr_stage(TraceCause::TlbLookup, lookup_done);
        let io_arrival = lookup_done + self.noc.cu_to_iommu();
        self.tr_stage(TraceCause::Noc, io_arrival);
        let resp = self.iommu.translate(asid, vpn, io_arrival, os, None);
        let Some((ppn, perms)) = resp.outcome.translation() else {
            self.counters.page_faults.inc();
            let fault_done = resp.done_at + self.noc.cu_to_iommu();
            self.tr_stage(TraceCause::Noc, fault_done);
            return Err((fault_done, AccessFault::PageFault));
        };
        let ready = resp.done_at + self.noc.cu_to_iommu();
        self.tr_stage(TraceCause::Noc, ready);
        if let Some(evicted) = self.tlbs[cu].insert_sized(key, ppn, perms, ready, resp.large) {
            if let Some(lt) = self.lifetimes.as_mut() {
                lt.tlb.record_cycles(evicted.lifetime());
            }
        }
        self.tlb_inflight_until[cu] = self.tlb_inflight_until[cu].max(ready);
        self.tlb_inflight[cu].insert(packed, ready);
        if self.tlb_inflight[cu].len() > 1024 {
            let horizon = ready;
            self.tlb_inflight[cu].retain(|_, &mut d| d > horizon);
        }
        Ok((ppn, perms, ready, true))
    }

    /// Aggregated per-CU TLB statistics.
    pub(crate) fn per_cu_tlb_stats(&self) -> TlbStats {
        let mut agg = TlbStats::default();
        for t in &self.tlbs {
            agg.merge(&t.stats());
        }
        agg
    }

    /// Aggregated per-CU reach sub-array statistics, when the per-CU
    /// TLBs are page-size aware.
    pub(crate) fn per_cu_tlb_reach_stats(&self) -> Option<TlbStats> {
        let mut agg = None;
        for s in self.tlbs.iter().filter_map(Tlb::reach_stats) {
            agg.get_or_insert_with(TlbStats::default).merge(&s);
        }
        agg
    }

    /// Finalizes the run at `end`: flushes resident lifetimes (when
    /// tracked) and snapshots every statistic into a [`MemReport`].
    pub fn finish(&mut self, end: Cycle) -> MemReport {
        let mut lifetime_curves = None;
        if let Some(lt) = &mut self.lifetimes {
            let resident_l1: Vec<_> = self.l1.iter().flat_map(|c| c.iter()).collect();
            let resident_l2: Vec<_> = self.l2.iter().collect();
            let resident_tlb: Vec<_> = self
                .tlbs
                .iter()
                .flat_map(|t| t.iter())
                .map(|(_, e)| e.inserted_at)
                .collect();
            for line in resident_l1 {
                lt.l1.record_line(&line);
            }
            for line in resident_l2 {
                lt.l2.record_line(&line);
            }
            for inserted in resident_tlb {
                lt.tlb.record_interval(inserted, end);
            }
            // Evaluate the Figure 12 CDFs at fixed nanosecond points.
            let xs_ns: Vec<f64> = (0..=32).map(|i| i as f64 * 1250.0).collect();
            lifetime_curves = Some(crate::report::LifetimeCurves {
                tlb: lt.tlb.cdf_at_ns(&xs_ns),
                l1: lt.l1.cdf_at_ns(&xs_ns),
                l2: lt.l2.cdf_at_ns(&xs_ns),
                samples: (lt.tlb.len(), lt.l1.len(), lt.l2.len()),
                xs_ns,
            });
        }
        let mut l1 = gvc_cache::CacheStats::default();
        for c in &self.l1 {
            l1.merge(&c.stats());
        }
        let is_virtual = matches!(self.cfg.design, MmuDesign::VirtualHierarchy { .. });
        MemReport {
            design: self.cfg.label().to_string(),
            config: self.cfg,
            end,
            per_cu_tlb: self.per_cu_tlb_stats(),
            iommu: self.iommu.stats(),
            iommu_tlb: self.iommu.tlb_stats(),
            per_cu_tlb_reach: self.per_cu_tlb_reach_stats(),
            iommu_tlb_reach: self.iommu.tlb_reach_stats(),
            iommu_rate: self.iommu.access_rate(end),
            pwc: self.iommu.pwc_stats(),
            l1,
            l2: self.l2.stats(),
            fbt: is_virtual.then(|| self.fbt.stats()),
            fbt_max_occupancy: self.fbt.max_occupancy(),
            counters: self.counters,
            dram_reads: self.dram.reads(),
            dram_writes: self.dram.writes(),
            lifetimes: lifetime_curves,
        }
    }

    /// Spills completed IOMMU access-rate intervals before `up_to`
    /// into `acc`, keeping the resident sampler bounded on
    /// long-horizon runs (see [`gvc_engine::IntervalSampler::spill_into`]).
    /// Returns the number of intervals drained.
    pub fn spill_iommu_rate(&mut self, up_to: Cycle, acc: &mut RateAccum) -> u64 {
        self.iommu.spill_access_rate(up_to, acc)
    }

    /// Summarizes the IOMMU access rate over a spilled long-horizon
    /// run: `acc` carries the spilled history, the resident window is
    /// folded in.
    pub fn iommu_rate_with(&self, end: Cycle, acc: &RateAccum) -> IntervalSummary {
        self.iommu.access_rate_with(end, acc)
    }

    /// The IOMMU sampler's interval length, for building a matching
    /// [`RateAccum`].
    pub fn iommu_sample_interval(&self) -> gvc_engine::time::Duration {
        self.iommu.sample_interval()
    }

    /// Resident (unspilled) IOMMU rate-sampler intervals — the
    /// quantity the bounded-memory soak contract is about.
    pub fn resident_iommu_rate_intervals(&self) -> usize {
        self.iommu.resident_rate_intervals()
    }

    /// This memory system as a checkpoint: a copy without the trace
    /// sink.
    ///
    /// # Panics
    ///
    /// Panics if lifetime tracking is enabled — `LifetimeTracker`
    /// holds unbounded sample vectors, which a bounded-memory
    /// checkpoint must not carry.
    pub fn snapshot(&self) -> MemorySystem {
        assert!(
            self.lifetimes.is_none(),
            "cannot snapshot a memory system with lifetime tracking enabled"
        );
        MemorySystem {
            iommu: self.iommu.snapshot(),
            trace: None,
            ..self.clone()
        }
    }

    /// Restores `snap`. The system must have been built from the same
    /// [`SystemConfig`]; build fresh with [`MemorySystem::new`] and
    /// then restore. The trace sink and lifetime trackers stay.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's configuration, any per-CU list's
    /// length, or any component geometry does not match.
    pub fn restore(&mut self, snap: &MemorySystem) {
        assert_eq!(self.cfg, snap.cfg, "memory system snapshot config mismatch");
        let cus = self.l1.len();
        for (part, len) in [
            ("l1", snap.l1.len()),
            ("l1_mshr", snap.l1_mshr.len()),
            ("tlbs", snap.tlbs.len()),
            ("tlb_inflight", snap.tlb_inflight.len()),
            ("tlb_inflight_until", snap.tlb_inflight_until.len()),
            ("filters", snap.filters.len()),
            ("srt", snap.srt.len()),
        ] {
            assert_eq!(len, cus, "snapshot CU count mismatch in {part}");
        }
        for (c, s) in self.l1.iter_mut().zip(&snap.l1) {
            c.restore(s);
        }
        self.l1_mshr.clone_from(&snap.l1_mshr);
        self.l2.restore(&snap.l2);
        self.l2_mshr.clone_from(&snap.l2_mshr);
        self.dram.restore(&snap.dram);
        self.dir.restore(&snap.dir);
        self.iommu.restore(&snap.iommu);
        for (t, s) in self.tlbs.iter_mut().zip(&snap.tlbs) {
            t.restore(s);
        }
        self.tlb_inflight.clone_from(&snap.tlb_inflight);
        self.tlb_inflight_until.clone_from(&snap.tlb_inflight_until);
        self.fbt.restore(&snap.fbt);
        self.filters.clone_from(&snap.filters);
        for (r, s) in self.srt.iter_mut().zip(&snap.srt) {
            r.restore(s);
        }
        self.counters = snap.counters;
        self.steps_since_sweep = snap.steps_since_sweep;
        self.fbt_pressure_left = snap.fbt_pressure_left;
    }

    /// Verifies the cross-structure invariants of the virtual
    /// hierarchy (used by tests and the property harness):
    ///
    /// * the FBT's FT and BT agree ([`Fbt::check_consistency`]);
    /// * every L2 line's page has a BT entry whose leading VA matches
    ///   the line's tag and whose presence bit for that line is set;
    /// * every set presence bit corresponds to a resident L2 line
    ///   (exact-mode entries only);
    /// * no two L2 lines alias the same physical line (the
    ///   leading-virtual-address discipline).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_virtual_invariants(&self) {
        if !matches!(self.cfg.design, MmuDesign::VirtualHierarchy { .. }) {
            return;
        }
        self.fbt.check_consistency();
        // L2 -> BT direction.
        let lines: Vec<LineKey> = self.l2.iter().map(|l| l.key).collect();
        let mut phys_seen = std::collections::HashSet::new();
        for key in lines {
            let vpn = gvc_mem::Vpn::new(key.page());
            let idx = self
                .fbt
                .peek_va(key.asid, vpn)
                .unwrap_or_else(|| panic!("L2 line {key:?} has no FBT entry"));
            let e = self.fbt.entry(idx);
            assert_eq!(e.leading.asid, key.asid, "leading ASID mismatch");
            assert_eq!(e.leading.vpn, vpn, "leading VPN mismatch");
            assert!(
                e.presence.test(key.line_in_page()),
                "L2 line {key:?} missing from presence"
            );
            assert!(
                phys_seen.insert((e.ppn, key.line_in_page())),
                "physical line cached under two names"
            );
        }
        // BT -> L2 direction (exact presence only).
        let entries: Vec<(gvc_mem::Asid, gvc_mem::Vpn, Vec<u32>)> = self
            .fbt
            .iter()
            .filter(|(_, e)| e.presence.is_exact())
            .map(|(_, e)| {
                (
                    e.leading.asid,
                    e.leading.vpn,
                    e.presence.iter_set().collect(),
                )
            })
            .collect();
        for (asid, vpn, set_lines) in entries {
            for line in set_lines {
                let key = LineKey::new(asid, vpn.raw() * LINES_PER_PAGE + line as u64);
                assert!(
                    self.l2.peek(key).is_some(),
                    "presence bit set for absent L2 line {key:?}"
                );
            }
        }
    }
}
