//! `gvc-check`: the paranoid invariant checker.
//!
//! The paper's correctness argument rests on a small set of structural
//! invariants (§4.1–§4.2): the FBT is fully inclusive of the GPU's
//! virtual caches, every cached line is reachable under its unique
//! *leading* virtual page, and the per-L1 invalidation filters never
//! under-count resident lines. A silent violation would corrupt every
//! figure downstream, so this module makes the invariants executable:
//!
//! * **Paranoid mode** ([`crate::SystemConfig::paranoid`], off by
//!   default): after every [`MemorySystem::access`] the cheap stats
//!   conservation laws are asserted, and every
//!   [`SWEEP_INTERVAL`] accesses — plus after every shootdown and
//!   coherence probe — the full structural sweep
//!   ([`MemorySystem::check_invariants`]) runs.
//! * **Differential oracle** support: [`MemorySystem::dirty_physical_lines`]
//!   exposes the architectural write-back state so a fuzzer can assert
//!   that all of Table 2's designs agree on the final memory image.
//!
//! With `paranoid` off, none of this code runs and behavior is
//! byte-identical to a checker-less build.

use crate::config::MmuDesign;
use crate::hierarchy::{MemorySystem, PHYS};
use gvc_engine::RequestAttribution;
use gvc_mem::{Asid, Vpn, LINES_PER_PAGE, PAGES_PER_LARGE};
use gvc_tlb::{Tlb, TlbKey};
use std::collections::{BTreeSet, HashMap};

/// Accesses between full structural sweeps in paranoid mode. The cheap
/// conservation laws run on every access; the O(resident-lines) sweep
/// is amortized (and additionally forced after every shootdown/probe
/// and at end of run).
pub const SWEEP_INTERVAL: u32 = 64;

/// The trace attribution conservation law, asserted on every traced
/// access in paranoid mode: a request's per-stage latency spans are
/// contiguous and telescoping, so they must be monotone (no stage ends
/// before the previous one), their durations must sum *exactly* to the
/// request's end-to-end latency, and for reads the final stage must
/// land on the completion cycle reported to the caller. Writes are
/// posted — the ack (`done_at`) is decoupled from the downstream
/// pipeline the trace follows — so only the telescoping-sum half
/// applies to them.
///
/// # Panics
///
/// Panics on any violated half of the law.
pub fn check_attribution(attr: &RequestAttribution, is_write: bool) {
    assert!(
        attr.monotone,
        "trace attribution: request {} (cu {}) has a stage ending before \
         its predecessor",
        attr.req, attr.cu
    );
    let wall = attr.end.raw() - attr.start.raw();
    assert_eq!(
        attr.stage_cycles, wall,
        "trace attribution: request {} (cu {}) stage cycles {} != \
         end-to-end latency {} over {} stages",
        attr.req, attr.cu, attr.stage_cycles, wall, attr.stages
    );
    if !is_write {
        assert_eq!(
            attr.end, attr.done_at,
            "trace attribution: read request {} (cu {}) last stage ends at \
             {:?} but completes at {:?} — unattributed cycles",
            attr.req, attr.cu, attr.end, attr.done_at
        );
    }
}

impl MemorySystem {
    /// Whether this design keys its L1s virtually (and therefore
    /// maintains the per-L1 invalidation filters).
    fn l1s_are_virtual(&self) -> bool {
        matches!(
            self.cfg.design,
            MmuDesign::VirtualHierarchy { .. } | MmuDesign::L1OnlyVirtual
        )
    }

    /// The per-access paranoid hook: cheap conservation laws every
    /// step, the full structural sweep every [`SWEEP_INTERVAL`] steps.
    pub(crate) fn paranoid_step(&mut self) {
        self.check_conservation();
        self.steps_since_sweep += 1;
        if self.steps_since_sweep >= SWEEP_INTERVAL {
            self.steps_since_sweep = 0;
            self.check_invariants();
        }
    }

    /// Asserts the stats conservation laws: every lookup is a hit or a
    /// miss, every filter check is a flush or a filtered request, the
    /// IOMMU front end accounts each request exactly once, and every
    /// DRAM line read fills exactly one L2 line.
    ///
    /// # Panics
    ///
    /// Panics on any violated law.
    pub fn check_conservation(&self) {
        for (cu, tlb) in self.tlbs.iter().enumerate() {
            let s = tlb.stats();
            assert_eq!(
                s.hits.get() + s.misses.get(),
                s.lookups.get(),
                "per-CU TLB {cu}: hits+misses != lookups"
            );
            if let Some(r) = tlb.reach_stats() {
                assert_eq!(
                    r.hits.get() + r.misses.get(),
                    r.lookups.get(),
                    "per-CU TLB {cu} reach array: hits+misses != lookups"
                );
            }
        }
        let io = self.iommu.stats();
        assert_eq!(
            io.tlb_hits.get() + io.second_level_hits.get() + io.walks.get(),
            io.requests.get(),
            "IOMMU: hits+second-level-hits+walks != requests"
        );
        assert!(
            io.faults.get() <= io.walks.get(),
            "IOMMU: more faults than walks"
        );
        let iot = self.iommu.tlb().stats();
        assert_eq!(
            iot.hits.get() + iot.misses.get(),
            iot.lookups.get(),
            "IOMMU TLB: hits+misses != lookups"
        );
        if let Some(r) = self.iommu.tlb().reach_stats() {
            assert_eq!(
                r.hits.get() + r.misses.get(),
                r.lookups.get(),
                "IOMMU TLB reach array: hits+misses != lookups"
            );
        }
        for (cu, l1) in self.l1.iter().enumerate() {
            let s = l1.stats();
            assert_eq!(
                s.hits.get() + s.misses.get(),
                s.lookups.get(),
                "L1 {cu}: hits+misses != lookups"
            );
        }
        let l2 = self.l2.stats();
        assert_eq!(
            l2.hits.get() + l2.misses.get(),
            l2.lookups.get(),
            "L2: hits+misses != lookups"
        );
        assert_eq!(
            l2.fills.get(),
            self.dram.reads(),
            "L2 fills != DRAM lines read"
        );
        for (cu, f) in self.filters.iter().enumerate() {
            let s = f.stats();
            assert_eq!(
                s.flushes.get() + s.filtered.get(),
                s.checks.get(),
                "inval filter {cu}: flushes+filtered != checks"
            );
        }
    }

    /// Runs the full structural sweep:
    ///
    /// * the conservation laws ([`MemorySystem::check_conservation`]);
    /// * FBT↔L2 inclusivity in both directions with exact bit-vector
    ///   popcounts ([`MemorySystem::check_virtual_invariants`]), plus
    ///   counter-mode presence counts never under-counting resident
    ///   lines;
    /// * leading-VPN discipline for the virtual L1s: every resident L1
    ///   line's page has a BT entry whose leading virtual address is
    ///   exactly the line's tag (full virtual hierarchy only);
    /// * virtual L1 lines are clean (write-through, §4.2);
    /// * invalidation-filter counts never under-count true per-page L1
    ///   residency (§4.2's correctness requirement).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        self.check_conservation();
        self.check_virtual_invariants();
        self.check_page_size_invariants();

        let is_full_virtual = matches!(self.cfg.design, MmuDesign::VirtualHierarchy { .. });
        if is_full_virtual {
            // Counter-mode presence (large-page mode) is conservative,
            // not exact: it must never under-count resident L2 lines.
            let mut l2_per_page: HashMap<(Asid, u64), u32> = HashMap::new();
            for line in self.l2.iter() {
                *l2_per_page
                    .entry((line.key.asid, line.key.page()))
                    .or_insert(0) += 1;
            }
            for (_, e) in self.fbt.iter() {
                if !e.presence.is_exact() {
                    let resident = l2_per_page
                        .get(&(e.leading.asid, e.leading.vpn.raw()))
                        .copied()
                        .unwrap_or(0);
                    assert!(
                        e.presence.count() >= resident,
                        "counter-mode presence under-counts page {:?}",
                        e.leading
                    );
                }
            }
        }

        if !self.l1s_are_virtual() {
            return;
        }
        for (cu, l1) in self.l1.iter().enumerate() {
            let mut residency: HashMap<(Asid, u64), u32> = HashMap::new();
            for line in l1.iter() {
                assert!(
                    !line.dirty,
                    "CU {cu}: virtual L1 line {:?} is dirty (write-through L1s \
                     must stay clean)",
                    line.key
                );
                if is_full_virtual {
                    let vpn = Vpn::new(line.key.page());
                    let idx = self.fbt.peek_va(line.key.asid, vpn).unwrap_or_else(|| {
                        panic!(
                            "CU {cu}: L1 line {:?} has no FBT entry (FBT must be \
                             fully inclusive of the GPU caches)",
                            line.key
                        )
                    });
                    let e = self.fbt.entry(idx);
                    assert_eq!(e.leading.asid, line.key.asid, "CU {cu}: leading ASID");
                    assert_eq!(e.leading.vpn, vpn, "CU {cu}: leading VPN");
                }
                *residency
                    .entry((line.key.asid, line.key.page()))
                    .or_insert(0) += 1;
            }
            for (&(asid, page), &count) in &residency {
                let filter = self.filters[cu].line_count(asid, Vpn::new(page));
                assert!(
                    filter >= count,
                    "CU {cu}: inval filter counts {filter} lines for page \
                     (asid {asid:?}, vpn {page}) but {count} are resident — an \
                     under-count can skip a required L1 flush"
                );
            }
        }
    }

    /// Page-size invariants for the size-aware (reach) TLBs:
    ///
    /// * every reach tag is span-aligned (the sub-array indexes whole
    ///   blocks, never an interior page);
    /// * for a huge-span array (≥ [`PAGES_PER_LARGE`]) a 2 MB entry and
    ///   any of its 4 KB views never coexist — the walker classifies a
    ///   large-mapped page identically on every fill, and promotion's
    ///   shootdown evicts stale small views before the first large fill
    ///   can land;
    /// * for a coalescing array (span < 2 MB) coexistence is legal —
    ///   a block can be filled before and after it became contiguous —
    ///   but the views must agree: the 4 KB entry's translation must be
    ///   exactly the block translation offset to its page, with equal
    ///   permissions.
    ///
    /// Designs without reach arrays hold this vacuously.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_page_size_invariants(&self) {
        for (cu, tlb) in self.tlbs.iter().enumerate() {
            check_size_aware_tlb(&format!("per-CU TLB {cu}"), tlb);
        }
        check_size_aware_tlb("IOMMU TLB", self.iommu.tlb());
    }

    /// Asserts that every CU's invalidation filter agrees *exactly*
    /// with its L1's true per-page residency (count per page and total
    /// occupancy). This implementation counts exactly (fills increment,
    /// evictions decrement, flushes clear), so any drift is a bug; the
    /// paranoid sweep itself only requires the correctness direction
    /// (never under-counting).
    ///
    /// # Panics
    ///
    /// Panics on any mismatch, or if the design has no virtual L1s.
    pub fn assert_filters_match_l1(&self) {
        assert!(
            self.l1s_are_virtual(),
            "invalidation filters exist only for virtual L1s"
        );
        for (cu, l1) in self.l1.iter().enumerate() {
            let mut residency: HashMap<(Asid, Vpn), u32> = HashMap::new();
            for line in l1.iter() {
                *residency
                    .entry((line.key.asid, Vpn::new(line.key.page())))
                    .or_insert(0) += 1;
            }
            assert_eq!(
                self.filters[cu].occupancy(),
                residency.len(),
                "CU {cu}: filter tracks a different page set than the L1 holds"
            );
            for (&(asid, vpn), &count) in &residency {
                assert_eq!(
                    self.filters[cu].line_count(asid, vpn),
                    count,
                    "CU {cu}: filter count drifted for (asid {asid:?}, {vpn:?})"
                );
            }
        }
    }

    /// Cross-tenant isolation check: asserts the hierarchy holds *no*
    /// state tagged with `asid` — no per-CU or IOMMU TLB entry, no
    /// in-flight TLB fill, no L1/L2 line, no FBT entry, and no
    /// invalidation-filter page count. Run after a tenant's full
    /// shootdown, before its ASID is recycled: any residue found here
    /// is state the next tenant minted under the same ASID could hit,
    /// breaking the "no tenant may ever hit another tenant's lines"
    /// guarantee. Physically keyed lines (ASID [`PHYS`]) belong to
    /// frames, not tenants, and are exempt. The synonym remap tables
    /// are flushed wholesale on every shootdown path and hold no
    /// per-ASID state to inspect.
    ///
    /// # Panics
    ///
    /// Panics on the first piece of residue found.
    pub fn assert_no_asid_residue(&self, asid: Asid) {
        assert_ne!(asid, PHYS, "PHYS is the physical-cache key, not a tenant");
        for (cu, tlb) in self.tlbs.iter().enumerate() {
            for (key, _) in tlb.iter() {
                assert_ne!(
                    key.asid, asid,
                    "CU {cu}: TLB still holds {:?} for a destroyed ASID",
                    key.vpn
                );
            }
            for (key, _) in tlb.iter_reach() {
                assert_ne!(
                    key.asid, asid,
                    "CU {cu}: reach TLB still holds block {:?} for a \
                     destroyed ASID",
                    key.vpn
                );
            }
        }
        for (key, _) in self.iommu.tlb().iter() {
            assert_ne!(
                key.asid, asid,
                "IOMMU TLB still holds {:?} for a destroyed ASID",
                key.vpn
            );
        }
        for (key, _) in self.iommu.tlb().iter_reach() {
            assert_ne!(
                key.asid, asid,
                "IOMMU reach TLB still holds block {:?} for a destroyed ASID",
                key.vpn
            );
        }
        for (cu, inflight) in self.tlb_inflight.iter().enumerate() {
            for &key in inflight.keys() {
                let key = TlbKey::from(key);
                assert_ne!(
                    key.asid, asid,
                    "CU {cu}: in-flight TLB fill for {:?} outlived its ASID",
                    key.vpn
                );
            }
        }
        for (cu, l1) in self.l1.iter().enumerate() {
            for line in l1.iter() {
                assert_ne!(
                    line.key.asid, asid,
                    "CU {cu}: L1 line {} survived its ASID's shootdown",
                    line.key.line
                );
            }
        }
        for line in self.l2.iter() {
            assert_ne!(
                line.key.asid, asid,
                "L2 line {} survived its ASID's shootdown",
                line.key.line
            );
        }
        for (_, e) in self.fbt.iter() {
            assert_ne!(
                e.leading.asid, asid,
                "FBT entry for {:?} survived its ASID's shootdown",
                e.leading.vpn
            );
        }
        for (cu, filter) in self.filters.iter().enumerate() {
            for ((fa, vpn), count) in filter.iter() {
                assert!(
                    fa != asid || count == 0,
                    "CU {cu}: inval filter still counts {count} lines for \
                     {vpn:?} under a destroyed ASID"
                );
            }
        }
    }

    /// The architectural write-back state: the set of *physical* line
    /// indices currently dirty in the hierarchy. Virtual L2 lines are
    /// resolved to physical lines through their page's BT entry (which
    /// the inclusivity invariant guarantees exists); physical L2 lines
    /// are already keyed physically. L1s are write-through and hold no
    /// dirty data.
    ///
    /// Together with the DRAM write-back count this pins down the final
    /// memory image, letting the differential oracle assert that every
    /// Table 2 design produced identical architectural outcomes.
    ///
    /// # Panics
    ///
    /// Panics if a dirty virtual line's page has no FBT entry (an
    /// inclusivity violation).
    pub fn dirty_physical_lines(&self) -> BTreeSet<u64> {
        let mut dirty = BTreeSet::new();
        for line in self.l2.iter() {
            if !line.dirty {
                continue;
            }
            let phys_line = if line.key.asid == PHYS {
                line.key.line
            } else {
                let idx = self
                    .fbt
                    .peek_va(line.key.asid, Vpn::new(line.key.page()))
                    .unwrap_or_else(|| panic!("dirty line {:?} has no FBT entry", line.key));
                let e = self.fbt.entry(idx);
                e.ppn.raw() * LINES_PER_PAGE + line.key.line_in_page() as u64
            };
            dirty.insert(phys_line);
        }
        dirty
    }
}

/// The per-array body of [`MemorySystem::check_page_size_invariants`].
fn check_size_aware_tlb(name: &str, tlb: &Tlb) {
    let Some(span) = tlb.reach_span() else { return };
    let mut blocks: HashMap<(Asid, u64), gvc_tlb::TlbEntry> = HashMap::new();
    for (key, entry) in tlb.iter_reach() {
        assert_eq!(
            key.vpn.raw() % span,
            0,
            "{name}: reach tag {:?} is not {span}-page aligned",
            key.vpn
        );
        blocks.insert((key.asid, key.vpn.raw()), entry);
    }
    if blocks.is_empty() {
        return;
    }
    for (key, entry) in tlb.iter() {
        let base = key.vpn.raw() - key.vpn.raw() % span;
        let Some(block) = blocks.get(&(key.asid, base)) else {
            continue;
        };
        let off = key.vpn.raw() - base;
        if span >= PAGES_PER_LARGE {
            panic!(
                "{name}: 2 MB entry for block {base:#x} coexists with its \
                 4 KB view {:?} (asid {:?}) — a shootdown of one would \
                 leave the other stale",
                key.vpn, key.asid
            );
        }
        assert_eq!(
            entry.ppn.raw(),
            block.ppn.raw() + off,
            "{name}: 4 KB view {:?} translates differently from its \
             coalesced block {base:#x} (asid {:?})",
            key.vpn,
            key.asid
        );
        assert_eq!(
            entry.perms, block.perms,
            "{name}: 4 KB view {:?} and coalesced block {base:#x} disagree \
             on permissions (asid {:?})",
            key.vpn, key.asid
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SystemConfig;
    use crate::hierarchy::{LineAccess, MemorySystem};
    use gvc_engine::time::Cycle;
    use gvc_mem::{OsLite, Perms, PAGE_BYTES};

    fn setup(pages: u64) -> (OsLite, gvc_mem::ProcessId, gvc_mem::VRange) {
        let mut os = OsLite::new(256 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, pages * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        (os, pid, r)
    }

    fn drive(cfg: SystemConfig, pages: u64, accesses: u64) -> MemorySystem {
        let (os, pid, r) = setup(pages);
        let mut mem = MemorySystem::new(cfg);
        let mut t = Cycle::ZERO;
        for i in 0..accesses {
            let off = (i * 128) % r.bytes();
            let res = mem.access(
                LineAccess {
                    cu: (i % 4) as usize,
                    asid: pid.asid(),
                    vaddr: r.addr_at(off),
                    is_write: i % 5 == 0,
                    at: t,
                },
                &os,
            );
            assert!(res.fault.is_none());
            t = res.done_at;
        }
        mem
    }

    #[test]
    fn paranoid_run_passes_on_every_design() {
        for cfg in [
            SystemConfig::ideal_mmu(),
            SystemConfig::baseline_512(),
            SystemConfig::baseline_16k(),
            SystemConfig::vc_without_opt(),
            SystemConfig::vc_with_opt(),
            SystemConfig::l1_only_vc_32(),
            SystemConfig::huge(),
            SystemConfig::coalesced(),
        ] {
            let mem = drive(cfg.with_paranoid(), 16, 300);
            mem.check_invariants();
        }
    }

    #[test]
    fn paranoid_run_passes_with_real_huge_pages() {
        let mut os = OsLite::new(256 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 1, Perms::READ_WRITE).unwrap();
        let small = os.mmap(pid, 16 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        for cfg in [SystemConfig::huge(), SystemConfig::coalesced()] {
            let mut mem = MemorySystem::new(cfg.with_paranoid());
            let mut t = Cycle::ZERO;
            for i in 0..300u64 {
                let range = if i % 3 == 0 { &small } else { &r };
                let res = mem.access(
                    LineAccess {
                        cu: (i % 4) as usize,
                        asid: pid.asid(),
                        vaddr: range.addr_at((i * 4096 + i * 128) % range.bytes()),
                        is_write: i % 5 == 0,
                        at: t,
                    },
                    &os,
                );
                assert!(res.fault.is_none());
                t = res.done_at;
            }
            mem.check_invariants();
            assert!(
                mem.iommu.tlb().reach_len() > 0,
                "huge mapping never reached the size-aware array"
            );
        }
    }

    #[test]
    fn filters_match_l1_exactly_after_traffic() {
        let mem = drive(SystemConfig::vc_with_opt(), 16, 300);
        mem.assert_filters_match_l1();
        let mem = drive(SystemConfig::l1_only_vc_32(), 16, 300);
        mem.assert_filters_match_l1();
    }

    #[test]
    fn dirty_lines_resolve_to_physical_ids() {
        let virt = drive(SystemConfig::vc_with_opt(), 8, 200);
        let base = drive(SystemConfig::baseline_512(), 8, 200);
        // Same trace, no capacity evictions at this size: identical
        // architectural write-back state.
        assert_eq!(virt.dirty_physical_lines(), base.dirty_physical_lines());
        assert!(!virt.dirty_physical_lines().is_empty());
    }

    #[test]
    fn conservation_holds_without_paranoid_flag() {
        let mem = drive(SystemConfig::baseline_512(), 8, 100);
        mem.check_conservation();
    }

    #[test]
    fn destroyed_tenant_leaves_no_residue_on_any_design() {
        for cfg in [
            SystemConfig::ideal_mmu(),
            SystemConfig::baseline_512(),
            SystemConfig::vc_without_opt(),
            SystemConfig::vc_with_opt(),
            SystemConfig::l1_only_vc_32(),
            SystemConfig::huge(),
            SystemConfig::coalesced(),
        ] {
            let (mut os, pid, r) = setup(8);
            let survivor = os.create_process();
            let sr = os
                .mmap(survivor, 4 * PAGE_BYTES, Perms::READ_WRITE)
                .unwrap();
            let mut mem = MemorySystem::new(cfg);
            let mut t = Cycle::ZERO;
            for i in 0..120u64 {
                let (asid, range) = if i % 3 == 0 {
                    (survivor.asid(), &sr)
                } else {
                    (pid.asid(), &r)
                };
                let res = mem.access(
                    LineAccess {
                        cu: (i % 4) as usize,
                        asid,
                        vaddr: range.addr_at((i * 128) % range.bytes()),
                        is_write: i % 5 == 0,
                        at: t,
                    },
                    &os,
                );
                t = res.done_at;
            }
            let sd = os.destroy_process(pid).unwrap();
            mem.apply_shootdown(&sd, t);
            mem.assert_no_asid_residue(pid.asid());
            mem.check_invariants();
        }
    }
}
