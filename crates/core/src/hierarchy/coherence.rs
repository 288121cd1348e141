//! TLB shootdowns and CPU coherence probes for every design (§4.1).
//!
//! * **Shootdowns** — in the baseline they invalidate per-CU TLBs and
//!   the shared IOMMU TLB. In the virtual designs they must also
//!   remove cached data whose virtual page died: the FT filters pages
//!   with no cached data; hits lock the BT entry, selectively
//!   invalidate its L2 lines via the bit vector, and broadcast to the
//!   per-CU L1 invalidation filters.
//! * **Probes** — CPU-side coherence requests carry physical
//!   addresses. The baseline indexes its physical L2 directly. The
//!   virtual hierarchy reverse-translates through the backward table,
//!   which doubles as a *coherence filter*: probes to lines the GPU
//!   does not cache are answered at the IOMMU without touching the
//!   GPU at all (like the region buffer of heterogeneous system
//!   coherence).

use super::{MemorySystem, PHYS};
use crate::config::MmuDesign;
use gvc_cache::LineKey;
use gvc_engine::time::{Cycle, Duration};
use gvc_mem::{Shootdown, Vpn, LINES_PER_PAGE};
use gvc_soc::{Probe, ProbeKind};

/// The GPU's answer to a coherence probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResponse {
    /// When the response leaves the GPU/IOMMU boundary.
    pub done_at: Cycle,
    /// Whether the BT filtered the probe (virtual designs only).
    pub filtered: bool,
    /// Whether a cached line was invalidated.
    pub invalidated: bool,
}

impl MemorySystem {
    /// Applies an OS TLB shootdown at `now`; returns when the
    /// acknowledge would be sent.
    pub fn apply_shootdown(&mut self, sd: &Shootdown, now: Cycle) -> Cycle {
        let done = self.apply_shootdown_inner(sd, now);
        if self.cfg.paranoid {
            // Shootdowns are where inclusivity is easiest to break, so
            // force a full sweep instead of waiting for the next one.
            self.steps_since_sweep = 0;
            self.check_invariants();
        }
        done
    }

    fn apply_shootdown_inner(&mut self, sd: &Shootdown, now: Cycle) -> Cycle {
        match sd {
            Shootdown::Pages { asid, vpns } => {
                let mut t = now;
                for vpn in vpns {
                    self.counters.shootdown_pages.inc();
                    t = self.shootdown_one(*asid, *vpn, t);
                }
                t
            }
            // Identical per-page protocol to `Pages` — same counters,
            // same timing — without the O(pages) VPN vector a 2 MB
            // teardown used to materialize per large page.
            Shootdown::Range { asid, start, pages } => {
                let mut t = now;
                for i in 0..*pages {
                    self.counters.shootdown_pages.inc();
                    t = self.shootdown_one(*asid, Vpn::new(start.raw() + i), t);
                }
                t
            }
            Shootdown::AllOf { asid } => {
                self.iommu.shootdown_asid(*asid);
                for tlb in &mut self.tlbs {
                    tlb.invalidate_asid(*asid);
                }
                // In-flight fills for the dead space must die with it:
                // a stale entry would merge a recycled tenant's first
                // miss into the previous tenant's fill timing.
                for inflight in &mut self.tlb_inflight {
                    inflight.retain(|key, _| key.asid() != *asid);
                }
                match self.cfg.design {
                    MmuDesign::Baseline => {}
                    MmuDesign::L1OnlyVirtual => {
                        // Virtual L1s may hold the dead space's lines.
                        for cu in 0..self.cfg.n_cus {
                            self.l1[cu].flush();
                            self.filters[cu].clear();
                            self.counters.l1_flushes.inc();
                        }
                    }
                    MmuDesign::VirtualHierarchy { .. } => {
                        for srt in &mut self.srt {
                            srt.flush();
                        }
                        // All-entry shootdown: cache flush (§4.1).
                        let victims = self.fbt.remove_asid(*asid);
                        for v in victims {
                            self.invalidate_fbt_victim(&v, now);
                        }
                    }
                }
                now + Duration::new(200)
            }
        }
    }

    fn shootdown_one(&mut self, asid: gvc_mem::Asid, vpn: Vpn, now: Cycle) -> Cycle {
        self.iommu.shootdown_page(asid, vpn);
        for tlb in &mut self.tlbs {
            tlb.invalidate(gvc_tlb::tlb::TlbKey::new(asid, vpn));
        }
        let packed = gvc_tlb::tlb::TlbKey::new(asid, vpn).packed();
        self.tlb_inflight.iter_mut().for_each(|m| {
            m.remove(&packed);
        });
        match self.cfg.design {
            MmuDesign::Baseline => now + Duration::new(50),
            MmuDesign::L1OnlyVirtual => {
                // Flush virtual L1s that may hold the page.
                for cu in 0..self.cfg.n_cus {
                    if self.filters[cu].must_flush(asid, vpn) {
                        self.l1[cu].flush();
                        self.filters[cu].clear();
                        self.counters.l1_flushes.inc();
                    } else {
                        self.counters.l1_inval_filtered.inc();
                    }
                }
                now + Duration::new(100)
            }
            MmuDesign::VirtualHierarchy { .. } => {
                for srt in &mut self.srt {
                    srt.flush();
                }
                // The FT filters shootdowns for uncached pages (§4.1).
                if let Some(idx) = self.fbt.lookup_va(asid, vpn) {
                    // Lock, invalidate, release (atomic between
                    // accesses in this timing model).
                    self.fbt.entry_mut(idx).locked = true;
                    let victim = self.fbt.remove(idx);
                    self.invalidate_fbt_victim(&victim, now);
                    now + Duration::new(200)
                } else {
                    self.counters.shootdown_filtered.inc();
                    now + Duration::new(self.cfg.fbt.lookup_latency)
                }
            }
        }
    }

    /// Handles a CPU coherence probe.
    pub fn handle_probe(&mut self, probe: Probe) -> ProbeResponse {
        let resp = self.handle_probe_inner(probe);
        if self.cfg.paranoid {
            self.steps_since_sweep = 0;
            self.check_invariants();
        }
        resp
    }

    fn handle_probe_inner(&mut self, probe: Probe) -> ProbeResponse {
        self.counters.probes.inc();
        let arrive = probe.at + self.noc.dir_to_gpu();
        match self.cfg.design {
            MmuDesign::Baseline | MmuDesign::L1OnlyVirtual => {
                let key = LineKey::new(PHYS, probe.paddr.line_index());
                let mut invalidated = false;
                if probe.kind == ProbeKind::Invalidate {
                    if let Some(line) = self.l2.invalidate(key) {
                        if line.dirty {
                            self.dram.write_line(arrive);
                        }
                        self.counters.probe_invals.inc();
                        invalidated = true;
                    }
                }
                ProbeResponse {
                    done_at: arrive + Duration::new(self.cfg.lat.l2_hit) + self.noc.dir_to_gpu(),
                    filtered: false,
                    invalidated,
                }
            }
            MmuDesign::VirtualHierarchy { .. } => {
                // Reverse translation via the BT; the BT is inclusive,
                // so a miss means the GPU holds nothing (§4.1).
                let t_bt = arrive + Duration::new(self.cfg.fbt.lookup_latency);
                let Some(idx) = self.fbt.lookup_ppn(probe.paddr.ppn()) else {
                    self.counters.probes_filtered.inc();
                    return ProbeResponse {
                        done_at: t_bt,
                        filtered: true,
                        invalidated: false,
                    };
                };
                let line = probe.paddr.line_in_page();
                let e = *self.fbt.entry(idx);
                let mut invalidated = false;
                if e.presence.test(line) && probe.kind == ProbeKind::Invalidate {
                    let lkey = LineKey::new(
                        e.leading.asid,
                        e.leading.vpn.raw() * LINES_PER_PAGE + line as u64,
                    );
                    if let Some(l) = self.l2.invalidate(lkey) {
                        if l.dirty {
                            // Respond with data: forward translation via
                            // the FT provides the physical address.
                            self.dram.write_line(t_bt);
                        }
                        self.fbt.entry_mut(idx).presence.clear(line);
                        self.counters.probe_invals.inc();
                        invalidated = true;
                    }
                }
                ProbeResponse {
                    done_at: t_bt
                        + self.noc.l2_to_iommu_round_trip()
                        + Duration::new(self.cfg.lat.l2_hit),
                    filtered: false,
                    invalidated,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::hierarchy::LineAccess;
    use gvc_mem::{Asid, OsLite, Perms, ProcessId, VRange, PAGE_BYTES};
    use gvc_tlb::tlb::TlbKey;
    use serde::{Deserialize, Serialize};

    fn setup(pages: u64) -> (OsLite, ProcessId, VRange) {
        let mut os = OsLite::new(256 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, pages * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        (os, pid, r)
    }

    fn read(r: &VRange, off: u64, cu: usize, at: u64) -> LineAccess {
        LineAccess {
            cu,
            asid: Asid(0),
            vaddr: r.addr_at(off),
            is_write: false,
            at: Cycle::new(at),
        }
    }

    #[test]
    fn virtual_shootdown_removes_page_everywhere() {
        let (mut os, pid, r) = setup(2);
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        let mut t = 0;
        for line in 0..4u64 {
            t = mem.access(read(&r, line * 128, 0, t), &os).done_at.raw();
        }
        let key = MemorySystem::virt_key(Asid(0), r.start());
        assert!(mem.l2.peek(key).is_some());
        let sd = os
            .munmap(pid, gvc_mem::VRange::new(r.start(), PAGE_BYTES))
            .unwrap();
        mem.apply_shootdown(&sd, Cycle::new(t));
        assert!(mem.l2.peek(key).is_none(), "shot-down page left the L2");
        // The L1 of CU 0 was flushed via its filter.
        assert!(mem.counters().l1_flushes.get() >= 1);
        mem.check_virtual_invariants();
        // Re-accessing faults: the page is gone.
        let res = mem.access(read(&r, 0, 0, t + 10_000), &os);
        assert_eq!(res.fault, Some(super::super::AccessFault::PageFault));
    }

    #[test]
    fn virtual_shootdown_is_filtered_for_uncached_pages() {
        let (mut os, pid, _r) = setup(1);
        let other = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        // Nothing cached; unmapping `other` must be FT-filtered.
        let sd = os.munmap(pid, other).unwrap();
        mem.apply_shootdown(&sd, Cycle::new(0));
        assert_eq!(mem.counters().shootdown_filtered.get(), 1);
        assert_eq!(mem.counters().l1_flushes.get(), 0);
    }

    #[test]
    fn baseline_shootdown_clears_tlbs() {
        let (mut os, pid, r) = setup(2);
        let mut mem = MemorySystem::new(SystemConfig::baseline_512());
        let a = mem.access(read(&r, 0, 0, 0), &os);
        assert_eq!(mem.per_cu_tlb_stats().misses.get(), 1);
        let sd = os
            .munmap(pid, gvc_mem::VRange::new(r.start(), PAGE_BYTES))
            .unwrap();
        mem.apply_shootdown(&sd, a.done_at);
        // Remap so a re-access is legal, then confirm the TLB re-misses.
        let r2 = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let b = mem.access(read(&r2, 0, 0, a.done_at.raw() + 10_000), &os);
        assert!(b.fault.is_none());
        assert_eq!(mem.per_cu_tlb_stats().misses.get(), 2);
    }

    #[test]
    fn bt_filters_probes_to_uncached_lines() {
        let (os, pid, r) = setup(2);
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        let t = mem.access(read(&r, 0, 0, 0), &os).done_at;
        // Probe a *different* (uncached) physical page.
        let (pa_other, _) = os.translate(pid, r.addr_at(PAGE_BYTES)).unwrap();
        let resp = mem.handle_probe(Probe {
            paddr: pa_other,
            kind: ProbeKind::Invalidate,
            at: t,
        });
        assert!(resp.filtered);
        assert!(!resp.invalidated);
        assert_eq!(mem.counters().probes_filtered.get(), 1);
    }

    #[test]
    fn probe_invalidates_through_reverse_translation() {
        let (os, pid, r) = setup(1);
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        let t = mem.access(read(&r, 0, 0, 0), &os).done_at;
        let (pa, _) = os.translate(pid, r.start()).unwrap();
        let resp = mem.handle_probe(Probe {
            paddr: pa,
            kind: ProbeKind::Invalidate,
            at: t,
        });
        assert!(!resp.filtered);
        assert!(resp.invalidated);
        let key = MemorySystem::virt_key(Asid(0), r.start());
        assert!(mem.l2.peek(key).is_none());
        mem.check_virtual_invariants();
    }

    #[test]
    fn downgrade_probe_leaves_line_cached() {
        let (os, pid, r) = setup(1);
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        let t = mem.access(read(&r, 0, 0, 0), &os).done_at;
        let (pa, _) = os.translate(pid, r.start()).unwrap();
        let resp = mem.handle_probe(Probe {
            paddr: pa,
            kind: ProbeKind::Downgrade,
            at: t,
        });
        assert!(!resp.invalidated);
        let key = MemorySystem::virt_key(Asid(0), r.start());
        assert!(mem.l2.peek(key).is_some());
    }

    #[test]
    fn baseline_probe_hits_physical_l2() {
        let (os, pid, r) = setup(1);
        let mut mem = MemorySystem::new(SystemConfig::baseline_512());
        let t = mem.access(read(&r, 0, 0, 0), &os).done_at;
        let (pa, _) = os.translate(pid, r.start()).unwrap();
        let resp = mem.handle_probe(Probe {
            paddr: pa,
            kind: ProbeKind::Invalidate,
            at: t,
        });
        assert!(resp.invalidated);
        assert_eq!(mem.counters().probe_invals.get(), 1);
    }

    #[test]
    fn range_shootdown_is_identical_to_enumerated_pages() {
        // `Shootdown::Range` exists to kill the O(512·N) VPN vectors of
        // large-page teardown storms; it must be observably identical
        // to the `Pages` form — same ack time, same counters, same TLB
        // statistics — in every design.
        for cfg in [
            SystemConfig::baseline_512(),
            SystemConfig::vc_with_opt(),
            SystemConfig::huge(),
        ] {
            let (os, pid, r) = setup(8);
            let mut a = MemorySystem::new(cfg);
            let mut b = MemorySystem::new(cfg);
            let mut t = 0;
            for p in 0..8u64 {
                let acc = read(&r, p * PAGE_BYTES, (p % 4) as usize, t);
                t = a.access(acc, &os).done_at.raw();
                b.access(acc, &os);
            }
            let start = r.start().vpn();
            let vpns: Vec<Vpn> = (0..8).map(|i| Vpn::new(start.raw() + i)).collect();
            let ack_pages = a.apply_shootdown(
                &Shootdown::Pages {
                    asid: pid.asid(),
                    vpns,
                },
                Cycle::new(t),
            );
            let ack_range = b.apply_shootdown(
                &Shootdown::Range {
                    asid: pid.asid(),
                    start,
                    pages: 8,
                },
                Cycle::new(t),
            );
            assert_eq!(ack_pages, ack_range, "{}: ack time diverged", cfg.label());
            assert_eq!(
                a.counters().shootdown_pages.get(),
                b.counters().shootdown_pages.get()
            );
            assert_eq!(
                a.per_cu_tlb_stats(),
                b.per_cu_tlb_stats(),
                "{}: per-CU invalidation counts diverged",
                cfg.label()
            );
            assert_eq!(
                a.iommu.tlb_stats(),
                b.iommu.tlb_stats(),
                "{}: shared-TLB invalidation counts diverged",
                cfg.label()
            );
        }
    }

    #[test]
    fn tlb_inflight_keys_match_reference_across_asid_range() {
        // The per-CU in-flight translation maps store packed keys. Pin
        // the packing at both ends of the ASID and VPN ranges against a
        // sorted reference: lookup, snapshot order and restore, a
        // one-page shootdown and a whole-ASID shootdown.
        use std::collections::BTreeMap;
        let mut mem = MemorySystem::new(SystemConfig::baseline_512());
        let asids = [0, 1, u16::MAX - 1, u16::MAX].map(Asid);
        let vpns = [0, 1, 0x1234, (1 << 36) - 1, (1 << 48) - 1].map(Vpn::new);
        let mut model: Vec<BTreeMap<(u16, u64), Cycle>> = vec![BTreeMap::new(); 2];
        for (cu, m) in model.iter_mut().enumerate() {
            for (i, &asid) in asids.iter().enumerate() {
                for (j, &vpn) in vpns.iter().enumerate() {
                    let done = Cycle::new((cu * 100 + i * 10 + j) as u64 + 1);
                    let key = TlbKey::new(asid, vpn);
                    mem.tlb_inflight[cu].insert(key.packed(), done);
                    m.insert((asid.0, vpn.raw()), done);
                }
            }
        }
        let agree = |mem: &MemorySystem, model: &[BTreeMap<(u16, u64), Cycle>]| {
            let snap = mem.snapshot();
            for (cu, m) in model.iter().enumerate() {
                let want: Vec<(TlbKey, Cycle)> = m
                    .iter()
                    .map(|(&(a, v), &d)| (TlbKey::new(Asid(a), Vpn::new(v)), d))
                    .collect();
                let written: Vec<(TlbKey, Cycle)> =
                    Deserialize::from_value(&snap.tlb_inflight[cu].to_value()).expect("pairs");
                assert_eq!(written, want, "CU {cu} snapshot");
                for (&(a, v), &d) in m {
                    let key = TlbKey::new(Asid(a), Vpn::new(v)).packed();
                    assert_eq!(mem.tlb_inflight[cu].get(&key), Some(&d));
                }
                assert_eq!(mem.tlb_inflight[cu].len(), m.len());
            }
            let decoded = MemorySystem::from_value(&snap.to_value()).expect("decodes");
            let mut fresh = MemorySystem::new(SystemConfig::baseline_512());
            fresh.restore(&decoded);
            assert_eq!(fresh.snapshot(), snap, "restore round trip");
        };
        agree(&mem, &model);
        let (top, last) = (Asid(u16::MAX), vpns[4]);
        mem.apply_shootdown(
            &Shootdown::Pages {
                asid: top,
                vpns: vec![last],
            },
            Cycle::ZERO,
        );
        model.iter_mut().for_each(|m| {
            m.remove(&(top.0, last.raw()));
        });
        agree(&mem, &model);
        mem.apply_shootdown(&Shootdown::AllOf { asid: Asid(0) }, Cycle::ZERO);
        model.iter_mut().for_each(|m| m.retain(|&(a, _), _| a != 0));
        agree(&mem, &model);
    }

    #[test]
    fn all_entry_shootdown_flushes_address_space() {
        let (os, pid, r) = setup(4);
        let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
        let mut t = 0;
        for p in 0..4u64 {
            t = mem
                .access(read(&r, p * PAGE_BYTES, 0, t), &os)
                .done_at
                .raw();
        }
        assert!(mem.l2.len() >= 4);
        mem.apply_shootdown(&Shootdown::AllOf { asid: pid.asid() }, Cycle::new(t));
        assert_eq!(mem.l2.len(), 0);
        assert_eq!(mem.fbt.occupancy(), 0);
        mem.check_virtual_invariants();
    }
}
