//! Layer replays: a recorded coalesced line stream fed straight into
//! one layer's public entry point, timed per operation. Each replay
//! isolates one layer's host cost on the workload's own access
//! pattern, which `GpuSim::run` interleaves with everything else.

use crate::probe::{nanos, LineRec};
use crate::record::ratio;
use gvc::{LineAccess, MemorySystem, SystemConfig};
use gvc_cache::{BankedCache, LineKey, SetAssocCache};
use gvc_engine::Cycle;
use gvc_mem::{Asid, OsLite, Perms, Ppn, Vpn};
use gvc_tlb::{Iommu, Tlb, TlbKey};
use std::hint::black_box;
use std::time::Instant;

/// Host ns and operation count per replayed layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replays {
    pub core: (u64, u64),
    pub tlb: (u64, u64),
    pub iommu: (u64, u64),
    pub l1: (u64, u64),
    pub l2: (u64, u64),
}

impl Replays {
    pub fn add(&mut self, o: &Replays) {
        for (a, b) in [
            (&mut self.core, o.core),
            (&mut self.tlb, o.tlb),
            (&mut self.iommu, o.iommu),
            (&mut self.l1, o.l1),
            (&mut self.l2, o.l2),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// ns per operation, 0 for no operations.
pub fn per_op((ns, n): (u64, u64)) -> f64 {
    ratio(ns as f64, n as f64)
}

/// Replays `stream` (issued under `design` against `os`) through:
///
/// * a fresh `MemorySystem` of `design`, one access per cycle, on CU
///   `wave % n_cus` as `GpuSim` places it;
/// * per-CU `Tlb`s of the paper's baseline (lookup, insert on a miss);
/// * the baseline `Iommu::translate`, for the per-CU TLB misses;
/// * per-CU `SetAssocCache` L1s, then the banked L2 for their misses.
pub fn replay(stream: &[LineRec], design: SystemConfig, os: &OsLite) -> Replays {
    let n_cus = design.n_cus;
    let cu = |r: &LineRec| r.wave as usize % n_cus;
    let mut out = Replays::default();

    let mut mem = MemorySystem::new(design);
    let t = Instant::now();
    for (i, r) in stream.iter().enumerate() {
        let access = LineAccess {
            cu: cu(r),
            asid: r.asid,
            vaddr: r.line,
            is_write: r.write,
            at: Cycle::new(i as u64),
        };
        black_box(mem.access(access, os));
    }
    out.core = (nanos(t.elapsed()), stream.len() as u64);

    let base = SystemConfig::baseline_512();
    let mut tlbs: Vec<Tlb> = (0..n_cus).map(|_| Tlb::new(base.per_cu_tlb)).collect();
    let mut misses: Vec<(Asid, Vpn)> = Vec::new();
    let t = Instant::now();
    for (i, r) in stream.iter().enumerate() {
        let (now, vpn) = (Cycle::new(i as u64), r.line.vpn());
        let key = TlbKey::new(r.asid, vpn);
        let tlb = &mut tlbs[cu(r)];
        if tlb.lookup(key, now).is_none() {
            tlb.insert(key, Ppn::new(vpn.raw()), Perms::READ_WRITE, now);
            misses.push((r.asid, vpn));
        }
    }
    out.tlb = (nanos(t.elapsed()), stream.len() as u64);

    let mut iommu = Iommu::new(base.iommu);
    let t = Instant::now();
    for (i, &(asid, vpn)) in misses.iter().enumerate() {
        black_box(iommu.translate(asid, vpn, Cycle::new(i as u64), os, None));
    }
    out.iommu = (nanos(t.elapsed()), misses.len() as u64);

    let mut l1s: Vec<SetAssocCache> = (0..n_cus).map(|_| SetAssocCache::new(base.l1)).collect();
    let mut l1_misses: Vec<(LineKey, bool)> = Vec::new();
    let t = Instant::now();
    for (i, r) in stream.iter().enumerate() {
        let (now, key) = (
            Cycle::new(i as u64),
            LineKey::new(r.asid, r.line.line_index()),
        );
        let l1 = &mut l1s[cu(r)];
        if l1.lookup(key, now).is_none() {
            l1.insert(key, Perms::READ_WRITE, r.write, now);
            l1_misses.push((key, r.write));
        }
    }
    out.l1 = (nanos(t.elapsed()), stream.len() as u64);

    let mut l2 = BankedCache::new(base.l2_bank, base.l2_banks, base.l2_port_width);
    let t = Instant::now();
    for (i, &(key, write)) in l1_misses.iter().enumerate() {
        let at = l2.reserve_port(key, Cycle::new(i as u64));
        if l2.lookup(key, at).is_none() {
            l2.insert(key, Perms::READ_WRITE, write, at);
        }
    }
    out.l2 = (nanos(t.elapsed()), l1_misses.len() as u64);
    out
}
