//! Design-choice ablations (DESIGN.md §5), beyond the paper's own
//! figures.

use crate::runner::{safe_ratio, RunKey, Runner};
use gvc::{LineAccess, MemorySystem, SystemConfig};
use gvc_engine::Cycle;
use gvc_mem::{OsLite, Perms};
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// All ablation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablations {
    /// FBT capacity sweep: (entries, relative time vs 16K, peak
    /// resident pages, forced L2 line invalidations, forced L1
    /// flushes).
    pub fbt_capacity: Vec<(usize, f64, usize, u64, u64)>,
    /// Bit vector vs counter presence: (mode, cycles, L2 lines
    /// invalidated on FBT evictions).
    pub presence_mode: Vec<(String, u64, u64)>,
    /// Invalidation filter on/off: (enabled, cycles, L1 flushes).
    pub inval_filter: Vec<(bool, u64, u64)>,
    /// Per-CU TLB miss merging on/off: (merged, cycles, IOMMU
    /// requests).
    pub tlb_merge: Vec<(bool, u64, u64)>,
    /// Synonym-rate sensitivity: (alias fraction %, replays without
    /// remapping, replays with §4.3 dynamic remapping, remaps
    /// applied).
    pub synonym_rate: Vec<(u32, u64, u64, u64)>,
}

/// Runs every ablation.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Ablations {
    let wl = WorkloadId::Pagerank;

    // Prefetch every runner.run()-based configuration below in parallel (the
    // synonym sweep drives MemorySystem directly and stays serial).
    let mut configs = vec![SystemConfig::vc_with_opt()];
    for entries in [16 * 1024, 1024, 512, 256, 128] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.fbt = cfg.fbt.with_entries(entries);
        configs.push(cfg);
    }
    for counter in [false, true] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.fbt.counter_mode = counter;
        cfg.fbt = cfg.fbt.with_entries(256);
        configs.push(cfg);
    }
    for enabled in [true, false] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.use_inval_filter = enabled;
        cfg.fbt = cfg.fbt.with_entries(256);
        configs.push(cfg);
    }
    for merged in [true, false] {
        let mut cfg = SystemConfig::baseline_512();
        cfg.merge_tlb_misses = merged;
        configs.push(cfg);
    }
    let keys: Vec<RunKey> = configs
        .into_iter()
        .map(|config| RunKey {
            workload: wl,
            config,
            scale,
            seed,
        })
        .collect();
    runner.prefetch(&keys);

    // 1. FBT capacity: small tables evict live pages and force
    //    invalidations (§4.3 argues 8K suffices).
    let base16k = runner.run(wl, SystemConfig::vc_with_opt(), scale, seed);
    let mut fbt_capacity = Vec::new();
    // Our scaled inputs peak near ~10^3 resident pages (the paper's
    // full-size inputs peak near 6000), so the sweep descends far
    // enough to cross the cliff.
    for entries in [16 * 1024, 1024, 512, 256, 128] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.fbt = cfg.fbt.with_entries(entries);
        let rep = runner.run(wl, cfg, scale, seed);
        fbt_capacity.push((
            entries,
            safe_ratio(rep.cycles as f64, base16k.cycles as f64),
            rep.mem.fbt_max_occupancy,
            rep.mem.counters.fbt_evict_line_invals.get(),
            rep.mem.counters.l1_flushes.get(),
        ));
    }

    // 2. Presence bit vector vs counter (large-page mode).
    let mut presence_mode = Vec::new();
    for counter in [false, true] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.fbt.counter_mode = counter;
        cfg.fbt = cfg.fbt.with_entries(256); // force evictions
        let rep = runner.run(wl, cfg, scale, seed);
        presence_mode.push((
            if counter { "counter" } else { "bitvec" }.to_string(),
            rep.cycles,
            rep.mem.counters.fbt_evict_line_invals.get(),
        ));
    }

    // 3. Invalidation filter.
    let mut inval_filter = Vec::new();
    for enabled in [true, false] {
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.use_inval_filter = enabled;
        cfg.fbt = cfg.fbt.with_entries(256); // force eviction traffic
        let rep = runner.run(wl, cfg, scale, seed);
        inval_filter.push((enabled, rep.cycles, rep.mem.counters.l1_flushes.get()));
    }

    // 4. TLB miss merging (MSHR coalescing vs paper's
    //    every-miss-to-IOMMU upper bound).
    let mut tlb_merge = Vec::new();
    for merged in [true, false] {
        let mut cfg = SystemConfig::baseline_512();
        cfg.merge_tlb_misses = merged;
        let rep = runner.run(wl, cfg, scale, seed);
        tlb_merge.push((merged, rep.cycles, rep.mem.iommu.requests.get()));
    }

    Ablations {
        fbt_capacity,
        presence_mode,
        inval_filter,
        tlb_merge,
        synonym_rate: synonym_sweep(seed),
    }
}

/// Streams reads over a buffer where a varying fraction of accesses
/// go through a synonym alias; measures the replay cost the paper
/// argues is negligible for GPU usage patterns (Observation 5).
fn synonym_sweep(seed: u64) -> Vec<(u32, u64, u64, u64)> {
    let run = |alias_pct: u32, remapping: bool| {
        let mut os = OsLite::new(256 << 20);
        let pid = os.create_process();
        let pages = 512u64;
        let buf = os.mmap(pid, pages * 4096, Perms::READ_WRITE).expect("fits");
        let alias = os.mmap_alias(pid, buf).expect("fits");
        let mut cfg = SystemConfig::vc_with_opt();
        cfg.dynamic_synonym_remapping = remapping;
        let mut mem = MemorySystem::new(cfg);
        let mut t = Cycle::ZERO;
        let mut h = seed | 1;
        for i in 0..40_000u64 {
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            let off = (h % (pages * 4096)) & !127;
            let via_alias = (h >> 32) % 100 < alias_pct as u64;
            let vaddr = if via_alias {
                alias.addr_at(off)
            } else {
                buf.addr_at(off)
            };
            mem.access(
                LineAccess {
                    cu: (i % 16) as usize,
                    asid: pid.asid(),
                    vaddr,
                    is_write: false,
                    at: t,
                },
                &os,
            );
            // Pace the stream like a latency-tolerant GPU: four
            // requests per cycle.
            if i % 4 == 0 {
                t += gvc_engine::Duration::new(1);
            }
        }
        mem.check_virtual_invariants();
        (
            mem.counters().synonym_replays.get(),
            mem.counters().synonym_remaps.get(),
        )
    };
    let mut results = Vec::new();
    for alias_pct in [0u32, 5, 20, 50] {
        let (plain_replays, _) = run(alias_pct, false);
        let (remap_replays, remaps) = run(alias_pct, true);
        results.push((alias_pct, plain_replays, remap_replays, remaps));
    }
    results
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation 1: FBT capacity (pagerank, VC With OPT)")?;
        writeln!(
            f,
            "{:>8} {:>10} {:>10} {:>12} {:>10}",
            "entries", "rel.time", "peak pages", "L2 invals", "L1 flush"
        )?;
        for (e, rel, peak, invals, flushes) in &self.fbt_capacity {
            writeln!(
                f,
                "{:>8} {:>9.2}x {:>10} {:>12} {:>10}",
                e, rel, peak, invals, flushes
            )?;
        }
        writeln!(
            f,
            "\nAblation 2: presence bit vector vs counter (256-entry FBT)"
        )?;
        for (mode, cycles, invals) in &self.presence_mode {
            writeln!(
                f,
                "  {:<8} cycles={:<10} forced L2 invalidations={}",
                mode, cycles, invals
            )?;
        }
        writeln!(f, "\nAblation 3: L1 invalidation filter (256-entry FBT)")?;
        for (on, cycles, flushes) in &self.inval_filter {
            writeln!(
                f,
                "  filter={:<5} cycles={:<10} L1 flushes={}",
                on, cycles, flushes
            )?;
        }
        writeln!(
            f,
            "\nAblation 4: per-CU TLB miss MSHR merging (baseline 512)"
        )?;
        for (merged, cycles, reqs) in &self.tlb_merge {
            writeln!(
                f,
                "  merge={:<5} cycles={:<10} IOMMU requests={}",
                merged, cycles, reqs
            )?;
        }
        writeln!(
            f,
            "\nAblation 5: synonym handling (synthetic aliased stream)"
        )?;
        writeln!(
            f,
            "{:>8} {:>14} {:>14} {:>10}",
            "alias%", "replays", "w/ remapping", "remaps"
        )?;
        for (pct, plain, remapped, remaps) in &self.synonym_rate {
            writeln!(
                f,
                "{:>8} {:>14} {:>14} {:>10}",
                pct, plain, remapped, remaps
            )?;
        }
        Ok(())
    }
}
