//! Figure 2: per-CU TLB miss ratio by TLB size, broken down by where
//! the missing access's data resides (L1 / L2 / memory).

use crate::runner::{keys_for, mean, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The swept per-CU TLB sizes (`None` = infinite, the paper's "inf").
pub const TLB_SIZES: [Option<usize>; 4] = [Some(32), Some(64), Some(128), None];

/// One bar of the figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Per-CU TLB entries (`None` = infinite).
    pub tlb_entries: Option<usize>,
    /// Total per-CU TLB miss ratio (the bar height).
    pub miss_ratio: f64,
    /// Fraction of *accesses* that missed the TLB but hit an L1.
    pub miss_l1_hit: f64,
    /// Fraction that missed the TLB but hit the shared L2.
    pub miss_l2_hit: f64,
    /// Fraction that missed the TLB and went to memory.
    pub miss_l2_miss: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// All bars, workload-major in the paper's order.
    pub rows: Vec<Row>,
    /// Mean fraction of 32-entry-TLB misses filterable by a virtual
    /// hierarchy (the paper reports 66%).
    pub filterable_32: f64,
    /// Same for 128-entry TLBs (the paper reports 65%).
    pub filterable_128: f64,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig2 {
    let configs: Vec<SystemConfig> = TLB_SIZES
        .iter()
        .map(|&e| SystemConfig::baseline_infinite_bandwidth().with_per_cu_tlb_entries(e))
        .collect();
    runner.prefetch(&keys_for(&WorkloadId::all(), &configs, scale, seed));
    let mut rows = Vec::new();
    let mut filt32 = Vec::new();
    let mut filt128 = Vec::new();
    for id in WorkloadId::all() {
        for entries in TLB_SIZES {
            // Infinite IOMMU bandwidth isolates miss behaviour from
            // serialization, as in the paper's measurement.
            let cfg = SystemConfig::baseline_infinite_bandwidth().with_per_cu_tlb_entries(entries);
            let rep = runner.run(id, cfg, scale, seed);
            let ratio = rep.mem.tlb_miss_ratio();
            let (l1, l2, mem_frac) = rep.mem.tlb_miss_breakdown();
            rows.push(Row {
                workload: id.name().to_string(),
                tlb_entries: entries,
                miss_ratio: ratio,
                miss_l1_hit: ratio * l1,
                miss_l2_hit: ratio * l2,
                miss_l2_miss: ratio * mem_frac,
            });
            if entries == Some(32) {
                filt32.push(l1 + l2);
            }
            if entries == Some(128) {
                filt128.push(l1 + l2);
            }
        }
    }
    Fig2 {
        rows,
        filterable_32: mean(&filt32),
        filterable_128: mean(&filt128),
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2: per-CU TLB miss ratio breakdown (fractions of all accesses)"
        )?;
        writeln!(
            f,
            "{:<14} {:>6} {:>8} {:>10} {:>10} {:>10}",
            "workload", "TLB", "miss%", "L1$-hit%", "L2$-hit%", "L2$-miss%"
        )?;
        for r in &self.rows {
            let tlb = r.tlb_entries.map_or("inf".to_string(), |e| e.to_string());
            writeln!(
                f,
                "{:<14} {:>6} {:>8.1} {:>10.1} {:>10.1} {:>10.1}",
                r.workload,
                tlb,
                r.miss_ratio * 100.0,
                r.miss_l1_hit * 100.0,
                r.miss_l2_hit * 100.0,
                r.miss_l2_miss * 100.0,
            )?;
        }
        writeln!(
            f,
            "filterable TLB misses (data in caches): {:.0}% @32 entries (paper: 66%), {:.0}% @128 (paper: 65%)",
            self.filterable_32 * 100.0,
            self.filterable_128 * 100.0
        )
    }
}
