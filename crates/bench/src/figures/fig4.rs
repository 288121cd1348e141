//! Figure 4: GPU address-translation overhead over all workloads —
//! relative execution time of the small- and large-IOMMU-TLB baselines
//! against the IDEAL MMU, split into serialization and page-walk
//! components.

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's relative execution times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Baseline 512-entry IOMMU TLB time / IDEAL time.
    pub small_iommu: f64,
    /// Baseline 16K-entry IOMMU TLB time / IDEAL time.
    pub large_iommu: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// Per-workload rows.
    pub rows: Vec<Row>,
    /// Mean relative time, small IOMMU TLB (the paper reports 1.77x).
    pub avg_small: f64,
    /// Mean relative time, large IOMMU TLB.
    pub avg_large: f64,
    /// Mean serialization component: (large - 1), since capacity is
    /// removed as a factor.
    pub serialization_overhead: f64,
    /// Mean page-walk/capacity component: (small - large).
    pub ptw_overhead: f64,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig4 {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[
            SystemConfig::ideal_mmu(),
            SystemConfig::baseline_512(),
            SystemConfig::baseline_16k(),
        ],
        scale,
        seed,
    ));
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let cycles = |cfg| runner.run(id, cfg, scale, seed).cycles as f64;
        let ideal = cycles(SystemConfig::ideal_mmu());
        let small = safe_ratio(cycles(SystemConfig::baseline_512()), ideal);
        let large = safe_ratio(cycles(SystemConfig::baseline_16k()), ideal);
        rows.push(Row {
            workload: id.name().to_string(),
            small_iommu: small,
            large_iommu: large,
        });
    }
    let avg_small = mean(&rows.iter().map(|r| r.small_iommu).collect::<Vec<_>>());
    let avg_large = mean(&rows.iter().map(|r| r.large_iommu).collect::<Vec<_>>());
    Fig4 {
        rows,
        avg_small,
        avg_large,
        serialization_overhead: avg_large - 1.0,
        ptw_overhead: avg_small - avg_large,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4: relative execution time vs IDEAL MMU (all workloads)"
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>12}",
            "workload", "small(512)", "large(16K)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>11.0}% {:>11.0}%",
                r.workload,
                r.small_iommu * 100.0,
                r.large_iommu * 100.0
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>11.0}% {:>11.0}%   (paper: 177% small)",
            "AVERAGE",
            self.avg_small * 100.0,
            self.avg_large * 100.0
        )?;
        writeln!(
            f,
            "decomposition: serialization {:+.0}%, PTW/capacity {:+.0}% — serialization dominates: {}",
            self.serialization_overhead * 100.0,
            self.ptw_overhead * 100.0,
            self.serialization_overhead > self.ptw_overhead
        )
    }
}
