//! Figure 10: speedup of the virtual cache hierarchy over a baseline
//! with large (128-entry) fully associative per-CU TLBs and a
//! 16K-entry IOMMU TLB.

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's speedup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// VC time advantage over the large-TLB baseline (>1 = VC faster).
    pub speedup: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10 {
    /// High-bandwidth workloads.
    pub rows: Vec<Row>,
    /// Mean speedup (the paper reports ~1.2x).
    pub avg: f64,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig10 {
    runner.prefetch(&keys_for(
        &WorkloadId::high_bandwidth(),
        &[
            SystemConfig::baseline_large_per_cu_tlbs(),
            SystemConfig::vc_with_opt(),
        ],
        scale,
        seed,
    ));
    let rows: Vec<Row> = WorkloadId::high_bandwidth()
        .into_iter()
        .map(|id| {
            let big_tlbs = runner.run(id, SystemConfig::baseline_large_per_cu_tlbs(), scale, seed);
            let vc = runner.run(id, SystemConfig::vc_with_opt(), scale, seed);
            Row {
                workload: id.name().to_string(),
                speedup: safe_ratio(big_tlbs.cycles as f64, vc.cycles as f64),
            }
        })
        .collect();
    let avg = mean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    Fig10 { rows, avg }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: VC speedup over 128-entry per-CU TLBs + 16K IOMMU TLB"
        )?;
        for r in &self.rows {
            writeln!(f, "{:<14} {:>6.2}x", r.workload, r.speedup)?;
        }
        writeln!(f, "{:<14} {:>6.2}x  (paper: ~1.2x)", "AVERAGE", self.avg)
    }
}
