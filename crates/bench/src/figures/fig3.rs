//! Figure 3: IOMMU TLB accesses per cycle (mean ± σ and max over 1 µs
//! samples) with 32-entry per-CU TLBs and unlimited IOMMU bandwidth.

use crate::runner::{keys_for, Runner};
use gvc::SystemConfig;
use gvc_workloads::{BandwidthClass, Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's access-rate statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Mean accesses per cycle across 1 µs samples.
    pub mean: f64,
    /// One standard deviation.
    pub std_dev: f64,
    /// Maximum accesses per cycle in any sample (the paper's red dots).
    pub max: f64,
    /// The paper's bandwidth classification.
    pub high_bandwidth: bool,
}

/// The whole figure, sorted by decreasing mean as in the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// Per-workload rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig3 {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[SystemConfig::baseline_infinite_bandwidth()],
        scale,
        seed,
    ));
    let mut rows: Vec<Row> = WorkloadId::all()
        .into_iter()
        .map(|id| {
            let rep = runner.run(id, SystemConfig::baseline_infinite_bandwidth(), scale, seed);
            Row {
                workload: id.name().to_string(),
                mean: rep.mem.iommu_rate.mean_per_cycle(),
                std_dev: rep.mem.iommu_rate.std_dev_per_cycle(),
                max: rep.mem.iommu_rate.max_per_cycle(),
                high_bandwidth: id.bandwidth_class() == BandwidthClass::High,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.mean.partial_cmp(&a.mean).expect("finite"));
    Fig3 { rows }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: IOMMU TLB accesses per cycle (infinite bandwidth, 32-entry per-CU TLBs)"
        )?;
        writeln!(
            f,
            "{:<14} {:>8} {:>8} {:>8}  class",
            "workload", "mean", "±sigma", "max"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>8.3} {:>8.3} {:>8.3}  {}",
                r.workload,
                r.mean,
                r.std_dev,
                r.max,
                if r.high_bandwidth { "high" } else { "low" }
            )?;
        }
        Ok(())
    }
}
