//! Figure 8: the virtual cache hierarchy as a bandwidth filter —
//! shared IOMMU TLB accesses per cycle, baseline vs proposal.

use crate::runner::{keys_for, mean, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's before/after access rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Baseline mean IOMMU accesses per cycle.
    pub baseline: f64,
    /// Baseline standard deviation.
    pub baseline_std: f64,
    /// Virtual-hierarchy mean accesses per cycle.
    pub virtual_cache: f64,
    /// Virtual-hierarchy standard deviation.
    pub virtual_std: f64,
    /// Fraction of would-be translation traffic filtered by cache hits.
    pub filter_ratio: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// Per-workload rows.
    pub rows: Vec<Row>,
    /// Mean virtual-hierarchy access rate (the paper reports < 0.3).
    pub avg_virtual: f64,
    /// Mean filter ratio.
    pub avg_filter: f64,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig8 {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[
            SystemConfig::baseline_infinite_bandwidth(),
            SystemConfig::vc_with_opt(),
        ],
        scale,
        seed,
    ));
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let base = runner.run(id, SystemConfig::baseline_infinite_bandwidth(), scale, seed);
        let vc = runner.run(id, SystemConfig::vc_with_opt(), scale, seed);
        rows.push(Row {
            workload: id.name().to_string(),
            baseline: base.mem.iommu_rate.mean_per_cycle(),
            baseline_std: base.mem.iommu_rate.std_dev_per_cycle(),
            virtual_cache: vc.mem.iommu_rate.mean_per_cycle(),
            virtual_std: vc.mem.iommu_rate.std_dev_per_cycle(),
            filter_ratio: vc.mem.filter_ratio(),
        });
    }
    let avg_virtual = mean(&rows.iter().map(|r| r.virtual_cache).collect::<Vec<_>>());
    let avg_filter = mean(&rows.iter().map(|r| r.filter_ratio).collect::<Vec<_>>());
    Fig8 {
        rows,
        avg_virtual,
        avg_filter,
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: IOMMU TLB accesses per cycle — baseline vs virtual cache hierarchy"
        )?;
        writeln!(
            f,
            "{:<14} {:>9} {:>8} {:>9} {:>8} {:>9}",
            "workload", "base", "±sigma", "virtual", "±sigma", "filtered"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>9.3} {:>8.3} {:>9.3} {:>8.3} {:>8.0}%",
                r.workload,
                r.baseline,
                r.baseline_std,
                r.virtual_cache,
                r.virtual_std,
                r.filter_ratio * 100.0
            )?;
        }
        writeln!(
            f,
            "avg virtual-hierarchy rate: {:.3}/cycle (paper: <0.3); avg traffic filtered: {:.0}%",
            self.avg_virtual,
            self.avg_filter * 100.0
        )
    }
}
