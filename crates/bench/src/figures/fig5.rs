//! Figure 5: serialization overhead for high-translation-bandwidth
//! workloads as the IOMMU TLB's peak bandwidth sweeps 1–4 accesses per
//! cycle (16K-entry TLB isolates the bandwidth effect).

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bandwidth point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// IOMMU TLB accesses per cycle.
    pub bandwidth: u32,
    /// Mean relative execution time vs IDEAL across the high-BW set.
    pub relative_time: f64,
    /// The serialization overhead (relative time − 1).
    pub overhead: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// Overhead at each swept bandwidth.
    pub points: Vec<Point>,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig5 {
    let ids = WorkloadId::high_bandwidth();
    let mut configs = vec![SystemConfig::ideal_mmu()];
    configs.extend((1..=4u32).map(|bw| SystemConfig::baseline_16k().with_iommu_port_width(bw)));
    runner.prefetch(&keys_for(&ids, &configs, scale, seed));
    let ideal: Vec<f64> = ids
        .iter()
        .map(|&id| {
            runner
                .run(id, SystemConfig::ideal_mmu(), scale, seed)
                .cycles as f64
        })
        .collect();
    let mut points = Vec::new();
    for bw in 1..=4u32 {
        let rel: Vec<f64> = ids
            .iter()
            .zip(&ideal)
            .map(|(&id, &base)| {
                let cfg = SystemConfig::baseline_16k().with_iommu_port_width(bw);
                safe_ratio(runner.run(id, cfg, scale, seed).cycles as f64, base)
            })
            .collect();
        let relative_time = mean(&rel);
        points.push(Point {
            bandwidth: bw,
            relative_time,
            overhead: relative_time - 1.0,
        });
    }
    Fig5 { points }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: serialization overhead vs IOMMU TLB peak bandwidth (high-BW workloads, 16K-entry TLB)")?;
        writeln!(
            f,
            "{:>10} {:>14} {:>12}",
            "accesses/c", "rel. time", "overhead"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>10} {:>13.0}% {:>11.0}%",
                p.bandwidth,
                p.relative_time * 100.0,
                p.overhead * 100.0
            )?;
        }
        let monotone = self
            .points
            .windows(2)
            .all(|w| w[1].overhead <= w[0].overhead + 1e-9);
        writeln!(f, "overhead shrinks with bandwidth: {monotone}")
    }
}
