//! Figure 11: L1-only virtual caches versus the whole virtual
//! hierarchy — speedup relative to the Baseline-16K physical design.

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The figure's three bars plus the derived whole-vs-L1-only gain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11 {
    /// L1-only VC with 32-entry per-CU TLBs.
    pub l1_only_32: f64,
    /// L1-only VC with 128-entry per-CU TLBs.
    pub l1_only_128: f64,
    /// The whole virtual hierarchy (L1 + L2).
    pub l1_l2: f64,
    /// Whole hierarchy over the better L1-only design (the paper
    /// reports ~1.31x).
    pub whole_over_l1_only: f64,
    /// Per-workload speedups for the three designs.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig11 {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[
            SystemConfig::baseline_16k(),
            SystemConfig::l1_only_vc_32(),
            SystemConfig::l1_only_vc_128(),
            SystemConfig::vc_with_opt(),
        ],
        scale,
        seed,
    ));
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let cycles = |cfg| runner.run(id, cfg, scale, seed).cycles as f64;
        let base = cycles(SystemConfig::baseline_16k());
        let s32 = safe_ratio(base, cycles(SystemConfig::l1_only_vc_32()));
        let s128 = safe_ratio(base, cycles(SystemConfig::l1_only_vc_128()));
        let sfull = safe_ratio(base, cycles(SystemConfig::vc_with_opt()));
        rows.push((id.name().to_string(), s32, s128, sfull));
    }
    let l1_only_32 = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
    let l1_only_128 = mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
    let l1_l2 = mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
    Fig11 {
        l1_only_32,
        l1_only_128,
        l1_l2,
        whole_over_l1_only: l1_l2 / l1_only_32.max(l1_only_128).max(1e-12),
        rows,
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: speedup relative to Baseline 16K")?;
        writeln!(
            f,
            "{:<14} {:>10} {:>11} {:>9}",
            "workload", "L1-VC(32)", "L1-VC(128)", "L1&L2"
        )?;
        for (name, a, b, c) in &self.rows {
            writeln!(f, "{:<14} {:>9.2}x {:>10.2}x {:>8.2}x", name, a, b, c)?;
        }
        writeln!(
            f,
            "{:<14} {:>9.2}x {:>10.2}x {:>8.2}x",
            "AVERAGE", self.l1_only_32, self.l1_only_128, self.l1_l2
        )?;
        writeln!(
            f,
            "whole hierarchy over L1-only: {:.2}x (paper: ~1.31x; L1-only alone: ~1.35x over baseline)",
            self.whole_over_l1_only
        )
    }
}
