//! Figure 9: performance of the high-translation-bandwidth workloads
//! relative to the IDEAL MMU under the four Table 2 designs, plus the
//! all-workload average and the §4.1 FBT second-level hit statistic.

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's relative performance (IDEAL = 1.0; higher is
/// better, as in the paper's figure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Baseline 512.
    pub baseline_512: f64,
    /// Baseline 16K.
    pub baseline_16k: f64,
    /// VC without the FBT-as-TLB optimization.
    pub vc_without_opt: f64,
    /// VC with the optimization.
    pub vc_with_opt: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9 {
    /// High-bandwidth workloads.
    pub rows: Vec<Row>,
    /// Average over the high-bandwidth set.
    pub avg_high: Row,
    /// Average over all fifteen workloads (the paper's rightmost bars).
    pub avg_all: Row,
    /// Fraction of shared-TLB misses served by the FBT under "VC With
    /// OPT" (the paper reports ~74%).
    pub fbt_second_level_hit_ratio: f64,
}

fn avg_row(name: &str, rows: &[Row]) -> Row {
    Row {
        workload: name.to_string(),
        baseline_512: mean(&rows.iter().map(|r| r.baseline_512).collect::<Vec<_>>()),
        baseline_16k: mean(&rows.iter().map(|r| r.baseline_16k).collect::<Vec<_>>()),
        vc_without_opt: mean(&rows.iter().map(|r| r.vc_without_opt).collect::<Vec<_>>()),
        vc_with_opt: mean(&rows.iter().map(|r| r.vc_with_opt).collect::<Vec<_>>()),
    }
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig9 {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[
            SystemConfig::ideal_mmu(),
            SystemConfig::baseline_512(),
            SystemConfig::baseline_16k(),
            SystemConfig::vc_without_opt(),
            SystemConfig::vc_with_opt(),
        ],
        scale,
        seed,
    ));
    let mut all_rows = Vec::new();
    let mut fbt_ratios = Vec::new();
    for id in WorkloadId::all() {
        let ideal = runner
            .run(id, SystemConfig::ideal_mmu(), scale, seed)
            .cycles as f64;
        let vc_opt = runner.run(id, SystemConfig::vc_with_opt(), scale, seed);
        let perf =
            |cfg: SystemConfig| safe_ratio(ideal, runner.run(id, cfg, scale, seed).cycles as f64);
        fbt_ratios.push(vc_opt.mem.fbt_second_level_hit_ratio());
        all_rows.push((
            id,
            Row {
                workload: id.name().to_string(),
                baseline_512: perf(SystemConfig::baseline_512()),
                baseline_16k: perf(SystemConfig::baseline_16k()),
                vc_without_opt: perf(SystemConfig::vc_without_opt()),
                vc_with_opt: safe_ratio(ideal, vc_opt.cycles as f64),
            },
        ));
    }
    let high: Vec<Row> = all_rows
        .iter()
        .filter(|(id, _)| WorkloadId::high_bandwidth().contains(id))
        .map(|(_, r)| r.clone())
        .collect();
    let all: Vec<Row> = all_rows.into_iter().map(|(_, r)| r).collect();
    Fig9 {
        avg_high: avg_row("Average(high)", &high),
        avg_all: avg_row("Average(ALL)", &all),
        rows: high,
        fbt_second_level_hit_ratio: mean(&fbt_ratios),
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: performance relative to IDEAL MMU (1.0 = ideal; higher is better)"
        )?;
        writeln!(
            f,
            "{:<14} {:>9} {:>9} {:>9} {:>9}",
            "workload", "Base512", "Base16K", "VC w/o", "VC+OPT"
        )?;
        let line = |f: &mut fmt::Formatter<'_>, r: &Row| {
            writeln!(
                f,
                "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                r.workload, r.baseline_512, r.baseline_16k, r.vc_without_opt, r.vc_with_opt
            )
        };
        for r in &self.rows {
            line(f, r)?;
        }
        line(f, &self.avg_high)?;
        line(f, &self.avg_all)?;
        writeln!(
            f,
            "FBT serves {:.0}% of shared-TLB misses under VC With OPT (paper: ~74%)",
            self.fbt_second_level_hit_ratio * 100.0
        )
    }
}
