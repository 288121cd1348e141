//! `repro reach`: translation *reach* (huge pages / coalescing) vs
//! translation *filtering* (virtual caches), and the two combined.
//!
//! The paper's position (§6 related work) is that growing TLB reach —
//! 2 MB pages, or coalesced contiguity-aware entries in the style of
//! "Enabling Large-Reach TLBs" — attacks the same translation-bandwidth
//! problem the virtual hierarchy filters away. This figure puts both
//! on one axis: every workload runs under the baseline, the two
//! reach-only presets ([`SystemConfig::huge`],
//! [`SystemConfig::coalesced`]), the filter-only design
//! ([`SystemConfig::vc_with_opt`]), and the composed designs, all
//! normalized to the IDEAL MMU.

use crate::runner::{keys_for, mean, safe_ratio, Runner};
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's relative performance (IDEAL = 1.0; higher is
/// better).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Baseline 512 (no reach, no filter).
    pub baseline: f64,
    /// 2 MB transparent huge pages (reach only).
    pub huge: f64,
    /// Coalesced 8-page reach entries (reach only).
    pub coalesced: f64,
    /// Virtual hierarchy with the FBT optimization (filter only).
    pub vc: f64,
    /// Filter and 2 MB reach combined.
    pub vc_huge: f64,
    /// Filter and coalescing combined.
    pub vc_coalesced: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reach {
    /// All fifteen workloads.
    pub rows: Vec<Row>,
    /// Average over all workloads.
    pub avg: Row,
    /// Fraction of shared-TLB hits served by the 2 MB reach array
    /// under "Huge 2M", averaged over workloads (how much of the
    /// translation stream the reach entries absorb).
    pub huge_reach_hit_share: f64,
    /// Fraction of would-be translations filtered by the virtual
    /// caches under "VC + Huge 2M", averaged over workloads.
    pub vc_huge_filter_ratio: f64,
}

/// The design axis, in presentation order.
fn designs() -> [SystemConfig; 6] {
    [
        SystemConfig::baseline_512(),
        SystemConfig::huge(),
        SystemConfig::coalesced(),
        SystemConfig::vc_with_opt(),
        SystemConfig::vc_with_opt().with_reach_tlbs(gvc_mem::PAGES_PER_LARGE),
        SystemConfig::vc_with_opt().with_reach_tlbs(8),
    ]
}

fn avg_row(rows: &[Row]) -> Row {
    let col = |f: fn(&Row) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
    Row {
        workload: "Average".to_string(),
        baseline: col(|r| r.baseline),
        huge: col(|r| r.huge),
        coalesced: col(|r| r.coalesced),
        vc: col(|r| r.vc),
        vc_huge: col(|r| r.vc_huge),
        vc_coalesced: col(|r| r.vc_coalesced),
    }
}

/// An IDEAL MMU run over the transparent-huge-page virtual layout:
/// the denominator for the THP columns. The placement policy pads and
/// aligns allocations, so the huge-page designs see a different
/// address stream than the 4 KB designs — each column is normalized
/// against the ideal run of *its own* layout so the ratios isolate
/// translation cost from layout effects.
fn ideal_thp() -> SystemConfig {
    let mut cfg = SystemConfig::ideal_mmu();
    cfg.transparent_huge_pages = true;
    cfg
}

/// Runs the experiment.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Reach {
    let mut cfgs = vec![SystemConfig::ideal_mmu(), ideal_thp()];
    cfgs.extend(designs());
    runner.prefetch(&keys_for(&WorkloadId::all(), &cfgs, scale, seed));
    let [base, huge, coalesced, vc, vc_huge, vc_coalesced] = designs();
    let mut rows = Vec::new();
    let mut reach_shares = Vec::new();
    let mut filter_ratios = Vec::new();
    for id in WorkloadId::all() {
        let ideal = runner
            .run(id, SystemConfig::ideal_mmu(), scale, seed)
            .cycles as f64;
        let ideal_2m = runner.run(id, ideal_thp(), scale, seed).cycles as f64;
        let perf =
            |cfg: SystemConfig| safe_ratio(ideal, runner.run(id, cfg, scale, seed).cycles as f64);
        let huge_rep = runner.run(id, huge, scale, seed);
        let hr = huge_rep
            .mem
            .iommu_tlb_reach
            .as_ref()
            .expect("huge preset carries a reach array");
        let hits = huge_rep.mem.iommu_tlb.hits.get() + hr.hits.get();
        reach_shares.push(if hits == 0 {
            0.0
        } else {
            hr.hits.get() as f64 / hits as f64
        });
        filter_ratios.push(runner.run(id, vc_huge, scale, seed).mem.filter_ratio());
        rows.push(Row {
            workload: id.name().to_string(),
            baseline: perf(base),
            huge: safe_ratio(ideal_2m, huge_rep.cycles as f64),
            coalesced: perf(coalesced),
            vc: perf(vc),
            vc_huge: safe_ratio(ideal_2m, runner.run(id, vc_huge, scale, seed).cycles as f64),
            vc_coalesced: perf(vc_coalesced),
        });
    }
    Reach {
        avg: avg_row(&rows),
        rows,
        huge_reach_hit_share: mean(&reach_shares),
        vc_huge_filter_ratio: mean(&filter_ratios),
    }
}

impl fmt::Display for Reach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Reach vs filter: performance relative to IDEAL MMU over the same layout (1.0 = ideal; higher is better)"
        )?;
        writeln!(
            f,
            "{:<14} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}",
            "workload", "Base512", "Huge2M", "Coalesce", "VC+OPT", "VC+Huge", "VC+Coal"
        )?;
        let line = |f: &mut fmt::Formatter<'_>, r: &Row| {
            writeln!(
                f,
                "{:<14} {:>8.2} {:>8.2} {:>9.2} {:>8.2} {:>8.2} {:>9.2}",
                r.workload, r.baseline, r.huge, r.coalesced, r.vc, r.vc_huge, r.vc_coalesced
            )
        };
        for r in &self.rows {
            line(f, r)?;
        }
        line(f, &self.avg)?;
        writeln!(
            f,
            "2 MB reach entries serve {:.0}% of shared-TLB hits under Huge 2M",
            self.huge_reach_hit_share * 100.0
        )?;
        writeln!(
            f,
            "virtual caches still filter {:.0}% of translations under VC + Huge 2M",
            self.vc_huge_filter_ratio * 100.0
        )
    }
}
