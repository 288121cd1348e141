//! Takeaway 3 (§5.3), quantified: estimated energy of the baseline vs
//! the virtual hierarchy, using the nominal per-event model of
//! [`gvc::EnergyModel`].

use crate::runner::{keys_for, safe_ratio, Runner};
use gvc::{EnergyModel, SystemConfig};
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One workload's energy comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Baseline translation energy (nJ).
    pub base_translation_nj: f64,
    /// VC translation energy (nJ).
    pub vc_translation_nj: f64,
    /// Baseline total memory-system energy (nJ).
    pub base_total_nj: f64,
    /// VC total energy (nJ).
    pub vc_total_nj: f64,
}

/// The whole comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Energy {
    /// Per-workload rows.
    pub rows: Vec<Row>,
    /// Aggregate translation-energy ratio (sum VC / sum baseline).
    pub avg_translation_ratio: f64,
    /// Aggregate total-energy ratio.
    pub avg_total_ratio: f64,
}

/// Runs the comparison.
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Energy {
    runner.prefetch(&keys_for(
        &WorkloadId::all(),
        &[SystemConfig::baseline_512(), SystemConfig::vc_with_opt()],
        scale,
        seed,
    ));
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let base = model.estimate(
            &runner
                .run(id, SystemConfig::baseline_512(), scale, seed)
                .mem,
        );
        let vc = model.estimate(&runner.run(id, SystemConfig::vc_with_opt(), scale, seed).mem);
        rows.push(Row {
            workload: id.name().to_string(),
            base_translation_nj: base.translation_nj(),
            vc_translation_nj: vc.translation_nj(),
            base_total_nj: base.total_nj(),
            vc_total_nj: vc.total_nj(),
        });
    }
    let (avg_translation_ratio, avg_total_ratio) = aggregate_ratios(&rows);
    Energy {
        avg_translation_ratio,
        avg_total_ratio,
        rows,
    }
}

/// Aggregate (sum-over-workloads) ratios: an arithmetic mean of
/// per-workload ratios would let the small streaming workloads'
/// increases swamp the graph workloads' order-of-magnitude savings.
/// Degenerate baselines (zero or non-finite sums) yield 0.0 rather
/// than an inf/NaN that would serialize as `null`.
fn aggregate_ratios(rows: &[Row]) -> (f64, f64) {
    let sum = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    (
        safe_ratio(
            sum(&|r| r.vc_translation_nj),
            sum(&|r| r.base_translation_nj),
        ),
        safe_ratio(sum(&|r| r.vc_total_nj), sum(&|r| r.base_total_nj)),
    )
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Energy (Takeaway 3, quantified with nominal per-event costs)"
        )?;
        writeln!(
            f,
            "{:<14} {:>14} {:>13} {:>13} {:>12}",
            "workload", "xlat base nJ", "xlat VC nJ", "total base", "total VC"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>14.0} {:>13.0} {:>13.0} {:>12.0}",
                r.workload,
                r.base_translation_nj,
                r.vc_translation_nj,
                r.base_total_nj,
                r.vc_total_nj
            )?;
        }
        writeln!(
            f,
            "aggregate: VC spends {:.0}% of the baseline's translation energy and {:.0}% of its total memory-system energy",
            self.avg_translation_ratio * 100.0,
            self.avg_total_ratio * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(xlat: (f64, f64), total: (f64, f64)) -> Row {
        Row {
            workload: "w".into(),
            base_translation_nj: xlat.0,
            vc_translation_nj: xlat.1,
            base_total_nj: total.0,
            vc_total_nj: total.1,
        }
    }

    #[test]
    fn translation_ratio_is_sum_weighted_and_finite_on_zero_base() {
        let rows = [
            row((100.0, 10.0), (1.0, 1.0)),
            row((300.0, 90.0), (1.0, 1.0)),
        ];
        let (xlat, _) = aggregate_ratios(&rows);
        assert_eq!(xlat, 0.25, "sum(10+90)/sum(100+300), not mean of ratios");
        // A run that never translated must not poison the JSON with inf.
        let degenerate = [row((0.0, 5.0), (1.0, 1.0))];
        let (xlat, _) = aggregate_ratios(&degenerate);
        assert_eq!(xlat, 0.0);
    }

    #[test]
    fn total_ratio_is_finite_on_zero_and_nonfinite_base() {
        let rows = [row((1.0, 1.0), (200.0, 50.0))];
        let (_, total) = aggregate_ratios(&rows);
        assert_eq!(total, 0.25);
        let (_, total) = aggregate_ratios(&[row((1.0, 1.0), (0.0, 7.0))]);
        assert_eq!(total, 0.0);
        let (_, total) = aggregate_ratios(&[row((1.0, 1.0), (f64::NAN, 7.0))]);
        assert_eq!(total, 0.0);
    }

    #[test]
    fn empty_rows_give_zero_ratios() {
        assert_eq!(aggregate_ratios(&[]), (0.0, 0.0));
    }
}
