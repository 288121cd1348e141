//! The gate: compares result files from alternating runs of a base
//! and a candidate build, one verdict per workload and end-to-end
//! metric.

use crate::record::{RunFile, WorkloadResult, SCHEMA};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, spread};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        })
    }
}

/// Relative change of `cand` against `base`, positive when worse.
fn worsening(base: f64, cand: f64, lower_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let d = (cand - base) / base.abs();
    if lower_is_better {
        d
    } else {
        -d
    }
}

/// One verdict for `base[i]` and `cand[i]` run as pairs:
///
/// * improved: the candidate wins at least 9/10 of the pairs (ties
///   count for neither) and the medians differ by more than the base's
///   interquartile range;
/// * regressed: the candidate's median is worse by more than `bound`,
///   or the candidate loses at least 9/10 of the pairs and the medians
///   differ by more than the base's interquartile range (the mirror
///   image of improved, so a clear slowdown inside the bound is still
///   caught);
/// * unresolved: the base's own spread is wider than `bound`, and not
///   every candidate run beats every base run;
/// * unchanged: none of these.
pub fn verdict(base: &[f64], cand: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = base.len().min(cand.len());
    let wins = base
        .iter()
        .zip(cand)
        .filter(|(b, c)| better(**c, **b))
        .count();
    let losses = base
        .iter()
        .zip(cand)
        .filter(|(b, c)| better(**b, **c))
        .count();
    let clear = |k: usize| pairs > 0 && 10 * k >= 9 * pairs;
    let (q1, q3) = quartiles(base);
    let (mb, mc) = (median(base), median(cand));
    let apart = (mc - mb).abs() > q3 - q1;
    let all_better = cand.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    if clear(wins) && apart {
        Verdict::Improved
    } else if worsening(mb, mc, lower_is_better) > bound || (clear(losses) && apart) {
        Verdict::Regressed
    } else if spread(base) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Every result file in `dir`, in file-name order (which is run order
/// for the files `pairs.sh` writes).
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let file: RunFile =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            if file.schema != SCHEMA {
                return Err(format!(
                    "{}: schema {:?}, expected {SCHEMA}",
                    p.display(),
                    file.schema
                ));
            }
            Ok(file)
        })
        .collect()
}

fn results<'a>(files: &'a [RunFile], workload: &str) -> Vec<&'a WorkloadResult> {
    files
        .iter()
        .flat_map(|f| &f.results)
        .filter(|r| r.workload == workload && !r.traced)
        .collect()
}

fn values(rs: &[&WorkloadResult], m: &MetricSpec) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.metric(&m.name))
        .map(|x| x.value)
        .collect()
}

fn failed_frac(rs: &[&WorkloadResult]) -> f64 {
    let attempted: u64 = rs.iter().map(|r| r.attempted).sum();
    let failed: u64 = rs.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Prints one verdict per workload × end-to-end metric, plus the
/// failed fraction, and returns whether anything regressed.
pub fn compare(spec: &Spec, base: &[RunFile], cand: &[RunFile]) -> bool {
    let mut regressed = false;
    println!(
        "{:<10} {:<12} {:>12} {:>21} {:>12} {:>21} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "base q1..q3", "cand", "cand q1..q3", "change", "w/l"
    );
    for w in &spec.workloads {
        let (b, c) = (results(base, w), results(cand, w));
        if b.is_empty() || c.is_empty() {
            continue;
        }
        for m in &spec.end_to_end {
            let (bv, cv) = (values(&b, m), values(&c, m));
            if bv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &cv, m.lower_is_better, m.bound.unwrap_or(0.0));
            regressed |= v == Verdict::Regressed;
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let wins = bv.iter().zip(&cv).filter(|(b, c)| better(**c, **b)).count();
            let losses = bv.iter().zip(&cv).filter(|(b, c)| better(**b, **c)).count();
            let ((bq1, bq3), (cq1, cq3)) = (quartiles(&bv), quartiles(&cv));
            let (mb, mc) = (median(&bv), median(&cv));
            println!(
                "{w:<10} {:<12} {mb:>12.5} {:>21} {mc:>12.5} {:>21} {:>+7.2}% {:>7}  {v}",
                m.name,
                format!("{bq1:.5}..{bq3:.5}"),
                format!("{cq1:.5}..{cq3:.5}"),
                100.0 * (mc - mb) / mb.abs().max(f64::MIN_POSITIVE),
                format!("{wins}/{losses}"),
            );
        }
        let (fb, fc) = (failed_frac(&b), failed_frac(&c));
        let v = if fc > fb {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        regressed |= v == Verdict::Regressed;
        println!(
            "{w:<10} {:<12} {fb:>12.5} {:>21} {fc:>12.5} {:>21} {:>8} {:>7}  {v}",
            "failed_frac", "", "", "", ""
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    // `irregular` wall_s from `benchmark/results`: ten alternating
    // pairs of the same build (`unchanged`), and ten pairs of that
    // build against itself with `--inject-delay gpu.mem:5`
    // (`selftest`), on a 2-vCPU Xeon VM.
    const SAME_BASE: [f64; 10] = [
        2.5415, 2.6384, 2.6251, 2.6034, 2.3913, 2.4704, 2.5377, 2.7282, 2.7561, 2.6112,
    ];
    const SAME_CAND: [f64; 10] = [
        2.5980, 2.6422, 2.6319, 2.5572, 2.4964, 2.6423, 2.6081, 2.6147, 3.3068, 2.7228,
    ];
    const BASE: [f64; 10] = [
        2.2970, 2.6495, 2.5566, 2.7272, 2.9529, 2.8470, 2.6996, 2.6333, 2.5534, 2.5113,
    ];
    const SLOW: [f64; 10] = [
        2.7043, 2.8301, 2.8457, 2.8108, 3.4644, 3.6792, 2.9415, 3.0380, 2.8379, 2.8844,
    ];
    const BOUND: f64 = 0.24;

    #[test]
    fn injected_slowdown_is_flagged_and_a_rerun_is_not() {
        // +8.5%, inside the bound, but the candidate loses every pair.
        assert_eq!(verdict(&BASE, &SLOW, true, BOUND), Verdict::Regressed);
        assert_eq!(
            verdict(&SAME_BASE, &SAME_CAND, true, BOUND),
            Verdict::Unchanged
        );
        // Mirrored into a higher-is-better metric, the verdict holds.
        let neg = |xs: &[f64]| xs.iter().map(|x| -x).collect::<Vec<_>>();
        assert_eq!(
            verdict(&neg(&BASE), &neg(&SLOW), false, BOUND),
            Verdict::Regressed
        );
        // The other way round it wins every pair, but by less than the
        // slow side's own spread: no claim.
        assert_eq!(verdict(&SLOW, &BASE, true, BOUND), Verdict::Unchanged);
    }

    #[test]
    fn a_worsening_beyond_the_bound_regresses_without_winning_pairs() {
        let cand: Vec<f64> = BASE.iter().rev().map(|x| x * 1.12).collect();
        assert_eq!(verdict(&BASE, &cand, true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_wide_base_is_unresolved_unless_every_candidate_run_wins() {
        let base = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3, 1.1, 0.7, 1.25, 0.95];
        let cand = [1.1, 1.0, 1.3, 0.9, 1.2, 1.0, 1.05, 1.15, 0.85, 1.0];
        assert_eq!(verdict(&base, &cand, true, 0.10), Verdict::Unresolved);
        let fast: Vec<f64> = base.iter().map(|_| 0.5).collect();
        assert_eq!(verdict(&base, &fast, true, 0.10), Verdict::Improved);
    }

    #[test]
    fn identical_sets_are_unchanged() {
        assert_eq!(verdict(&BASE, &BASE, true, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&[3.0], &[3.0], false, 0.05), Verdict::Unchanged);
    }
}
