//! Figure 12 (appendix): relative lifetime of pages in each level of
//! the cache hierarchy versus per-CU TLB entries, on `bfs`.
//!
//! The paper's observation: 90% of TLB entries are evicted within
//! ~5000 ns, while much of the data in the L1 — and even more in the
//! larger L2 — is still actively used, which is why virtual caches
//! filter TLB misses so effectively.

use crate::runner::Runner;
use gvc::report::LifetimeCurves;
use gvc::SystemConfig;
use gvc_workloads::{Scale, WorkloadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The figure's three CDF curves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12 {
    /// The curves from the `bfs` baseline run.
    pub curves: LifetimeCurves,
    /// Fraction of TLB entries living less than 5 µs (paper: ~90%).
    pub tlb_short_lived: f64,
    /// Fraction of L1 data still active past 5 µs (paper: ~40%).
    pub l1_still_active: f64,
    /// Fraction of L2 data still active past 5 µs (paper: ~60%).
    pub l2_still_active: f64,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the tracking run produced no lifetime curves (cannot
/// happen: the configuration enables tracking).
pub fn collect(runner: &Runner, scale: Scale, seed: u64) -> Fig12 {
    let cfg = SystemConfig::baseline_512().with_lifetimes();
    let rep = runner.run(WorkloadId::Bfs, cfg, scale, seed);
    let curves = rep.mem.lifetimes.expect("lifetime tracking enabled");
    let at = |cdf: &[f64], ns: f64| {
        let idx = curves
            .xs_ns
            .iter()
            .position(|&x| x >= ns)
            .unwrap_or(curves.xs_ns.len() - 1);
        cdf[idx]
    };
    Fig12 {
        tlb_short_lived: at(&curves.tlb, 5000.0),
        l1_still_active: 1.0 - at(&curves.l1, 5000.0),
        l2_still_active: 1.0 - at(&curves.l2, 5000.0),
        curves,
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 12: lifetime CDFs on bfs (fraction of population <= x)"
        )?;
        writeln!(
            f,
            "{:>9} {:>9} {:>9} {:>9}",
            "ns", "TLB", "L1 data", "L2 data"
        )?;
        for (i, x) in self.curves.xs_ns.iter().enumerate() {
            if i % 4 == 0 {
                writeln!(
                    f,
                    "{:>9.0} {:>9.2} {:>9.2} {:>9.2}",
                    x, self.curves.tlb[i], self.curves.l1[i], self.curves.l2[i]
                )?;
            }
        }
        writeln!(
            f,
            "samples: tlb={} l1={} l2={}",
            self.curves.samples.0, self.curves.samples.1, self.curves.samples.2
        )?;
        writeln!(
            f,
            "at 5 us: {:.0}% of TLB entries already evicted (paper ~90%), {:.0}% of L1 data (paper ~40%) and {:.0}% of L2 data (paper ~60%) still active",
            self.tlb_short_lived * 100.0,
            self.l1_still_active * 100.0,
            self.l2_still_active * 100.0
        )
    }
}
