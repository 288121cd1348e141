//! Lifetime tracking for Figure 12.
//!
//! The paper's appendix compares how long per-CU TLB entries stay
//! resident against the *active lifetime* of data in the L1 and L2
//! caches (cached-to-last-access). [`LifetimeTracker`] accumulates
//! those samples and renders the CDF curves.

use crate::cache::CacheLine;
use gvc_engine::stats::Cdf;
use gvc_engine::time::{Cycle, Frequency};

/// Accumulates lifetime samples (in cycles) and reports CDFs in
/// nanoseconds.
///
/// ```
/// use gvc_cache::LifetimeTracker;
/// use gvc_engine::time::Frequency;
///
/// let mut t = LifetimeTracker::new(Frequency::from_mhz(700));
/// t.record_cycles(700); // 1 µs
/// t.record_cycles(1400);
/// let curve = t.cdf_at_ns(&[500.0, 1000.0, 3000.0]);
/// assert_eq!(curve, vec![0.0, 0.5, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeTracker {
    clock: Frequency,
    cdf: Cdf,
}

impl LifetimeTracker {
    /// Creates a tracker for a machine running at `clock`.
    pub fn new(clock: Frequency) -> Self {
        LifetimeTracker {
            clock,
            cdf: Cdf::new(),
        }
    }

    /// Records a lifetime measured in cycles.
    pub fn record_cycles(&mut self, cycles: u64) {
        self.cdf.push(
            self.clock
                .duration_to_ns(gvc_engine::time::Duration::new(cycles)),
        );
    }

    /// Records the active lifetime of an evicted or end-of-run cache
    /// line.
    pub fn record_line(&mut self, line: &CacheLine) {
        self.record_cycles(line.active_lifetime());
    }

    /// Records a residence interval directly.
    pub fn record_interval(&mut self, from: Cycle, to: Cycle) {
        self.record_cycles(to.raw().saturating_sub(from.raw()));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// CDF values (fraction of lifetimes ≤ x) at each of `xs_ns`.
    pub fn cdf_at_ns(&mut self, xs_ns: &[f64]) -> Vec<f64> {
        self.cdf.curve(xs_ns)
    }

    /// The `q`-quantile lifetime in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        self.cdf.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineKey;
    use gvc_mem::{Asid, Perms};

    #[test]
    fn records_line_active_lifetime() {
        let mut t = LifetimeTracker::new(Frequency::from_mhz(700));
        let line = CacheLine {
            key: LineKey::new(Asid(0), 1),
            perms: Perms::READ_WRITE,
            dirty: false,
            inserted_at: Cycle::new(0),
            last_access: Cycle::new(7000), // 10 µs
        };
        t.record_line(&line);
        assert_eq!(t.len(), 1);
        assert!((t.quantile_ns(1.0) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn interval_and_cdf() {
        let mut t = LifetimeTracker::new(Frequency::from_mhz(1000));
        t.record_interval(Cycle::new(100), Cycle::new(1100)); // 1000 cycles = 1000 ns
        t.record_interval(Cycle::new(0), Cycle::new(3000));
        assert_eq!(t.cdf_at_ns(&[1500.0]), vec![0.5]);
        assert!(!t.is_empty());
    }
}
