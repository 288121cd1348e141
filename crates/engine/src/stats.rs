//! Measurement primitives: counters, running moments, histograms,
//! CDF builders, and fixed-interval samplers.
//!
//! The paper reports several statistic shapes this module reproduces:
//!
//! * mean ± one standard deviation and max of *events per sampling
//!   interval* (Figures 3 and 8) — [`IntervalSampler`];
//! * ratio breakdowns (Figure 2) — plain [`Counter`]s combined by the
//!   caller;
//! * lifetime CDFs (Figure 12) — [`Cdf`].

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::time::{Cycle, Duration};

/// A monotonically increasing event counter.
///
/// ```
/// use gvc_engine::Counter;
///
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Folds another counter's events into this one. Equivalent to
    /// having counted both event streams on one counter.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }

    /// This counter as a fraction of `denom`; 0.0 when `denom` is zero.
    pub fn ratio_of(self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 / denom as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean / variance / extrema (Welford's algorithm).
///
/// ```
/// use gvc_engine::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator into this one (Chan et al.'s parallel
    /// variance combination). The result matches pushing both sample
    /// streams through a single accumulator, up to floating-point
    /// rounding.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation; 0.0 if fewer than two samples.
    pub fn population_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Largest sample; 0.0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest sample; 0.0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
}

/// A power-of-two bucketed histogram for latency-like quantities.
///
/// Bucket `i` covers values in `[2^(i-1), 2^i)`, with bucket 0 covering
/// exactly zero.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a value.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Folds another histogram into this one by elementwise bucket
    /// addition. Exactly equivalent to recording both value streams
    /// into a single histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values; 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket counts; bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 is 0).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The `q`-quantile (0.0 ..= 1.0) by nearest rank over the bucket
    /// boundaries, reported as the *inclusive upper edge* of the bucket
    /// the rank falls in (`2^i - 1`; bucket 0 reports 0). This makes the
    /// histogram a bounded, exactly-mergeable quantile sketch: the
    /// answer is conservative (an upper bound on the true quantile,
    /// within 2× for nonzero values) and identical no matter how the
    /// value stream was split and [`Histogram::merge`]d back together.
    /// Returns 0.0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    ((1u64 << i) - 1) as f64
                };
            }
        }
        // Unreachable when counts are consistent; be conservative.
        let top = self.buckets.len();
        if top == 0 {
            0.0
        } else {
            ((1u64 << top) - 1) as f64
        }
    }
}

/// Counts events per fixed-length time interval, as the paper does with
/// 1 µs sampling periods, and summarizes the per-interval counts.
///
/// Events are reported with their cycle timestamps via
/// [`IntervalSampler::record`]; timestamps may arrive in any order —
/// each event is bucketed by its own timestamp, so arbitrarily late or
/// early reports land in the right interval. The sampler keeps every
/// interval count and finalizes on [`IntervalSampler::finish`].
///
/// ```
/// use gvc_engine::{Cycle, Duration, IntervalSampler};
///
/// let mut s = IntervalSampler::new(Duration::new(700)); // 1 µs @ 700 MHz
/// s.record(Cycle::new(0));
/// s.record(Cycle::new(1));
/// s.record(Cycle::new(700)); // second interval
/// let r = s.finish(Cycle::new(1400));
/// assert_eq!(r.intervals(), 2);
/// assert_eq!(r.max_per_interval(), 2.0);
/// // mean over intervals: (2 + 1) / 2
/// assert_eq!(r.mean_per_interval(), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSampler {
    interval: Duration,
    counts: Vec<u64>,
    total: u64,
    /// Absolute index of `counts[0]`. Zero until intervals are spilled
    /// into a [`RateAccum`] via [`IntervalSampler::spill_into`]; spilling
    /// advances `base` so resident memory stays bounded by the window
    /// between spills instead of growing with the simulated horizon.
    base: u64,
}

impl IntervalSampler {
    /// Creates a sampler with the given interval length.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Duration) -> Self {
        assert!(interval.raw() > 0, "sampling interval must be nonzero");
        IntervalSampler {
            interval,
            counts: Vec::new(),
            total: 0,
            base: 0,
        }
    }

    /// Records one event at cycle `at`.
    pub fn record(&mut self, at: Cycle) {
        self.record_n(at, 1);
    }

    /// Records `n` events at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` falls in an interval already spilled via
    /// [`IntervalSampler::spill_into`] — such an event could no longer
    /// be counted in the right bucket.
    pub fn record_n(&mut self, at: Cycle, n: u64) {
        let abs = at.raw() / self.interval.raw();
        assert!(
            abs >= self.base,
            "event at cycle {} precedes the spilled window (interval {abs} < base {})",
            at.raw(),
            self.base
        );
        let idx = (abs - self.base) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Drains every interval that lies entirely before `up_to` into
    /// `acc`, including empty ones (they matter for the mean), and
    /// advances the resident window past them. Returns the number of
    /// intervals drained.
    ///
    /// This is the bounded-memory half of the long-horizon contract:
    /// calling this periodically keeps `counts` sized by the spill
    /// cadence while `acc` carries the cumulative summary in O(1) space.
    /// Spilling at the same boundaries produces the same accumulator no
    /// matter how the run is split, checkpointed, or resumed.
    ///
    /// # Panics
    ///
    /// Panics if `acc` was configured with a different interval length.
    pub fn spill_into(&mut self, up_to: Cycle, acc: &mut RateAccum) -> u64 {
        assert_eq!(
            self.interval.raw(),
            acc.interval_cycles,
            "cannot spill into an accumulator with a different interval"
        );
        let complete = up_to.raw() / self.interval.raw();
        if complete <= self.base {
            return 0;
        }
        let drained = complete - self.base;
        for i in 0..drained {
            acc.absorb(self.counts.get(i as usize).copied().unwrap_or(0));
        }
        let held = (drained as usize).min(self.counts.len());
        self.counts.drain(..held);
        self.base = complete;
        drained
    }

    /// Absolute index of the first resident (not yet spilled) interval.
    pub fn window_base(&self) -> u64 {
        self.base
    }

    /// Folds another sampler's events into this one by elementwise
    /// interval addition — exactly equivalent to recording both event
    /// streams into a single sampler, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the samplers were configured with different interval
    /// lengths (their buckets would not line up).
    pub fn merge(&mut self, other: &IntervalSampler) {
        assert_eq!(
            self.interval.raw(),
            other.interval.raw(),
            "cannot merge samplers with different intervals"
        );
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Total events recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The configured interval length.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Per-interval event counts recorded so far (trailing empty
    /// intervals are not materialized).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Finalizes at `end` (the simulation end time) and summarizes the
    /// per-interval counts over every interval in `[0, end)` — including
    /// empty ones, which matter for the mean — plus any trailing
    /// interval that already holds recorded events.
    ///
    /// Including the tail (rather than clamping `total` to `[0, end)`)
    /// is the deliberate choice here: every recorded event contributes
    /// to the summary, so `mean_per_interval() × intervals() ==
    /// total()` always holds exactly, even when events land at cycles
    /// `≥ end` (e.g. a completion that drains past the sampled
    /// horizon). Symmetrically, `end = 0` with no events covers zero
    /// intervals instead of fabricating a phantom empty one.
    ///
    /// If intervals have been spilled ([`IntervalSampler::spill_into`]),
    /// this summarizes only the *resident* window — the spilled history
    /// lives in the accumulator; long-horizon callers should finalize
    /// with [`IntervalSampler::finish_into`] instead.
    pub fn finish(&self, end: Cycle) -> IntervalSummary {
        let covered = end.raw().div_ceil(self.interval.raw());
        let n_intervals = (covered.max(self.base + self.counts.len() as u64) - self.base) as usize;
        let mut stats = RunningStats::new();
        for i in 0..n_intervals {
            let c = self.counts.get(i).copied().unwrap_or(0);
            stats.push(c as f64);
        }
        IntervalSummary {
            interval_cycles: self.interval.raw(),
            intervals: n_intervals as u64,
            total: self.total,
            mean: stats.mean(),
            std_dev: stats.population_std_dev(),
            max: stats.max(),
        }
    }

    /// Finalizes a long-horizon run: folds the resident window (every
    /// interval up to `end`, or further if trailing events exist) into a
    /// copy of `acc` — which carries the spilled history — and
    /// summarizes the whole horizon. The sampler itself is untouched, so
    /// the run can keep going after a mid-run peek.
    ///
    /// # Panics
    ///
    /// Panics if `acc` was configured with a different interval length.
    pub fn finish_into(&self, end: Cycle, acc: &RateAccum) -> IntervalSummary {
        assert_eq!(
            self.interval.raw(),
            acc.interval_cycles,
            "cannot finish into an accumulator with a different interval"
        );
        let covered = end.raw().div_ceil(self.interval.raw());
        let resident = (covered.max(self.base + self.counts.len() as u64) - self.base) as usize;
        let mut whole = acc.clone();
        for i in 0..resident {
            whole.absorb(self.counts.get(i).copied().unwrap_or(0));
        }
        whole.summary()
    }
}

/// Summary of an [`IntervalSampler`]: mean, standard deviation, and max
/// of the per-interval event counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalSummary {
    interval_cycles: u64,
    intervals: u64,
    total: u64,
    mean: f64,
    std_dev: f64,
    max: f64,
}

impl IntervalSummary {
    /// Number of sampling intervals covered.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Total events across all intervals.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean events per interval.
    pub fn mean_per_interval(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation of events per interval.
    pub fn std_dev_per_interval(&self) -> f64 {
        self.std_dev
    }

    /// Max events in any interval.
    pub fn max_per_interval(&self) -> f64 {
        self.max
    }

    /// Mean events per *cycle* (the paper's Figures 3 and 8 y-axis).
    pub fn mean_per_cycle(&self) -> f64 {
        self.mean / self.interval_cycles as f64
    }

    /// Standard deviation of events per cycle.
    pub fn std_dev_per_cycle(&self) -> f64 {
        self.std_dev / self.interval_cycles as f64
    }

    /// Max events per cycle among intervals (the paper's red dots).
    pub fn max_per_cycle(&self) -> f64 {
        self.max / self.interval_cycles as f64
    }
}

/// O(1)-space integer accumulator for per-interval event rates, fed by
/// [`IntervalSampler::spill_into`].
///
/// Where [`RunningStats`] streams `f64` moments (whose rounding depends
/// on push order), this keeps exact integer sums — count, total, sum of
/// squares, max — so two runs that spill the same intervals in the same
/// epoch order hold bit-identical state, and a run restored from a
/// checkpoint continues to bit-identical final numbers. The floats in
/// the final [`IntervalSummary`] are computed once, at the end, from
/// the integers.
///
/// `sum_sq` saturates instead of overflowing; a saturated accumulator
/// keeps merging deterministically but underestimates the standard
/// deviation (at u64::MAX that takes ~10^19 squared events — far past
/// any simulated horizon here).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateAccum {
    interval_cycles: u64,
    intervals: u64,
    total: u64,
    sum_sq: u64,
    max: u64,
}

impl RateAccum {
    /// Creates an empty accumulator for intervals of the given length.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Duration) -> Self {
        assert!(interval.raw() > 0, "sampling interval must be nonzero");
        RateAccum {
            interval_cycles: interval.raw(),
            intervals: 0,
            total: 0,
            sum_sq: 0,
            max: 0,
        }
    }

    /// Absorbs one interval's event count.
    pub fn absorb(&mut self, count: u64) {
        self.intervals += 1;
        self.total += count;
        self.sum_sq = self.sum_sq.saturating_add(count.saturating_mul(count));
        self.max = self.max.max(count);
    }

    /// Folds another accumulator's intervals into this one — equivalent
    /// to having absorbed both interval streams, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators were configured with different
    /// interval lengths.
    pub fn merge(&mut self, other: &RateAccum) {
        assert_eq!(
            self.interval_cycles, other.interval_cycles,
            "cannot merge accumulators with different intervals"
        );
        self.intervals += other.intervals;
        self.total += other.total;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.max = self.max.max(other.max);
    }

    /// Number of intervals absorbed.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Total events across absorbed intervals.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest absorbed interval count.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Summarizes the absorbed intervals. Mean and standard deviation
    /// come from the exact integer sums (`E[x²] − E[x]²`, clamped at
    /// zero against rounding), so the summary is a pure function of the
    /// accumulator state.
    pub fn summary(&self) -> IntervalSummary {
        let (mean, std_dev) = if self.intervals == 0 {
            (0.0, 0.0)
        } else {
            let n = self.intervals as f64;
            let mean = self.total as f64 / n;
            let var = (self.sum_sq as f64 / n - mean * mean).max(0.0);
            let std = if self.intervals < 2 { 0.0 } else { var.sqrt() };
            (mean, std)
        };
        IntervalSummary {
            interval_cycles: self.interval_cycles,
            intervals: self.intervals,
            total: self.total,
            mean,
            std_dev,
            max: self.max as f64,
        }
    }
}

/// Collects samples and produces an empirical CDF (Figure 12's lifetime
/// curves).
///
/// ```
/// use gvc_engine::Cdf;
///
/// let mut c = Cdf::new();
/// for v in [10, 20, 30, 40] {
///     c.push(v as f64);
/// }
/// assert_eq!(c.fraction_at_or_below(25.0), 0.5);
/// assert_eq!(c.quantile(0.5), 20.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
    /// NaN samples rejected at `push` — they carry no ordering
    /// information, so they are counted rather than stored (a single
    /// NaN must not abort a whole sweep).
    dropped: u64,
}

impl Cdf {
    /// Creates an empty CDF builder.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds a sample. NaN samples are not stored; they increment
    /// [`Cdf::dropped`] instead.
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            self.dropped += 1;
            return;
        }
        self.samples.push(v);
        self.sorted = false;
    }

    /// Folds another CDF's samples into this one. The combined
    /// distribution is identical to pushing both sample streams into a
    /// single builder.
    pub fn merge(&mut self, other: &Cdf) {
        self.samples.extend_from_slice(&other.samples);
        self.dropped += other.dropped;
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of NaN samples rejected so far (see [`Cdf::push`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The raw samples, in insertion order until a query sorts them.
    /// Epoch-windowed pipelines use this to spill a window's samples
    /// into a bounded sketch (e.g. a [`Histogram`]) and then drop the
    /// window with `std::mem::take`.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp so a stray non-finite value (infinities sort to
            // the ends; NaN never reaches the vec) cannot panic here.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Fraction of samples `<= x`; 0.0 if empty.
    pub fn fraction_at_or_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0.0 ..= 1.0) by nearest-rank; 0.0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// Evaluates the CDF at each of `xs`, returning fractions.
    pub fn curve(&mut self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.fraction_at_or_below(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.ratio_of(40), 0.25);
        assert_eq!(c.ratio_of(0), 0.0);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn running_stats_moments() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.population_std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(100);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1); // zero
        assert_eq!(h.buckets()[1], 1); // [1,2)
        assert_eq!(h.buckets()[2], 2); // [2,4)
        assert_eq!(h.buckets()[7], 1); // [64,128)
        assert!((h.mean() - 21.2).abs() < 1e-12);
    }

    #[test]
    fn interval_sampler_counts_empty_intervals() {
        let mut s = IntervalSampler::new(Duration::new(100));
        s.record_n(Cycle::new(10), 5);
        // Nothing in interval 1; one event in interval 2.
        s.record(Cycle::new(250));
        let r = s.finish(Cycle::new(300));
        assert_eq!(r.intervals(), 3);
        assert_eq!(r.total(), 6);
        assert!((r.mean_per_interval() - 2.0).abs() < 1e-12);
        assert_eq!(r.max_per_interval(), 5.0);
        assert!((r.mean_per_cycle() - 0.02).abs() < 1e-12);
        assert!((r.max_per_cycle() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn interval_sampler_partial_last_interval() {
        let s = IntervalSampler::new(Duration::new(100));
        let r = s.finish(Cycle::new(101));
        assert_eq!(r.intervals(), 2);
    }

    /// Regression: events recorded at cycles `≥ end` must still be
    /// summarized. The old `finish` truncated the summary to `[0, end)`
    /// while `total` kept counting everything, so `mean × intervals`
    /// disagreed with `total` (here: 0 × 1 vs 1).
    #[test]
    fn interval_sampler_finish_includes_tail_events() {
        let mut s = IntervalSampler::new(Duration::new(100));
        s.record(Cycle::new(250)); // third interval, past `end`
        let r = s.finish(Cycle::new(100));
        assert_eq!(r.intervals(), 3, "trailing intervals with events count");
        assert_eq!(r.total(), 1);
        let summed = r.mean_per_interval() * r.intervals() as f64;
        assert!(
            (summed - r.total() as f64).abs() < 1e-9,
            "mean × intervals ({summed}) must equal total ({})",
            r.total()
        );
        assert_eq!(r.max_per_interval(), 1.0);
    }

    /// Regression: `end = 0` with nothing recorded used to fabricate
    /// one phantom empty interval.
    #[test]
    fn interval_sampler_finish_at_zero_covers_zero_intervals() {
        let s = IntervalSampler::new(Duration::new(100));
        let r = s.finish(Cycle::new(0));
        assert_eq!(r.intervals(), 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.mean_per_interval(), 0.0);
        assert_eq!(r.max_per_interval(), 0.0);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        for v in 1..=100 {
            c.push(v as f64);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.quantile(0.9), 90.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.fraction_at_or_below(50.0), 0.5);
        assert_eq!(c.curve(&[0.0, 100.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn cdf_drops_nans_instead_of_panicking() {
        let mut c = Cdf::new();
        c.push(f64::NAN);
        c.push(2.0);
        c.push(f64::NAN);
        c.push(1.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.dropped(), 2);
        // Sorting and queries work despite the NaN pushes.
        assert_eq!(c.quantile(1.0), 2.0);
        assert_eq!(c.fraction_at_or_below(1.5), 0.5);

        let mut other = Cdf::new();
        other.push(f64::NAN);
        other.push(3.0);
        c.merge(&other);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dropped(), 3, "merge sums dropped counts");
        assert_eq!(c.quantile(1.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cdf_bad_quantile_panics() {
        let mut c = Cdf::new();
        c.push(1.0);
        let _ = c.quantile(1.5);
    }

    #[test]
    fn counter_merge_adds() {
        let mut a = Counter::new();
        a.add(3);
        let mut b = Counter::new();
        b.add(4);
        a.merge(&b);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn running_stats_merge_matches_single_stream() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..3] {
            left.push(x);
        }
        for &x in &xs[3..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.population_std_dev() - whole.population_std_dev()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn running_stats_merge_empty_sides() {
        let mut empty = RunningStats::new();
        let mut s = RunningStats::new();
        s.push(2.0);
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 1);
        empty.merge(&s);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 2.0);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(3);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[2], 1);
        assert_eq!(a.buckets()[7], 1);
        assert!((a.mean() - 103.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interval_sampler_merge_matches_single_stream() {
        let mut a = IntervalSampler::new(Duration::new(100));
        let mut b = IntervalSampler::new(Duration::new(100));
        a.record_n(Cycle::new(10), 2);
        b.record(Cycle::new(250));
        a.merge(&b);
        let r = a.finish(Cycle::new(300));
        assert_eq!(r.total(), 3);
        assert_eq!(r.intervals(), 3);
        assert_eq!(r.max_per_interval(), 2.0);
    }

    #[test]
    #[should_panic(expected = "different intervals")]
    fn interval_sampler_merge_rejects_mismatched_intervals() {
        let mut a = IntervalSampler::new(Duration::new(100));
        let b = IntervalSampler::new(Duration::new(200));
        a.merge(&b);
    }

    #[test]
    fn histogram_quantile_is_bucket_upper_edge() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in [0, 0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.25), 0.0); // rank 2 of 6 → bucket 0
        assert_eq!(h.quantile(0.5), 1.0); // rank 3 → bucket 1, edge 1
        assert_eq!(h.quantile(0.75), 3.0); // rank 5 → bucket 2, edge 3
        assert_eq!(h.quantile(1.0), 127.0); // rank 6 → bucket 7, edge 127
    }

    #[test]
    fn histogram_quantile_survives_merge_split() {
        let values: Vec<u64> = (0..200).map(|i| (i * 37) % 500).collect();
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn rate_accum_matches_finish_moments() {
        let mut s = IntervalSampler::new(Duration::new(100));
        s.record_n(Cycle::new(10), 5);
        s.record(Cycle::new(250));
        let plain = s.finish(Cycle::new(300));

        let mut acc = RateAccum::new(Duration::new(100));
        let drained = s.spill_into(Cycle::new(300), &mut acc);
        assert_eq!(drained, 3);
        assert_eq!(acc.intervals(), 3);
        assert_eq!(acc.total(), 6);
        assert_eq!(acc.max(), 5);
        let r = acc.summary();
        assert_eq!(r.intervals(), plain.intervals());
        assert_eq!(r.total(), plain.total());
        assert!((r.mean_per_interval() - plain.mean_per_interval()).abs() < 1e-12);
        assert!((r.std_dev_per_interval() - plain.std_dev_per_interval()).abs() < 1e-12);
        assert_eq!(r.max_per_interval(), plain.max_per_interval());
    }

    #[test]
    fn spill_windows_equal_uninterrupted_run() {
        // The bounded-memory law: spilling at arbitrary epoch boundaries
        // and finishing through the accumulator gives the same summary
        // as never spilling at all.
        let events: Vec<(u64, u64)> = (0..64).map(|i| (i * 97 % 2000, i % 5 + 1)).collect();
        let mut plain = IntervalSampler::new(Duration::new(100));
        let mut windowed = IntervalSampler::new(Duration::new(100));
        let mut acc = RateAccum::new(Duration::new(100));
        let mut sorted = events.clone();
        sorted.sort_unstable();
        let mut next = 0;
        for boundary in [0u64, 300, 301, 900, 900, 1500] {
            while next < sorted.len() && sorted[next].0 < boundary {
                plain.record_n(Cycle::new(sorted[next].0), sorted[next].1);
                windowed.record_n(Cycle::new(sorted[next].0), sorted[next].1);
                next += 1;
            }
            windowed.spill_into(Cycle::new(boundary), &mut acc);
            assert!(
                windowed.counts().len() <= 1,
                "resident window stays bounded after each spill"
            );
        }
        while next < sorted.len() {
            plain.record_n(Cycle::new(sorted[next].0), sorted[next].1);
            windowed.record_n(Cycle::new(sorted[next].0), sorted[next].1);
            next += 1;
        }
        let end = Cycle::new(2100);
        let want = plain.finish(end);
        let got = windowed.finish_into(end, &acc);
        assert_eq!(got.intervals(), want.intervals());
        assert_eq!(got.total(), want.total());
        assert!((got.mean_per_interval() - want.mean_per_interval()).abs() < 1e-9);
        assert!((got.std_dev_per_interval() - want.std_dev_per_interval()).abs() < 1e-9);
        assert_eq!(got.max_per_interval(), want.max_per_interval());
        assert_eq!(windowed.total(), plain.total(), "total stays cumulative");
    }

    #[test]
    #[should_panic(expected = "precedes the spilled window")]
    fn spilled_intervals_reject_late_events() {
        let mut s = IntervalSampler::new(Duration::new(100));
        let mut acc = RateAccum::new(Duration::new(100));
        s.spill_into(Cycle::new(500), &mut acc);
        s.record(Cycle::new(499));
    }

    #[test]
    fn rate_accum_merge_matches_single_stream() {
        let mut whole = RateAccum::new(Duration::new(50));
        let mut a = RateAccum::new(Duration::new(50));
        let mut b = RateAccum::new(Duration::new(50));
        for (i, c) in [3u64, 0, 7, 1, 1, 4, 9, 2].iter().enumerate() {
            whole.absorb(*c);
            if i < 3 {
                a.absorb(*c)
            } else {
                b.absorb(*c)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole, "integer state is bit-identical, not just close");
    }

    #[test]
    #[should_panic(expected = "different interval")]
    fn rate_accum_merge_rejects_mismatched_intervals() {
        let mut a = RateAccum::new(Duration::new(100));
        a.merge(&RateAccum::new(Duration::new(200)));
    }

    #[test]
    fn cdf_merge_combines_samples() {
        let mut a = Cdf::new();
        let mut b = Cdf::new();
        for v in 1..=50 {
            a.push(v as f64);
        }
        for v in 51..=100 {
            b.push(v as f64);
        }
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.quantile(0.9), 90.0);
        assert_eq!(a.fraction_at_or_below(50.0), 0.5);
    }
}
