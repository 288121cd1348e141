//! Shared run machinery: a [`Runner`] holding the memo cache and the
//! run settings, plus the one worker pool ([`par_map_ordered`]) every
//! parallel sweep in this crate goes through.
//!
//! Several figures reuse the same (workload, design) runs — Figure 4's
//! baselines are Figure 9's baselines, for example. A runner's cache,
//! keyed by the run's full configuration, avoids recomputing them
//! within one `repro` invocation.
//!
//! Every run in a figure is independent of every other (workload
//! construction and simulation are deterministic in the key alone), so
//! figures first [`Runner::prefetch`] their full run set over the
//! worker pool, then assemble output from the warm cache on one
//! thread. Output is therefore byte-identical regardless of the worker
//! count: parallelism only changes *when* a report is computed, never
//! *which* report a key maps to, and the serial assembly loop fixes the
//! output order.
//!
//! The runner is hardened against individual runs going bad:
//!
//! * a run that panics is isolated ([`std::panic::catch_unwind`]),
//!   retried once after a seeded backoff, and finally reported as a
//!   structured [`RunError::Panicked`] instead of aborting the sweep
//!   (use [`Runner::sweep`] / [`Runner::try_run`]);
//! * a run that trips the cycle watchdog ([`Runner::max_cycles`])
//!   surfaces as [`RunError::Timeout`] carrying its partial stats;
//! * a memo-cache shard poisoned by a panicking worker is recovered on
//!   the next touch — the possibly-torn entry is evicted and the
//!   poison flag cleared — so one bad run can't wedge the cache for
//!   the rest of the process.

use gvc::{InjectConfig, SystemConfig};
use gvc_gpu::{GpuConfig, GpuSim, RunReport, Truncation};
use gvc_workloads::{Scale, WorkloadId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

/// Times a panicking run is retried before it is reported as
/// [`RunError::Panicked`]. Simulation is deterministic, so a panic
/// normally reproduces — the retry only buys anything against
/// host-side transients.
const MAX_RETRIES: u32 = 1;

/// `num / den`, but 0.0 when the denominator is zero (or non-finite)
/// instead of NaN/inf. Figure builders divide by cycle counts that a
/// watchdog-truncated or degenerate run can leave at zero; a poisoned
/// ratio would serialize as `null` and silently corrupt the exported
/// JSON, so every figure-level division goes through this.
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 || !den.is_finite() || !num.is_finite() {
        0.0
    } else {
        num / den
    }
}

/// Identifies a memoizable run. The full configuration is part of the
/// key, so two presets that happen to produce the same simulator state
/// still occupy distinct cache slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The workload.
    pub workload: WorkloadId,
    /// The full memory-system configuration.
    pub config: SystemConfig,
    /// Problem scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
}

/// A run's cached outcome: a report (complete or watchdog-truncated),
/// or the panic that every attempt ended in.
type Outcome = Result<RunReport, RunError>;

/// Shard count for the memo cache. A small power of two: enough that
/// a full-width sweep rarely contends on one lock, cheap to scan when
/// clearing.
const SHARDS: usize = 16;

struct ShardedCache {
    shards: [RwLock<HashMap<RunKey, Outcome>>; SHARDS],
}

impl ShardedCache {
    fn new() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &RunKey) -> &RwLock<HashMap<RunKey, Outcome>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get(&self, key: &RunKey) -> Option<Outcome> {
        let lock = self.shard(key);
        if let Ok(shard) = lock.read() {
            return shard.get(key).cloned();
        }
        // A worker died while holding this shard. The map itself is
        // structurally sound (std collections keep their invariants on
        // panic), but the entry being touched may be half-updated —
        // evict it, clear the poison flag, and report a miss so it is
        // recomputed. (The poisoned read error — which still owns a
        // read guard — was dropped with the `if let` above; holding it
        // here would deadlock the write acquisition.)
        let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
        shard.remove(key);
        lock.clear_poison();
        None
    }

    fn insert(&self, key: RunKey, outcome: Outcome) {
        let lock = self.shard(&key);
        let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
        lock.clear_poison();
        shard.insert(key, outcome);
    }

    fn clear(&self) {
        for lock in &self.shards {
            lock.write().unwrap_or_else(PoisonError::into_inner).clear();
            lock.clear_poison();
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

/// Why a run could not produce a full report. `Clone` so a sweep can
/// hand the same failure to every duplicate of a key.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The simulation panicked on every attempt. The panic payload is
    /// preserved as text.
    Panicked {
        /// The last attempt's panic message.
        message: String,
        /// Attempts made (1 + the retry budget).
        attempts: u32,
        /// The retry budget that was in force.
        retry_budget: u32,
        /// Total deterministic backoff slept between attempts, in
        /// milliseconds (see [`seeded_backoff_ms`]).
        backoff_ms: u64,
    },
    /// A watchdog cut the run; `partial` holds everything simulated up
    /// to the cut point.
    Timeout {
        /// Which budget was exceeded.
        truncation: Truncation,
        /// The partial report (boxed: it is much larger than the Ok
        /// variant's absence).
        partial: Box<RunReport>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked {
                message,
                attempts,
                retry_budget,
                backoff_ms,
            } => {
                write!(
                    f,
                    "run panicked after {attempts} attempt(s) \
                     (retry budget {retry_budget}, {backoff_ms} ms backoff): {message}"
                )
            }
            RunError::Timeout {
                truncation,
                partial,
            } => {
                let budget = match truncation {
                    Truncation::MaxCycles => "simulated-cycle",
                    Truncation::WallClock => "wall-clock",
                };
                write!(
                    f,
                    "run exceeded its {budget} budget at cycle {} ({} mem instructions done)",
                    partial.cycles, partial.mem_instructions
                )
            }
        }
    }
}

/// Renders a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic seeded backoff before retry `attempt` (1-based) of a
/// failed unit of work identified by `id`: exponential base
/// `4ms << (attempt-1)` capped at 256 ms, jittered into
/// `[base/2, 3·base/2)` by an RNG seeded from `id` and the attempt
/// number. Same id + attempt → same delay, so a retry schedule is
/// replayable; different ids decorrelate, so a sweep full of
/// simultaneous failures does not retry in lockstep.
pub fn seeded_backoff_ms(id: &impl Hash, attempt: u32) -> u64 {
    let base = (4u64 << attempt.saturating_sub(1).min(6)).min(256);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    id.hash(&mut h);
    let mut rng = gvc_engine::SimRng::seeded(h.finish() ^ u64::from(attempt));
    rng.range(base / 2, base + base / 2)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and
/// returns the results in input order.
///
/// Workers claim items through a shared atomic index, so scheduling is
/// dynamic (long items don't serialize behind short ones) while the
/// result order is fixed by the input. With `jobs <= 1` (or at most one
/// item) everything runs on the calling thread. A panic in `f`
/// propagates to the caller once every worker has stopped; callers
/// that need isolation catch inside `f`.
pub fn par_map_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect()
}

/// One run context: the settings `repro`'s flags choose, and the memo
/// cache the runs computed under them fill.
///
/// The settings apply when a run is computed, so the figure collectors
/// stay untouched; they are not part of [`RunKey`], so change them
/// only before the first run — cached reports are not recomputed.
pub struct Runner {
    /// Worker threads for [`Runner::prefetch`] and [`Runner::sweep`]
    /// (`repro --jobs`). Defaults to the host's available parallelism.
    pub jobs: usize,
    /// Run every simulation under [`SystemConfig::with_paranoid`]
    /// (`repro --paranoid`). The checker is a pure observer, so
    /// reports are identical either way — runs just abort on any
    /// invariant violation.
    pub paranoid: bool,
    /// Fault injection for every run whose key carries no
    /// [`InjectConfig`] of its own (`repro --inject`).
    pub inject: Option<InjectConfig>,
    /// Simulated-cycle watchdog per run (`repro --max-cycles`). A cut
    /// run comes back as [`RunError::Timeout`] from [`Runner::try_run`]
    /// and as its partial report from [`Runner::run`]; under a fixed
    /// budget the cut is deterministic in the key.
    pub max_cycles: Option<u64>,
    cache: ShardedCache,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            jobs: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            paranoid: false,
            inject: None,
            max_cycles: None,
            cache: ShardedCache::new(),
        }
    }
}

impl Runner {
    /// A runner with default settings and an empty cache.
    pub fn new() -> Self {
        Runner::default()
    }

    /// A runner with default settings and `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs,
            ..Runner::default()
        }
    }

    /// Empties the memo cache.
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Number of memoized outcomes currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The memory-system config actually simulated for `key`: the key's
    /// own config plus whatever [`Runner::paranoid`] /
    /// [`Runner::inject`] add on top.
    fn effective_config(&self, key: &RunKey) -> SystemConfig {
        let mut config = key.config;
        if self.paranoid {
            config = config.with_paranoid();
        }
        if config.inject.is_none() {
            if let Some(ic) = self.inject {
                config = config.with_inject(ic);
            }
        }
        config
    }

    /// Computes one report from scratch. Deterministic in the key and
    /// the runner's settings.
    fn compute(&self, key: &RunKey) -> RunReport {
        let cfg = self.effective_config(key);
        let gpu = GpuConfig {
            max_cycles: self.max_cycles,
            ..GpuConfig::default()
        };
        // The THP placement policy changes the virtual layout, so it must
        // be decided at build time; non-THP configs keep the historical
        // layout byte-for-byte.
        let mut w = gvc_workloads::build_thp(
            key.workload,
            key.scale,
            key.seed,
            cfg.transparent_huge_pages,
        );
        GpuSim::new(gpu, cfg).run(&mut *w.source, &mut w.os)
    }

    /// [`Runner::compute`] with panic isolation and bounded retry.
    /// Retries are spaced by [`seeded_backoff_ms`] — back-to-back
    /// retries of a host-transient failure tend to refail into the same
    /// condition.
    fn compute_caught(&self, key: &RunKey) -> Outcome {
        let attempts = MAX_RETRIES + 1;
        let mut message = String::new();
        let mut backoff_ms = 0u64;
        for attempt in 1..=attempts {
            if attempt > 1 {
                let delay = seeded_backoff_ms(key, attempt - 1);
                backoff_ms += delay;
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            match catch_unwind(AssertUnwindSafe(|| self.compute(key))) {
                Ok(report) => return Ok(report),
                Err(payload) => message = panic_message(payload.as_ref()),
            }
        }
        Err(RunError::Panicked {
            message,
            attempts,
            retry_budget: MAX_RETRIES,
            backoff_ms,
        })
    }

    /// The cached outcome for `key`, computing (and caching) it on a
    /// miss. A truncated report is an `Ok` here.
    fn outcome(&self, key: &RunKey) -> Outcome {
        if let Some(outcome) = self.cache.get(key) {
            return outcome;
        }
        let outcome = self.compute_caught(key);
        self.cache.insert(*key, outcome.clone());
        outcome
    }

    /// Runs (or retrieves) one simulation. A watchdog-truncated run
    /// returns its partial report.
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError::Panicked`] text if every attempt of
    /// the simulation panicked.
    pub fn run(
        &self,
        workload: WorkloadId,
        config: SystemConfig,
        scale: Scale,
        seed: u64,
    ) -> RunReport {
        let key = RunKey {
            workload,
            config,
            scale,
            seed,
        };
        self.outcome(&key)
            .unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    /// Hardened variant of [`Runner::run`]: a panic comes back as
    /// [`RunError::Panicked`], a watchdog cut as [`RunError::Timeout`].
    pub fn try_run(
        &self,
        workload: WorkloadId,
        config: SystemConfig,
        scale: Scale,
        seed: u64,
    ) -> Result<RunReport, RunError> {
        let key = RunKey {
            workload,
            config,
            scale,
            seed,
        };
        self.outcome(&key).and_then(settle)
    }

    /// Computes every key's outcome into the memo cache over
    /// [`par_map_ordered`]. Keys already cached are skipped; duplicate
    /// keys are computed once. Every computation is panic-isolated, so
    /// one poisoned run never takes its siblings down with it.
    pub fn prefetch(&self, keys: &[RunKey]) {
        let mut seen = HashSet::new();
        let pending: Vec<RunKey> = keys
            .iter()
            .filter(|key| seen.insert(**key) && self.cache.get(key).is_none())
            .copied()
            .collect();
        let outcomes = par_map_ordered(self.jobs, &pending, |key| self.compute_caught(key));
        for (key, outcome) in pending.into_iter().zip(outcomes) {
            self.cache.insert(key, outcome);
        }
    }

    /// Runs every key to a structured result: parallel prefetch, then
    /// serial assembly in the caller's key order (duplicates included),
    /// so output is byte-identical for any worker count. A sweep never
    /// aborts: a panicking run yields [`RunError::Panicked`] after the
    /// retry, a watchdogged run yields [`RunError::Timeout`] with
    /// partial stats, and everything else completes normally.
    pub fn sweep(&self, keys: &[RunKey]) -> SweepReport {
        self.prefetch(keys);
        let results = keys
            .iter()
            .map(|key| (*key, self.outcome(key).and_then(settle)))
            .collect();
        SweepReport { results }
    }

    /// Table-of-workloads run over one design, producing `(id, report)`
    /// pairs in the paper's workload order. The runs are prefetched in
    /// parallel first; the result order is always `WorkloadId::all()`.
    pub fn run_all(
        &self,
        config: SystemConfig,
        scale: Scale,
        seed: u64,
    ) -> Vec<(WorkloadId, RunReport)> {
        self.prefetch(&keys_for(&WorkloadId::all(), &[config], scale, seed));
        WorkloadId::all()
            .into_iter()
            .map(|id| (id, self.run(id, config, scale, seed)))
            .collect()
    }
}

/// Maps a computed report to the hardened result: a truncated report
/// becomes [`RunError::Timeout`] carrying the partial stats.
fn settle(report: RunReport) -> Result<RunReport, RunError> {
    match report.truncated {
        Some(truncation) => Err(RunError::Timeout {
            truncation,
            partial: Box::new(report),
        }),
        None => Ok(report),
    }
}

/// Outcome of a hardened sweep: one entry per input key, in input
/// order.
#[derive(Debug)]
pub struct SweepReport {
    /// `(key, report-or-error)` pairs, in the caller's key order.
    pub results: Vec<(RunKey, Result<RunReport, RunError>)>,
}

impl SweepReport {
    /// Keys that produced a full report.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// Keys that ended in a structured error.
    pub fn err_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }
}

/// Builds the key set for one design over a workload list.
pub fn keys_for(
    workloads: &[WorkloadId],
    configs: &[SystemConfig],
    scale: Scale,
    seed: u64,
) -> Vec<RunKey> {
    let mut keys = Vec::with_capacity(workloads.len() * configs.len());
    for &workload in workloads {
        for &config in configs {
            keys.push(RunKey {
                workload,
                config,
                scale,
                seed,
            });
        }
    }
    keys
}

/// Geometric-mean helper used by several figures.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_identical_reports() {
        let runner = Runner::new();
        let scale = Scale::test();
        let a = runner.run(
            WorkloadId::Pathfinder,
            SystemConfig::baseline_512(),
            scale,
            1,
        );
        let b = runner.run(
            WorkloadId::Pathfinder,
            SystemConfig::baseline_512(),
            scale,
            1,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(runner.cache_len(), 1, "the second run hit the cache");
        // Different design: distinct run.
        let c = runner.run(WorkloadId::Pathfinder, SystemConfig::ideal_mmu(), scale, 1);
        assert!(c.cycles != 0);
        assert_eq!(runner.cache_len(), 2);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn prefetch_fills_cache_and_run_hits_it() {
        let runner = Runner::with_jobs(2);
        let key = RunKey {
            workload: WorkloadId::Backprop,
            config: SystemConfig::baseline_512(),
            scale: Scale::test(),
            seed: 77,
        };
        runner.prefetch(&[key, key]);
        assert_eq!(runner.cache_len(), 1, "duplicate keys are computed once");
        let a = runner.run(key.workload, key.config, key.scale, key.seed);
        let b = runner.compute(&key);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem.dram_reads, b.mem.dram_reads);
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        let runner = Runner::new();
        let key = RunKey {
            workload: WorkloadId::Nw,
            config: SystemConfig::vc_without_opt(),
            scale: Scale::test(),
            seed: 913,
        };
        let first = runner.run(key.workload, key.config, key.scale, key.seed);
        assert!(runner.cache.get(&key).is_some());

        // Poison the key's shard: a thread dies holding the write lock.
        let lock = runner.cache.shard(&key);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = lock.write().expect("not yet poisoned");
                panic!("worker dies mid-insert");
            });
            assert!(handle.join().is_err(), "thread must have panicked");
        });
        assert!(lock.is_poisoned());

        // Recovery: the touched entry is evicted and the flag cleared,
        // then normal service resumes with a recomputed (identical)
        // report.
        assert!(
            runner.cache.get(&key).is_none(),
            "torn entry must be evicted"
        );
        assert!(!lock.is_poisoned(), "poison flag must be cleared");
        let again = runner.run(key.workload, key.config, key.scale, key.seed);
        assert_eq!(first.cycles, again.cycles);
        assert!(runner.cache.get(&key).is_some(), "cache is writable again");
    }

    #[test]
    fn distinct_configs_hash_to_distinct_keys() {
        let scale = Scale::test();
        let a = RunKey {
            workload: WorkloadId::Bfs,
            config: SystemConfig::baseline_512(),
            scale,
            seed: 1,
        };
        let b = RunKey {
            config: SystemConfig::baseline_16k(),
            ..a
        };
        let c = RunKey { seed: 2, ..a };
        assert_ne!(a, b);
        assert_ne!(a, c);
        let set: std::collections::HashSet<RunKey> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn par_map_ordered_keeps_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_ordered(1, &items, |x| x * x);
        for jobs in [2, 4, 64] {
            assert_eq!(par_map_ordered(jobs, &items, |x| x * x), serial);
        }
        assert!(par_map_ordered(4, &[] as &[u64], |x| *x).is_empty());
    }

    #[test]
    fn par_map_ordered_propagates_a_worker_panic() {
        let items: Vec<u32> = (0..8).collect();
        let caught = catch_unwind(|| {
            par_map_ordered(3, &items, |&x| {
                assert!(x != 5, "item five is poisoned");
                x
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert!(panic_message(payload.as_ref()).contains("item five"));
    }
}
