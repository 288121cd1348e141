//! The multi-threaded page-table walker pool.
//!
//! The paper's IOMMU has 16 concurrent walkers so that bursts of shared
//! TLB misses overlap their page walks instead of serializing
//! (Observation 3: with this pool plus the PWC, walk latency is *not*
//! the dominant overhead — port bandwidth is). [`WalkerPool`] models
//! walker occupancy with one next-free time per walker; a walk request
//! is granted the earliest-available walker.

use gvc_engine::time::Cycle;
use gvc_engine::{Counter, Histogram};
use serde::{Deserialize, Serialize};

/// Walker-pool statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkerStats {
    /// Walks started.
    pub walks: Counter,
    /// Total cycles walks waited for a free walker.
    pub wait_cycles: Counter,
    /// Distribution of walk service latencies (excluding waiting).
    pub latency: Histogram,
}

/// A pool of page-table walkers (see [module docs](self)).
///
/// ```
/// use gvc_engine::{Cycle, Duration};
/// use gvc_tlb::WalkerPool;
///
/// let mut pool = WalkerPool::new(2);
/// // Two walks start immediately; the third waits for a walker.
/// let a = pool.acquire(Cycle::new(0));
/// pool.release(a.0, Cycle::new(100));
/// let b = pool.acquire(Cycle::new(0));
/// pool.release(b.0, Cycle::new(100));
/// let c = pool.acquire(Cycle::new(0));
/// assert_eq!(c.1, Cycle::new(100)); // starts when a walker frees up
/// # pool.release(c.0, Cycle::new(200));
/// ```
///
/// The pool is its own checkpoint (see [`WalkerPool::snapshot`]).
/// Field order is the checkpoint's key order, pinned by
/// `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkerPool {
    next_free: Vec<Cycle>,
    stats: WalkerStats,
}

impl WalkerPool {
    /// Creates a pool of `n` walkers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "walker pool must have at least one walker");
        WalkerPool {
            next_free: vec![Cycle::ZERO; n],
            stats: WalkerStats::default(),
        }
    }

    /// Number of walkers.
    pub fn walkers(&self) -> usize {
        self.next_free.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &WalkerStats {
        &self.stats
    }

    /// Acquires the earliest-available walker for a walk that is ready
    /// at `ready`. Returns `(walker_id, start_time)`.
    ///
    /// The caller computes the walk latency, then *must* call
    /// [`WalkerPool::release`] with the walk's end time.
    pub fn acquire(&mut self, ready: Cycle) -> (usize, Cycle) {
        let (id, &free_at) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("nonempty pool");
        let start = ready.max(free_at);
        self.stats.walks.inc();
        self.stats.wait_cycles.add(start.raw() - ready.raw());
        // Occupy until released; use a far-future sentinel so a second
        // acquire before release cannot double-book this walker.
        self.next_free[id] = Cycle::new(u64::MAX);
        (id, start)
    }

    /// Releases walker `id` at the walk's end time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the walker was not acquired.
    pub fn release(&mut self, id: usize, end: Cycle) {
        assert_eq!(
            self.next_free[id],
            Cycle::new(u64::MAX),
            "walker {id} was not acquired"
        );
        self.next_free[id] = end;
    }

    /// Records a completed walk's service latency.
    pub fn record_latency(&mut self, cycles: u64) {
        self.stats.latency.record(cycles);
    }

    /// Captures the pool's full state for checkpointing.
    ///
    /// # Panics
    ///
    /// Panics if any walker is still acquired — walks acquire and
    /// release within one translate call, so a checkpoint boundary must
    /// never observe a busy walker.
    pub fn snapshot(&self) -> WalkerPool {
        assert!(
            self.next_free.iter().all(|&c| c != Cycle::new(u64::MAX)),
            "cannot snapshot a walker pool with an acquired walker"
        );
        self.clone()
    }

    /// Restores state captured by [`WalkerPool::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's walker count does not match.
    pub fn restore(&mut self, snap: &WalkerPool) {
        assert_eq!(
            snap.next_free.len(),
            self.next_free.len(),
            "walker pool snapshot size mismatch"
        );
        self.clone_from(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_overlap_up_to_pool_size() {
        let mut pool = WalkerPool::new(4);
        let mut ids = Vec::new();
        for _ in 0..4 {
            let (id, start) = pool.acquire(Cycle::new(0));
            assert_eq!(start, Cycle::new(0));
            ids.push(id);
        }
        // All four busy; release staggered and acquire again.
        for (i, id) in ids.iter().enumerate() {
            pool.release(*id, Cycle::new(50 + i as u64));
        }
        let (_, start) = pool.acquire(Cycle::new(0));
        assert_eq!(start, Cycle::new(50), "earliest-free walker is chosen");
        assert_eq!(pool.stats().wait_cycles.get(), 50);
        assert_eq!(pool.stats().walks.get(), 5);
    }

    #[test]
    fn idle_pool_starts_immediately() {
        let mut pool = WalkerPool::new(2);
        let (id, start) = pool.acquire(Cycle::new(33));
        assert_eq!(start, Cycle::new(33));
        pool.release(id, Cycle::new(40));
        let (_, start2) = pool.acquire(Cycle::new(100));
        assert_eq!(start2, Cycle::new(100));
        assert_eq!(pool.stats().wait_cycles.get(), 0);
    }

    #[test]
    fn latency_histogram_records() {
        let mut pool = WalkerPool::new(1);
        pool.record_latency(64);
        pool.record_latency(65);
        assert_eq!(pool.stats().latency.count(), 2);
    }

    #[test]
    #[should_panic(expected = "was not acquired")]
    fn double_release_rejected() {
        let mut pool = WalkerPool::new(1);
        let (id, _) = pool.acquire(Cycle::new(0));
        pool.release(id, Cycle::new(1));
        pool.release(id, Cycle::new(2));
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn empty_pool_rejected() {
        let _ = WalkerPool::new(0);
    }
}
