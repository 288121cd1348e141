//! The banked shared L2 cache.
//!
//! Table 1: the GPU's shared L2 is 2 MB in 8 banks. Lines interleave
//! across banks by low line-index bits; each bank has its own lookup
//! port (one access per cycle), so bank conflicts — not total capacity
//! — bound L2 bandwidth, as in real designs.

use crate::cache::{CacheConfig, CacheLine, CacheSnapshot, CacheStats, LineKey, SetAssocCache};
use gvc_engine::time::Cycle;
use gvc_engine::ThroughputPort;
use gvc_mem::{Asid, Perms};
use serde::{Deserialize, Error, Serialize};

/// A multi-banked cache: N independent [`SetAssocCache`] banks with
/// per-bank service ports.
///
/// ```
/// use gvc_cache::{BankedCache, CacheConfig, LineKey};
/// use gvc_engine::Cycle;
/// use gvc_mem::{Asid, Perms};
///
/// let mut l2 = BankedCache::new(CacheConfig::gpu_l2_bank(), 8, 1);
/// let key = LineKey::new(Asid(0), 123);
/// l2.insert(key, Perms::READ_WRITE, false, Cycle::new(0));
/// assert!(l2.lookup(key, Cycle::new(1)).is_some());
/// // Consecutive lines land in different banks.
/// assert_ne!(l2.bank_of(LineKey::new(Asid(0), 0)), l2.bank_of(LineKey::new(Asid(0), 1)));
/// ```
#[derive(Debug, Clone)]
pub struct BankedCache {
    banks: Vec<SetAssocCache>,
    ports: Vec<ThroughputPort>,
    /// `banks.len() - 1` when the bank count is a power of two, so the
    /// per-access interleave check is a mask instead of a 64-bit
    /// modulo (same result; `bank_of` sits on the hot L2 path).
    bank_mask: Option<u64>,
}

impl BankedCache {
    /// Builds `n_banks` banks, each with `bank_config` geometry and a
    /// `port_width`-per-cycle service port.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks` or `port_width` is zero.
    pub fn new(bank_config: CacheConfig, n_banks: usize, port_width: u32) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        BankedCache {
            banks: (0..n_banks)
                .map(|_| SetAssocCache::new(bank_config))
                .collect(),
            ports: (0..n_banks)
                .map(|_| ThroughputPort::per_cycle(port_width))
                .collect(),
            bank_mask: n_banks.is_power_of_two().then(|| n_banks as u64 - 1),
        }
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Which bank serves `key` (line-interleaved).
    pub fn bank_of(&self, key: LineKey) -> usize {
        let folded = key.line ^ ((key.asid.0 as u64) << 3);
        match self.bank_mask {
            Some(mask) => (folded & mask) as usize,
            None => (folded % self.banks.len() as u64) as usize,
        }
    }

    /// Reserves the bank port for an access arriving at `arrival`,
    /// returning the cycle at which the bank begins servicing it.
    pub fn reserve_port(&mut self, key: LineKey, arrival: Cycle) -> Cycle {
        let b = self.bank_of(key);
        self.ports[b].reserve(arrival)
    }

    /// Looks up a line in its bank (updates recency).
    pub fn lookup(&mut self, key: LineKey, now: Cycle) -> Option<CacheLine> {
        let b = self.bank_of(key);
        self.banks[b].lookup(key, now)
    }

    /// Peeks without touching recency or statistics.
    pub fn peek(&self, key: LineKey) -> Option<CacheLine> {
        self.banks[self.bank_of(key)].peek(key)
    }

    /// Inserts a line into its bank, returning the victim (if any).
    pub fn insert(
        &mut self,
        key: LineKey,
        perms: Perms,
        dirty: bool,
        now: Cycle,
    ) -> Option<CacheLine> {
        let b = self.bank_of(key);
        self.banks[b].insert(key, perms, dirty, now)
    }

    /// Marks a resident line dirty.
    pub fn mark_dirty(&mut self, key: LineKey) -> bool {
        let b = self.bank_of(key);
        self.banks[b].mark_dirty(key)
    }

    /// Invalidates one line.
    pub fn invalidate(&mut self, key: LineKey) -> Option<CacheLine> {
        let b = self.bank_of(key);
        self.banks[b].invalidate(key)
    }

    /// Invalidates every resident line of a page across all banks.
    pub fn invalidate_page(&mut self, asid: Asid, page: u64) -> Vec<CacheLine> {
        let mut removed = Vec::new();
        for bank in &mut self.banks {
            removed.extend(bank.invalidate_page(asid, page));
        }
        removed
    }

    /// Flushes all banks.
    pub fn flush(&mut self) -> Vec<CacheLine> {
        let mut removed = Vec::new();
        for bank in &mut self.banks {
            removed.extend(bank.flush());
        }
        removed
    }

    /// Total resident lines.
    pub fn len(&self) -> usize {
        self.banks.iter().map(SetAssocCache::len).sum()
    }

    /// Whether all banks are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated statistics across banks.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            total.merge(&b.stats());
        }
        total
    }

    /// Iterates over all resident lines in all banks.
    pub fn iter(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.banks.iter().flat_map(|b| b.iter())
    }

    /// Captures every bank's state plus the per-bank port backlogs for
    /// checkpointing.
    pub fn snapshot(&self) -> BankedCacheSnapshot {
        BankedCacheSnapshot {
            banks: self.banks.iter().map(SetAssocCache::snapshot).collect(),
            ports: self.ports.clone(),
        }
    }

    /// Rebuilds a banked cache from its mirror: every bank from its own
    /// mirror, with one port per bank.
    pub fn from_snapshot(snap: &BankedCacheSnapshot) -> Result<Self, Error> {
        let banks = snap.banks.iter().enumerate().map(|(i, bank)| {
            SetAssocCache::from_snapshot(bank).map_err(|e| e.at(&format!("[{i}]")).at(".banks"))
        });
        let banks = banks.collect::<Result<Vec<_>, _>>()?;
        let n = banks.len();
        if n == 0 || snap.ports.len() != n {
            return Err(Error::msg("banked cache snapshot port count mismatch"));
        }
        Ok(BankedCache {
            bank_mask: n.is_power_of_two().then(|| n as u64 - 1),
            banks,
            ports: snap.ports.clone(),
        })
    }

    /// Restores `snap` into this cache, which must have been built
    /// with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if the bank count or any bank's configuration differs.
    pub fn restore(&mut self, snap: &BankedCache) {
        assert_eq!(
            snap.banks.len(),
            self.banks.len(),
            "banked cache snapshot bank count mismatch"
        );
        for (bank, s) in self.banks.iter_mut().zip(&snap.banks) {
            bank.restore(s);
        }
        self.ports.clone_from(&snap.ports);
    }
}

gvc_engine::checkpoint_via_mirror!(BankedCache, BankedCacheSnapshot);

/// Full serializable state of a [`BankedCache`]
/// (see [`BankedCache::snapshot`]). A mirror, because each bank is
/// held as a [`CacheSnapshot`] mirror.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankedCacheSnapshot {
    /// Per-bank cache state, in bank order.
    pub banks: Vec<CacheSnapshot>,
    /// Per-bank service-port backlogs.
    pub ports: Vec<ThroughputPort>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> BankedCache {
        BankedCache::new(CacheConfig::gpu_l2_bank(), 8, 1)
    }

    fn key(line: u64) -> LineKey {
        LineKey::new(Asid(0), line)
    }

    #[test]
    fn lines_interleave_across_banks() {
        let c = l2();
        let banks: std::collections::HashSet<_> = (0..8).map(|i| c.bank_of(key(i))).collect();
        assert_eq!(banks.len(), 8, "eight consecutive lines hit eight banks");
    }

    #[test]
    fn same_bank_port_serializes() {
        let mut c = l2();
        let k = key(0);
        let t0 = c.reserve_port(k, Cycle::new(5));
        let t1 = c.reserve_port(k, Cycle::new(5));
        assert_eq!(t0, Cycle::new(5));
        assert_eq!(t1, Cycle::new(6));
        // A different bank is free.
        let other = key(1);
        assert_eq!(c.reserve_port(other, Cycle::new(5)), Cycle::new(5));
    }

    #[test]
    fn insert_lookup_invalidate_roundtrip() {
        let mut c = l2();
        c.insert(key(100), Perms::READ_WRITE, true, Cycle::new(0));
        assert!(c.lookup(key(100), Cycle::new(1)).is_some());
        assert!(c.mark_dirty(key(100)));
        let removed = c.invalidate(key(100)).unwrap();
        assert!(removed.dirty);
        assert!(c.is_empty());
    }

    #[test]
    fn page_invalidation_spans_banks() {
        let mut c = l2();
        for line in 0..32 {
            c.insert(key(line), Perms::READ_WRITE, false, Cycle::new(0));
        }
        c.insert(key(32), Perms::READ_WRITE, false, Cycle::new(0)); // page 1
        let removed = c.invalidate_page(Asid(0), 0);
        assert_eq!(removed.len(), 32);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_aggregate() {
        let mut c = l2();
        c.insert(key(1), Perms::READ_WRITE, false, Cycle::new(0));
        c.lookup(key(1), Cycle::new(1));
        c.lookup(key(2), Cycle::new(1));
        let s = c.stats();
        assert_eq!(s.lookups.get(), 2);
        assert_eq!(s.hits.get(), 1);
        assert_eq!(s.misses.get(), 1);
    }

    #[test]
    fn flush_and_iter() {
        let mut c = l2();
        for line in 0..10 {
            c.insert(key(line * 7), Perms::READ_WRITE, false, Cycle::new(0));
        }
        assert_eq!(c.iter().count(), 10);
        assert_eq!(c.flush().len(), 10);
        assert!(c.is_empty());
    }
}
