//! The page-walk cache (PWC).
//!
//! An 8 KB physically indexed cache of page-table entries that the
//! walker consults before going to memory. Prior work (Power et al.,
//! HPCA'14, cited as [37]) found the PWC essential for keeping GPU
//! page-walk latency low; the paper inherits that design. Upper-level
//! entries (root, PDPT, PD) exhibit enormous locality because thousands
//! of pages share them; leaf PTEs get cached too but with less reuse.

use gvc_engine::Counter;
use gvc_mem::PAddr;
use serde::{Deserialize, Serialize};

/// PWC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PwcConfig {
    /// Capacity in PTE entries (8 KB / 8 B = 1024 by default).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Deepest page-table level the PWC caches, counted from the root
    /// (0). The default of 2 caches root/PDPT/PD but not leaf PTEs,
    /// matching typical hardware page-walk caches.
    pub max_cached_level: usize,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            entries: 1024,
            ways: 4,
            max_cached_level: 2,
        }
    }
}

/// One resident PWC slot, in set scan order. Field order is the
/// checkpoint's key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PwcSlot {
    tag: PAddr,
    last_use: u64,
}

/// PWC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PwcStats {
    /// Cacheable-level lookups.
    pub lookups: Counter,
    /// Hits.
    pub hits: Counter,
}

/// The page-walk cache (see [module docs](self)).
///
/// ```
/// use gvc_mem::PAddr;
/// use gvc_tlb::pwc::{Pwc, PwcConfig};
///
/// let mut pwc = Pwc::new(PwcConfig::default());
/// let pte = PAddr::new(0x1000);
/// assert!(!pwc.access(pte, 0)); // cold miss, now cached
/// assert!(pwc.access(pte, 0)); // hit
/// assert!(!pwc.access(pte, 3)); // leaf level: never cached
/// ```
///
/// The PWC is its own checkpoint (see [`Pwc::restore`]); slot order
/// within a set encodes replacement bookkeeping. Field order is the
/// checkpoint's key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pwc {
    config: PwcConfig,
    sets: Vec<Vec<PwcSlot>>,
    use_clock: u64,
    stats: PwcStats,
}

impl Pwc {
    /// Creates a PWC.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `entries`.
    pub fn new(config: PwcConfig) -> Self {
        assert!(
            config.ways > 0 && config.entries.is_multiple_of(config.ways),
            "ways must divide entries"
        );
        Pwc {
            sets: vec![Vec::new(); config.entries / config.ways],
            config,
            use_clock: 0,
            stats: PwcStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> PwcConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> PwcStats {
        self.stats
    }

    /// Accesses the PWC for the PTE at `pte_addr` on walk level
    /// `level` (0 = root). Returns `true` on a hit; on a miss the entry
    /// is filled. Levels deeper than the configured maximum always
    /// miss and are not cached.
    pub fn access(&mut self, pte_addr: PAddr, level: usize) -> bool {
        if level > self.config.max_cached_level {
            return false;
        }
        self.stats.lookups.inc();
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = (pte_addr.raw() / 8 % self.sets.len() as u64) as usize;
        let slots = &mut self.sets[set];
        if let Some(s) = slots.iter_mut().find(|s| s.tag == pte_addr) {
            s.last_use = clock;
            self.stats.hits.inc();
            return true;
        }
        if slots.len() >= self.config.ways {
            let victim = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("nonempty set");
            slots.swap_remove(victim);
        }
        slots.push(PwcSlot {
            tag: pte_addr,
            last_use: clock,
        });
        false
    }

    /// Drops all cached entries (used on shootdowns that change the
    /// page tables).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Restores a PWC cloned or deserialized from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's configuration or geometry does not
    /// match.
    pub fn restore(&mut self, snap: &Pwc) {
        assert_eq!(self.config, snap.config, "PWC snapshot config mismatch");
        assert_eq!(
            snap.sets.len(),
            self.sets.len(),
            "PWC snapshot set count mismatch"
        );
        assert!(
            snap.sets
                .iter()
                .all(|slots| slots.len() <= self.config.ways),
            "PWC snapshot overflows set"
        );
        self.clone_from(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_levels_cache_and_hit() {
        let mut pwc = Pwc::new(PwcConfig::default());
        for level in 0..3 {
            let pa = PAddr::new(0x1000 * (level as u64 + 1));
            assert!(!pwc.access(pa, level));
            assert!(pwc.access(pa, level));
        }
        assert_eq!(pwc.stats().lookups.get(), 6);
        assert_eq!(pwc.stats().hits.get(), 3);
    }

    #[test]
    fn leaf_level_bypasses() {
        let mut pwc = Pwc::new(PwcConfig::default());
        let pa = PAddr::new(0x2000);
        assert!(!pwc.access(pa, 3));
        assert!(!pwc.access(pa, 3), "leaf entries are never cached");
        assert_eq!(pwc.stats().lookups.get(), 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut pwc = Pwc::new(PwcConfig {
            entries: 2,
            ways: 2,
            max_cached_level: 2,
        });
        pwc.access(PAddr::new(0), 0);
        pwc.access(PAddr::new(8), 0);
        pwc.access(PAddr::new(0), 0); // 0 is MRU
        pwc.access(PAddr::new(16), 0); // evicts 8
        assert!(pwc.access(PAddr::new(0), 0));
        assert!(!pwc.access(PAddr::new(8), 0));
    }

    #[test]
    fn flush_empties() {
        let mut pwc = Pwc::new(PwcConfig::default());
        pwc.access(PAddr::new(0x1000), 1);
        pwc.flush();
        assert!(!pwc.access(PAddr::new(0x1000), 1));
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_rejected() {
        let _ = Pwc::new(PwcConfig {
            entries: 10,
            ways: 3,
            max_cached_level: 2,
        });
    }
}
