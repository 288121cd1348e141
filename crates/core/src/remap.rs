//! Dynamic synonym remapping (§4.3 "Future GPU System Support").
//!
//! The paper's base design replays every non-leading (synonym) access
//! through the IOMMU — cheap when synonyms are rare, wasteful if
//! future multi-process GPUs make them common. §4.3 proposes
//! integrating *dynamic synonym remapping* (Yoon & Sohi, HPCA'16): a
//! small per-CU table that remembers, for recently detected synonym
//! pages, the non-leading → leading virtual page mapping, and applies
//! it *before* the L1 lookup. Remapped accesses then hit the virtual
//! caches under the leading name directly, with no IOMMU round trip.
//!
//! Entries are performance hints only: a stale entry just redirects
//! an access to a leading name whose lines are gone, producing an
//! ordinary miss that re-resolves at the BT. Shootdowns flush the
//! tables (they are tiny and shootdowns are rare).

use crate::fbt::LeadingVa;
use gvc_engine::Counter;
use gvc_mem::{Asid, Vpn};
use serde::{Deserialize, Serialize};

/// Configuration for the per-CU synonym remapping tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RemapConfig {
    /// Entries per CU (small: synonym pages are few).
    pub entries: usize,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig { entries: 16 }
    }
}

/// Remap-table statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemapStats {
    /// Lookups performed.
    pub lookups: Counter,
    /// Lookups that produced a remapping.
    pub hits: Counter,
    /// Mappings installed.
    pub fills: Counter,
}

/// One remapping, in storage order. Field order is the checkpoint's key
/// order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    asid: Asid,
    vpn: Vpn,
    leading: LeadingVa,
    last_use: u64,
}

/// One CU's synonym remapping table: a tiny fully associative cache
/// from a non-leading virtual page to its leading virtual page.
///
/// ```
/// use gvc::fbt::LeadingVa;
/// use gvc::remap::{RemapConfig, RemapTable};
/// use gvc_mem::{Asid, Vpn};
///
/// let mut srt = RemapTable::new(RemapConfig::default());
/// let leading = LeadingVa { asid: Asid(0), vpn: Vpn::new(10) };
/// srt.install(Asid(1), Vpn::new(99), leading);
/// assert_eq!(srt.remap(Asid(1), Vpn::new(99)), Some(leading));
/// assert_eq!(srt.remap(Asid(1), Vpn::new(98)), None);
/// ```
///
/// The table is its own checkpoint (see [`RemapTable::restore`]).
/// Entries stay in storage order: eviction uses `swap_remove`, so
/// position affects future victim scans. Field order is the
/// checkpoint's key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemapTable {
    config: RemapConfig,
    entries: Vec<Entry>,
    use_clock: u64,
    stats: RemapStats,
}

impl RemapTable {
    /// Builds an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(config: RemapConfig) -> Self {
        assert!(config.entries > 0, "remap table must have entries");
        RemapTable {
            config,
            entries: Vec::new(),
            use_clock: 0,
            stats: RemapStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> RemapStats {
        self.stats
    }

    /// Looks up a remapping for `(asid, vpn)`.
    pub fn remap(&mut self, asid: Asid, vpn: Vpn) -> Option<LeadingVa> {
        self.stats.lookups.inc();
        self.use_clock += 1;
        let clock = self.use_clock;
        let hit = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)
            .map(|e| {
                e.last_use = clock;
                e.leading
            });
        if hit.is_some() {
            self.stats.hits.inc();
        }
        hit
    }

    /// Installs (or refreshes) a mapping discovered at the BT.
    pub fn install(&mut self, asid: Asid, vpn: Vpn, leading: LeadingVa) {
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)
        {
            e.leading = leading;
            e.last_use = clock;
            return;
        }
        self.stats.fills.inc();
        if self.entries.len() >= self.config.entries {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("nonempty");
            self.entries.swap_remove(victim);
        }
        self.entries.push(Entry {
            asid,
            vpn,
            leading,
            last_use: clock,
        });
    }

    /// Drops every mapping (on shootdowns).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Resident mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restores a table cloned or deserialized from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's configuration does not match.
    pub fn restore(&mut self, snap: &RemapTable) {
        assert_eq!(
            self.config, snap.config,
            "remap table snapshot config mismatch"
        );
        self.clone_from(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lead(vpn: u64) -> LeadingVa {
        LeadingVa {
            asid: Asid(0),
            vpn: Vpn::new(vpn),
        }
    }

    #[test]
    fn install_then_remap() {
        let mut t = RemapTable::new(RemapConfig { entries: 4 });
        t.install(Asid(1), Vpn::new(5), lead(50));
        assert_eq!(t.remap(Asid(1), Vpn::new(5)), Some(lead(50)));
        assert_eq!(t.remap(Asid(2), Vpn::new(5)), None, "ASIDs are distinct");
        assert_eq!(t.stats().hits.get(), 1);
        assert_eq!(t.stats().lookups.get(), 2);
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut t = RemapTable::new(RemapConfig { entries: 4 });
        t.install(Asid(0), Vpn::new(1), lead(10));
        t.install(Asid(0), Vpn::new(1), lead(20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remap(Asid(0), Vpn::new(1)), Some(lead(20)));
        assert_eq!(t.stats().fills.get(), 1, "refresh is not a fill");
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = RemapTable::new(RemapConfig { entries: 2 });
        t.install(Asid(0), Vpn::new(1), lead(10));
        t.install(Asid(0), Vpn::new(2), lead(20));
        t.remap(Asid(0), Vpn::new(1)); // 1 is MRU
        t.install(Asid(0), Vpn::new(3), lead(30));
        assert_eq!(t.remap(Asid(0), Vpn::new(2)), None, "LRU evicted");
        assert!(t.remap(Asid(0), Vpn::new(1)).is_some());
        assert!(t.remap(Asid(0), Vpn::new(3)).is_some());
    }

    #[test]
    fn flush_empties() {
        let mut t = RemapTable::new(RemapConfig::default());
        t.install(Asid(0), Vpn::new(1), lead(10));
        assert!(!t.is_empty());
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "must have entries")]
    fn zero_entries_rejected() {
        let _ = RemapTable::new(RemapConfig { entries: 0 });
    }
}
