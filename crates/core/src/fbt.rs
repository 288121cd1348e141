//! The forward–backward table (FBT), the paper's central structure
//! (§4, Figure 7).
//!
//! The FBT lives at the IOMMU and is fully inclusive of the GPU's
//! virtual caches:
//!
//! * The **backward table (BT)** maps a physical page (PPN tag) to its
//!   unique *leading virtual page* — the first virtual address that
//!   referenced the page, under which all of its data is cached — plus
//!   page permissions, a 32-bit line-presence vector for the shared
//!   L2, and a written bit for read-write-synonym detection.
//! * The **forward table (FT)** maps a leading virtual page back to
//!   its BT entry's index, letting the FBT be searched by virtual
//!   address: for evictions, shootdown filtering, coherence responses,
//!   and for use as a second-level TLB ("VC With OPT").
//!
//! The leading-virtual-address discipline guarantees **no physical
//! line is ever cached under two virtual names**: accesses with a
//! non-leading (synonym) virtual address always miss the virtual
//! caches and are replayed with the leading address (§4.1).

use crate::bitvec::Presence;
use gvc_engine::checkpoint::check_slots;
use gvc_engine::{Counter, FxHashMap};
use gvc_mem::{Asid, Perms, Ppn, Vpn};
use serde::{Deserialize, Error, Serialize};

/// FBT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FbtConfig {
    /// BT entries (16 K covers a unique page per L2 line, §4.3).
    pub entries: usize,
    /// BT associativity.
    pub ways: usize,
    /// Lookup latency in cycles (the paper models 5).
    pub lookup_latency: u64,
    /// Use counters instead of bit vectors (large-page mode, §4.3).
    pub counter_mode: bool,
}

impl Default for FbtConfig {
    fn default() -> Self {
        FbtConfig {
            entries: 16 * 1024,
            ways: 8,
            lookup_latency: 5,
            counter_mode: false,
        }
    }
}

impl FbtConfig {
    /// A smaller FBT (the §4.3 "adequately provisioned" 8 K variant
    /// and the capacity-ablation sweep).
    pub fn with_entries(mut self, entries: usize) -> Self {
        self.entries = entries;
        self
    }
}

/// A leading virtual page: the unique virtual name under which a
/// physical page's data may be cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LeadingVa {
    /// Address space of the leading mapping.
    pub asid: Asid,
    /// Leading virtual page number.
    pub vpn: Vpn,
}

/// A backward-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtEntry {
    /// The physical page (tag).
    pub ppn: Ppn,
    /// The page's unique leading virtual address.
    pub leading: LeadingVa,
    /// Page permissions (checked at translation and carried to lines).
    pub perms: Perms,
    /// Which lines of the page reside in the shared L2.
    pub presence: Presence,
    /// Whether any write has touched the page while resident (for
    /// read-write synonym detection, §4.2 footnote 5).
    pub written: bool,
    /// Locked during an in-progress invalidation; locked entries
    /// cannot be evicted and block new requests to the page (§4.1).
    pub locked: bool,
}

/// A stable handle to a BT entry (the FT stores these indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BtIndex {
    set: u32,
    way: u32,
}

/// FBT statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FbtStats {
    /// BT lookups by physical page.
    pub bt_lookups: Counter,
    /// BT hits by physical page.
    pub bt_hits: Counter,
    /// FT lookups by virtual page.
    pub ft_lookups: Counter,
    /// FT hits.
    pub ft_hits: Counter,
    /// New entries allocated.
    pub inserts: Counter,
    /// Entries evicted for capacity/conflict.
    pub evictions: Counter,
    /// Evictions that still had cached lines (forced invalidations).
    pub dirty_evictions: Counter,
}

/// One occupied BT slot. Field order is the checkpoint's key order,
/// pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The resident entry.
    pub entry: BtEntry,
    /// LRU timestamp.
    pub last_use: u64,
}

/// The forward–backward table (see [module docs](self)).
///
/// ```
/// use gvc::fbt::{Fbt, FbtConfig};
/// use gvc_mem::{Asid, Perms, Ppn, Vpn};
///
/// let mut fbt = Fbt::new(FbtConfig::default());
/// let (idx, evicted) = fbt.insert(Ppn::new(7), Asid(0), Vpn::new(100), Perms::READ_WRITE);
/// assert!(evicted.is_none());
/// // Reverse translation: physical page -> leading virtual page.
/// let found = fbt.lookup_ppn(Ppn::new(7)).unwrap();
/// assert_eq!(found, idx);
/// assert_eq!(fbt.entry(found).leading.vpn, Vpn::new(100));
/// // Forward translation: leading virtual page -> physical page.
/// assert_eq!(fbt.translate(Asid(0), Vpn::new(100)), Some((Ppn::new(7), Perms::READ_WRITE)));
/// ```
#[derive(Debug, Clone)]
pub struct Fbt {
    config: FbtConfig,
    sets: Vec<Vec<Option<Slot>>>,
    ft: FxHashMap<LeadingVa, BtIndex>,
    use_clock: u64,
    occupancy: usize,
    max_occupancy: usize,
    /// How many ways new inserts may allocate into or evict from
    /// (normally `config.ways`). Fault injection shrinks this to force
    /// the §4.2 overflow/flush path; entries already resident in the
    /// disabled ways stay valid and findable for the window.
    usable_ways: usize,
    stats: FbtStats,
}

impl Fbt {
    /// Builds an FBT.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `entries`.
    pub fn new(config: FbtConfig) -> Self {
        assert!(
            config.ways > 0 && config.entries.is_multiple_of(config.ways),
            "ways must divide entries"
        );
        let nsets = config.entries / config.ways;
        Fbt {
            sets: vec![vec![None; config.ways]; nsets],
            ft: FxHashMap::default(),
            use_clock: 0,
            occupancy: 0,
            max_occupancy: 0,
            usable_ways: config.ways,
            config,
            stats: FbtStats::default(),
        }
    }

    /// Restricts new allocations (and victim selection) to the first
    /// `ways` ways of every set — the fault-injection knob for §4.2
    /// capacity pressure. Clamped to `[1, config.ways]`; pass
    /// `config.ways` to restore full capacity.
    pub fn set_usable_ways(&mut self, ways: usize) {
        self.usable_ways = ways.clamp(1, self.config.ways);
    }

    /// Ways currently available to new allocations.
    pub fn usable_ways(&self) -> usize {
        self.usable_ways
    }

    /// The configuration.
    pub fn config(&self) -> FbtConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> FbtStats {
        self.stats
    }

    /// Resident entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// High-water mark of resident entries (the paper sizes the FBT by
    /// distinct pages with data in the L2 — about 6000 on average).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    fn set_of(&self, ppn: Ppn) -> usize {
        (ppn.raw() % self.sets.len() as u64) as usize
    }

    /// Looks up the BT by physical page (reverse translation /
    /// synonym check); updates recency on a hit.
    pub fn lookup_ppn(&mut self, ppn: Ppn) -> Option<BtIndex> {
        self.stats.bt_lookups.inc();
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_of(ppn);
        for (way, slot) in self.sets[set].iter_mut().enumerate() {
            if let Some(s) = slot {
                if s.entry.ppn == ppn {
                    s.last_use = clock;
                    self.stats.bt_hits.inc();
                    return Some(BtIndex {
                        set: set as u32,
                        way: way as u32,
                    });
                }
            }
        }
        None
    }

    /// Looks up the FT by (leading) virtual page.
    pub fn lookup_va(&mut self, asid: Asid, vpn: Vpn) -> Option<BtIndex> {
        self.stats.ft_lookups.inc();
        let idx = self.ft.get(&LeadingVa { asid, vpn }).copied();
        if idx.is_some() {
            self.stats.ft_hits.inc();
        }
        idx
    }

    /// Peeks the FT by (leading) virtual page without touching
    /// statistics — for invariant checks that must not perturb counts.
    pub fn peek_va(&self, asid: Asid, vpn: Vpn) -> Option<BtIndex> {
        self.ft.get(&LeadingVa { asid, vpn }).copied()
    }

    /// Forward-translates a leading virtual page (the second-level-TLB
    /// use of the FBT, "VC With OPT").
    pub fn translate(&mut self, asid: Asid, vpn: Vpn) -> Option<(Ppn, Perms)> {
        let idx = self.lookup_va(asid, vpn)?;
        let e = self.entry(idx);
        Some((e.ppn, e.perms))
    }

    /// The entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not name a resident entry (indices are
    /// invalidated by [`Fbt::remove`] and evictions).
    pub fn entry(&self, idx: BtIndex) -> &BtEntry {
        &self.sets[idx.set as usize][idx.way as usize]
            .as_ref()
            .expect("stale BtIndex")
            .entry
    }

    /// Mutable access to the entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not name a resident entry.
    pub fn entry_mut(&mut self, idx: BtIndex) -> &mut BtEntry {
        &mut self.sets[idx.set as usize][idx.way as usize]
            .as_mut()
            .expect("stale BtIndex")
            .entry
    }

    /// Allocates an entry for `ppn` with leading virtual page
    /// `(asid, vpn)`. Returns the new index and the entry evicted to
    /// make room (whose cached lines the caller must invalidate).
    ///
    /// Victim preference: empty way, then LRU among entries with no
    /// cached lines, then LRU overall. Locked entries are never
    /// evicted. Only the first [`Fbt::usable_ways`] ways of the set
    /// participate (all of them unless fault injection shrank the
    /// table).
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is already resident (callers must check
    /// [`Fbt::lookup_ppn`] first) or if every way is locked.
    pub fn insert(
        &mut self,
        ppn: Ppn,
        asid: Asid,
        vpn: Vpn,
        perms: Perms,
    ) -> (BtIndex, Option<BtEntry>) {
        debug_assert!(
            !self.sets[self.set_of(ppn)]
                .iter()
                .flatten()
                .any(|s| s.entry.ppn == ppn),
            "ppn already resident"
        );
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_of(ppn);
        let usable = self.usable_ways;
        let slots = &mut self.sets[set];

        let way = if let Some(w) = slots[..usable].iter().position(Option::is_none) {
            w
        } else {
            // Prefer a victim with no cached lines.
            let victim = slots[..usable]
                .iter()
                .enumerate()
                .filter_map(|(w, s)| s.as_ref().map(|s| (w, s)))
                .filter(|(_, s)| !s.entry.locked)
                .min_by_key(|(_, s)| (s.entry.presence.count() > 0, s.last_use))
                .map(|(w, _)| w)
                .expect("all FBT ways locked");
            victim
        };

        let evicted = slots[way].take().map(|s| s.entry);
        if let Some(old) = &evicted {
            self.stats.evictions.inc();
            if !old.presence.is_empty() {
                self.stats.dirty_evictions.inc();
            }
            self.ft.remove(&old.leading);
            self.occupancy -= 1;
        }

        let presence = if self.config.counter_mode {
            Presence::new_counter()
        } else {
            Presence::new_bits()
        };
        let leading = LeadingVa { asid, vpn };
        slots[way] = Some(Slot {
            entry: BtEntry {
                ppn,
                leading,
                perms,
                presence,
                written: false,
                locked: false,
            },
            last_use: clock,
        });
        let idx = BtIndex {
            set: set as u32,
            way: way as u32,
        };
        self.ft.insert(leading, idx);
        self.occupancy += 1;
        self.max_occupancy = self.max_occupancy.max(self.occupancy);
        self.stats.inserts.inc();
        (idx, evicted)
    }

    /// Removes the entry at `idx` (shootdown / teardown), returning it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is stale.
    pub fn remove(&mut self, idx: BtIndex) -> BtEntry {
        let slot = self.sets[idx.set as usize][idx.way as usize]
            .take()
            .expect("stale BtIndex");
        self.ft.remove(&slot.entry.leading);
        self.occupancy -= 1;
        slot.entry
    }

    /// Removes every entry of one address space (all-entry shootdown);
    /// returns the removed entries.
    pub fn remove_asid(&mut self, asid: Asid) -> Vec<BtEntry> {
        let mut removed = Vec::new();
        for set in &mut self.sets {
            for slot in set.iter_mut() {
                if slot.as_ref().is_some_and(|s| s.entry.leading.asid == asid) {
                    let s = slot.take().expect("checked");
                    self.ft.remove(&s.entry.leading);
                    self.occupancy -= 1;
                    removed.push(s.entry);
                }
            }
        }
        removed
    }

    /// Iterates over resident entries.
    pub fn iter(&self) -> impl Iterator<Item = (BtIndex, &BtEntry)> + '_ {
        self.sets.iter().enumerate().flat_map(|(set, slots)| {
            slots.iter().enumerate().filter_map(move |(way, s)| {
                s.as_ref().map(|s| {
                    (
                        BtIndex {
                            set: set as u32,
                            way: way as u32,
                        },
                        &s.entry,
                    )
                })
            })
        })
    }

    /// Captures the FBT's full state for checkpointing. Slots are
    /// serialized per set *with holes preserved* — [`BtIndex`] handles
    /// encode `(set, way)` positions, so way placement is part of the
    /// observable state. The FT is not serialized; it is derivable
    /// from the BT and rebuilt on restore.
    pub fn snapshot(&self) -> FbtSnapshot {
        FbtSnapshot {
            config: self.config,
            sets: self.sets.clone(),
            use_clock: self.use_clock,
            max_occupancy: self.max_occupancy as u64,
            usable_ways: self.usable_ways as u64,
            stats: self.stats,
        }
    }

    /// Rebuilds an FBT from its mirror, checking the mirror's own
    /// geometry (one slot list per set, one slot per way) and
    /// re-deriving the FT index and the occupancy from the BT.
    pub fn from_snapshot(snap: &FbtSnapshot) -> Result<Self, Error> {
        // Geometry first: the allocation below is sized by the config.
        let ways = snap.config.ways;
        check_slots("FBT snapshot", snap.config.entries)?;
        if ways == 0 || snap.sets.len().checked_mul(ways) != Some(snap.config.entries) {
            return Err(Error::msg("FBT snapshot set count mismatch"));
        }
        // An insert scans the first `usable_ways` ways of a set.
        if !(1..=ways as u64).contains(&snap.usable_ways) {
            let e = Error::msg(format!("FBT snapshot usable ways outside 1..={ways}"));
            return Err(e.at(".usable_ways"));
        }
        let mut fbt = Fbt::new(snap.config);
        for (set_idx, (set, snap_set)) in fbt.sets.iter_mut().zip(&snap.sets).enumerate() {
            if snap_set.len() != set.len() {
                let e = Error::msg("FBT snapshot way count mismatch");
                return Err(e.at(&format!("[{set_idx}]")).at(".sets"));
            }
            set.copy_from_slice(snap_set);
            for (way, snap_slot) in snap_set.iter().enumerate() {
                if let Some(s) = snap_slot {
                    fbt.ft.insert(
                        s.entry.leading,
                        BtIndex {
                            set: set_idx as u32,
                            way: way as u32,
                        },
                    );
                    fbt.occupancy += 1;
                }
            }
        }
        fbt.use_clock = snap.use_clock;
        fbt.max_occupancy = snap.max_occupancy as usize;
        fbt.usable_ways = snap.usable_ways as usize;
        fbt.stats = snap.stats;
        Ok(fbt)
    }

    /// Verifies internal consistency (tests and debug harnesses):
    /// every FT entry points at a resident BT entry with the matching
    /// leading VA, every BT entry is indexed by the FT, and no PPN
    /// appears twice.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_consistency(&self) {
        let mut seen_ppn = std::collections::HashSet::new();
        let mut bt_count = 0;
        for (idx, e) in self.iter() {
            assert!(seen_ppn.insert(e.ppn), "duplicate PPN {} in BT", e.ppn);
            assert_eq!(
                self.ft.get(&e.leading),
                Some(&idx),
                "BT entry {:?} not indexed by FT",
                e.leading
            );
            bt_count += 1;
        }
        assert_eq!(bt_count, self.ft.len(), "FT size != BT size");
        assert_eq!(bt_count, self.occupancy, "occupancy counter drift");
    }
}

gvc_engine::checkpoint_via_mirror!(Fbt, FbtSnapshot, "FBT snapshot config mismatch");

/// Full serializable state of an [`Fbt`] (see [`Fbt::snapshot`]).
/// A mirror, because the FT index and the occupancy count are derived
/// from the BT and rebuilt from it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FbtSnapshot {
    /// Configuration (validated on restore).
    pub config: FbtConfig,
    /// Per-set slots with holes preserved (way positions are part of
    /// the observable state — [`BtIndex`] encodes them).
    pub sets: Vec<Vec<Option<Slot>>>,
    /// LRU clock.
    pub use_clock: u64,
    /// High-water mark of resident entries.
    pub max_occupancy: u64,
    /// Fault-injection way restriction currently in force.
    pub usable_ways: u64,
    /// Statistics so far.
    pub stats: FbtStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fbt {
        Fbt::new(FbtConfig {
            entries: 8,
            ways: 2,
            lookup_latency: 5,
            counter_mode: false,
        })
    }

    fn lead(asid: u16, vpn: u64) -> LeadingVa {
        LeadingVa {
            asid: Asid(asid),
            vpn: Vpn::new(vpn),
        }
    }

    #[test]
    fn insert_and_bidirectional_lookup() {
        let mut fbt = small();
        let (idx, ev) = fbt.insert(Ppn::new(3), Asid(1), Vpn::new(50), Perms::READ_WRITE);
        assert!(ev.is_none());
        assert_eq!(fbt.lookup_ppn(Ppn::new(3)), Some(idx));
        assert_eq!(fbt.lookup_va(Asid(1), Vpn::new(50)), Some(idx));
        assert_eq!(fbt.lookup_va(Asid(2), Vpn::new(50)), None, "homonym misses");
        assert_eq!(fbt.entry(idx).leading, lead(1, 50));
        assert_eq!(fbt.occupancy(), 1);
        fbt.check_consistency();
    }

    #[test]
    fn translate_acts_as_second_level_tlb() {
        let mut fbt = small();
        fbt.insert(Ppn::new(9), Asid(0), Vpn::new(7), Perms::READ_ONLY);
        assert_eq!(
            fbt.translate(Asid(0), Vpn::new(7)),
            Some((Ppn::new(9), Perms::READ_ONLY))
        );
        assert_eq!(fbt.translate(Asid(0), Vpn::new(8)), None);
        let s = fbt.stats();
        assert_eq!(s.ft_lookups.get(), 2);
        assert_eq!(s.ft_hits.get(), 1);
    }

    #[test]
    fn eviction_prefers_empty_presence() {
        let mut fbt = small(); // 4 sets x 2 ways
                               // Two pages in the same set (set = ppn % 4): ppn 0 and 4.
        let (i0, _) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        let (_i4, _) = fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        // Page 0 has cached lines; page 4 does not. Page 0 is also LRU.
        fbt.entry_mut(i0).presence.set(3);
        let (_, evicted) = fbt.insert(Ppn::new(8), Asid(0), Vpn::new(12), Perms::READ_WRITE);
        let e = evicted.expect("set was full");
        assert_eq!(
            e.ppn,
            Ppn::new(4),
            "empty-presence entry preferred over LRU"
        );
        fbt.check_consistency();
    }

    #[test]
    fn eviction_falls_back_to_lru() {
        let mut fbt = small();
        let (i0, _) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        let (i4, _) = fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        fbt.entry_mut(i0).presence.set(1);
        fbt.entry_mut(i4).presence.set(2);
        fbt.lookup_ppn(Ppn::new(0)); // 0 becomes MRU
        let (_, evicted) = fbt.insert(Ppn::new(8), Asid(0), Vpn::new(12), Perms::READ_WRITE);
        assert_eq!(evicted.unwrap().ppn, Ppn::new(4));
        assert_eq!(fbt.stats().dirty_evictions.get(), 1);
    }

    #[test]
    fn locked_entries_are_never_victims() {
        let mut fbt = small();
        let (i0, _) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        let (i4, _) = fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        fbt.entry_mut(i0).locked = true;
        fbt.entry_mut(i0).presence.set(1); // locked AND has lines
        fbt.entry_mut(i4).presence.set(1);
        let (_, evicted) = fbt.insert(Ppn::new(8), Asid(0), Vpn::new(12), Perms::READ_WRITE);
        assert_eq!(evicted.unwrap().ppn, Ppn::new(4), "locked entry skipped");
    }

    #[test]
    fn remove_invalidates_ft() {
        let mut fbt = small();
        let (idx, _) = fbt.insert(Ppn::new(5), Asid(0), Vpn::new(20), Perms::READ_WRITE);
        let e = fbt.remove(idx);
        assert_eq!(e.ppn, Ppn::new(5));
        assert_eq!(fbt.lookup_va(Asid(0), Vpn::new(20)), None);
        assert_eq!(fbt.lookup_ppn(Ppn::new(5)), None);
        assert_eq!(fbt.occupancy(), 0);
        fbt.check_consistency();
    }

    #[test]
    fn remove_asid_sweeps_one_space() {
        let mut fbt = small();
        fbt.insert(Ppn::new(0), Asid(1), Vpn::new(1), Perms::READ_WRITE);
        fbt.insert(Ppn::new(1), Asid(2), Vpn::new(2), Perms::READ_WRITE);
        fbt.insert(Ppn::new(2), Asid(1), Vpn::new(3), Perms::READ_WRITE);
        let removed = fbt.remove_asid(Asid(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(fbt.occupancy(), 1);
        fbt.check_consistency();
    }

    #[test]
    fn counter_mode_entries_use_counters() {
        let mut fbt = Fbt::new(FbtConfig {
            counter_mode: true,
            ..FbtConfig::default()
        });
        let (idx, _) = fbt.insert(Ppn::new(1), Asid(0), Vpn::new(1), Perms::READ_WRITE);
        assert!(!fbt.entry(idx).presence.is_exact());
    }

    #[test]
    fn max_occupancy_tracks_high_water() {
        let mut fbt = small();
        fbt.insert(Ppn::new(0), Asid(0), Vpn::new(1), Perms::READ_WRITE);
        let (idx, _) = fbt.insert(Ppn::new(1), Asid(0), Vpn::new(2), Perms::READ_WRITE);
        fbt.remove(idx);
        assert_eq!(fbt.occupancy(), 1);
        assert_eq!(fbt.max_occupancy(), 2);
    }

    #[test]
    fn iter_and_consistency_on_larger_population() {
        let mut fbt = Fbt::new(FbtConfig::default());
        for i in 0..1000 {
            fbt.insert(
                Ppn::new(i),
                Asid(0),
                Vpn::new(10_000 + i),
                Perms::READ_WRITE,
            );
        }
        assert_eq!(fbt.iter().count(), 1000);
        fbt.check_consistency();
    }

    #[test]
    fn shrunken_usable_ways_forces_conflict_evictions() {
        let mut fbt = small(); // 4 sets x 2 ways
        fbt.set_usable_ways(1);
        assert_eq!(fbt.usable_ways(), 1);
        // Same set (ppn % 4 == 0): with one usable way the second
        // insert must evict the first even though way 1 is empty.
        let (_, ev0) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        assert!(ev0.is_none());
        let (_, ev1) = fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        assert_eq!(ev1.expect("pressure evicts").ppn, Ppn::new(0));
        fbt.check_consistency();
        // Restoring capacity reopens way 1.
        fbt.set_usable_ways(2);
        let (_, ev2) = fbt.insert(Ppn::new(8), Asid(0), Vpn::new(12), Perms::READ_WRITE);
        assert!(ev2.is_none(), "full capacity uses the empty way again");
        // Out-of-range values clamp instead of panicking.
        fbt.set_usable_ways(0);
        assert_eq!(fbt.usable_ways(), 1);
        fbt.set_usable_ways(99);
        assert_eq!(fbt.usable_ways(), 2);
    }

    #[test]
    fn resident_entries_outside_usable_ways_stay_findable() {
        let mut fbt = small();
        // Fill both ways of set 0 at full capacity.
        let (_, _) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        let (i4, _) = fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        assert_eq!(i4.way, 1);
        fbt.set_usable_ways(1);
        // The way-1 entry is immune from eviction during the window...
        let (_, ev) = fbt.insert(Ppn::new(8), Asid(0), Vpn::new(12), Perms::READ_WRITE);
        assert_eq!(ev.expect("way 0 evicted").ppn, Ppn::new(0));
        // ...and still resolves by both directions.
        assert_eq!(fbt.lookup_ppn(Ppn::new(4)), Some(i4));
        assert_eq!(fbt.lookup_va(Asid(0), Vpn::new(11)), Some(i4));
        fbt.check_consistency();
    }

    #[test]
    fn snapshot_restore_is_behaviorally_identical() {
        let mut fbt = small();
        let (i0, _) = fbt.insert(Ppn::new(0), Asid(0), Vpn::new(10), Perms::READ_WRITE);
        fbt.insert(Ppn::new(4), Asid(0), Vpn::new(11), Perms::READ_WRITE);
        fbt.insert(Ppn::new(1), Asid(1), Vpn::new(20), Perms::READ_ONLY);
        fbt.entry_mut(i0).presence.set(3);
        fbt.entry_mut(i0).written = true;
        fbt.lookup_ppn(Ppn::new(4)); // recency matters for victims
        fbt.set_usable_ways(1);

        let snap = fbt.snapshot();
        let mut restored = Fbt::new(snap.config);
        restored.restore(&Fbt::from_snapshot(&snap).expect("mirror decodes"));
        assert_eq!(restored.snapshot(), snap, "restore is a fixed point");
        restored.check_consistency();

        // Lockstep: inserts must pick identical victims (LRU clocks,
        // presence, and the usable-ways restriction all restored).
        for i in 0..8 {
            let a = fbt.insert(
                Ppn::new(100 + i * 4),
                Asid(2),
                Vpn::new(1000 + i),
                Perms::READ_WRITE,
            );
            let b = restored.insert(
                Ppn::new(100 + i * 4),
                Asid(2),
                Vpn::new(1000 + i),
                Perms::READ_WRITE,
            );
            assert_eq!(a, b, "insert {i} diverged");
        }
        assert_eq!(fbt.snapshot(), restored.snapshot());
    }

    #[test]
    #[should_panic(expected = "config mismatch")]
    fn restore_rejects_mismatched_config() {
        let fbt = small();
        let mut other = Fbt::new(FbtConfig::default());
        other.restore(&fbt);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_rejected() {
        let _ = Fbt::new(FbtConfig {
            entries: 10,
            ways: 4,
            lookup_latency: 5,
            counter_mode: false,
        });
    }
}
