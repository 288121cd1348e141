//! A generic TLB: fully associative, set-associative, or infinite.
//!
//! The same structure serves as the 32-entry per-CU TLB, the 512- or
//! 16K-entry shared IOMMU TLB, and the infinite TLB of the IDEAL MMU.
//! Entries are keyed by `(Asid, Vpn)` so homonyms (the same virtual
//! page in different address spaces) never collide.

use gvc_engine::checkpoint::check_slots;
use gvc_engine::time::Cycle;
use gvc_engine::{Counter, EntryKey, SortedMap};
use gvc_mem::{Asid, AsidKey, Perms, Ppn, Vpn};
use serde::{Deserialize, Error, Serialize};

/// The lookup key: address space + virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TlbKey {
    /// Address-space identifier.
    pub asid: Asid,
    /// Virtual page number.
    pub vpn: Vpn,
}

impl TlbKey {
    /// Builds a key.
    pub fn new(asid: Asid, vpn: Vpn) -> Self {
        TlbKey { asid, vpn }
    }

    /// The key packed into one `u64` ([`AsidKey`]), the form the tag
    /// arrays and in-flight fill maps store.
    #[inline]
    pub fn packed(self) -> AsidKey {
        debug_assert!(
            self.vpn.raw() >> AsidKey::INDEX_BITS == 0,
            "VPN exceeds 48 bits"
        );
        AsidKey::new(self.asid, self.vpn.raw())
    }
}

impl From<AsidKey> for TlbKey {
    #[inline]
    fn from(k: AsidKey) -> Self {
        TlbKey::new(k.asid(), Vpn::new(k.index()))
    }
}

/// The checked pack of an in-flight translation fill's checkpoint key.
impl TryFrom<TlbKey> for AsidKey {
    type Error = &'static str;

    fn try_from(k: TlbKey) -> Result<Self, Self::Error> {
        AsidKey::checked(k.asid, k.vpn.raw())
            .ok_or("in-flight TLB fill snapshot VPN exceeds 48 bits")
    }
}

impl EntryKey for TlbKey {}

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbEntry {
    /// The physical page.
    pub ppn: Ppn,
    /// Page permissions.
    pub perms: Perms,
    /// When the entry was inserted (for lifetime statistics).
    pub inserted_at: Cycle,
}

/// An entry displaced by an insertion, with its residence time
/// (Figure 12's "per-CU TLB entry" lifetime samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced key.
    pub key: TlbKey,
    /// The displaced translation.
    pub entry: TlbEntry,
    /// When the displacement happened.
    pub evicted_at: Cycle,
}

impl Evicted {
    /// Cycles the entry spent resident.
    pub fn lifetime(&self) -> u64 {
        self.evicted_at
            .raw()
            .saturating_sub(self.entry.inserted_at.raw())
    }
}

/// How the TLB is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TlbOrganization {
    /// Fully associative with true LRU (the paper's per-CU TLBs).
    FullyAssociative {
        /// Total entries.
        entries: usize,
    },
    /// Set-associative with per-set LRU (the shared IOMMU TLB).
    SetAssociative {
        /// Total entries.
        entries: usize,
        /// Ways per set; must divide `entries`.
        ways: usize,
    },
    /// Unbounded (IDEAL MMU / demand-miss measurement).
    Infinite,
}

impl TlbOrganization {
    /// The bounded arrays' `(sets, ways)`; `None` when a bounded
    /// organization has no entries or its ways do not divide them.
    fn geometry(self) -> Option<(usize, usize)> {
        match self {
            TlbOrganization::FullyAssociative { entries } => (entries > 0).then_some((1, entries)),
            TlbOrganization::SetAssociative { entries, ways } => {
                (ways > 0 && entries % ways == 0).then(|| (entries / ways, ways))
            }
            TlbOrganization::Infinite => Some((0, 0)),
        }
    }
}

/// A page-size-aware *reach* sub-array: a second, separately tagged
/// array whose entries each cover a whole `span`-page-aligned virtual
/// block (512 pages = one 2 MB huge page; 8 pages = one coalesced
/// subregion, after "Enabling Large-Reach TLBs"). Both sub-arrays are
/// probed on every lookup, as split-page-size TLB hardware does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReachConfig {
    /// Entries in the reach sub-array (fully associative, true LRU).
    pub entries: usize,
    /// Pages covered by one reach entry. Must exceed 1; the covered
    /// block is `span`-aligned and must be physically contiguous with
    /// uniform permissions (the inserter's obligation).
    pub span: u64,
}

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Size/associativity of the base (4 KB) array.
    pub organization: TlbOrganization,
    /// Optional page-size-aware reach sub-array; `None` (every
    /// original preset) reproduces the single-array TLB exactly.
    pub reach: Option<ReachConfig>,
}

impl TlbConfig {
    /// The paper's default per-CU TLB: 32 entries, fully associative.
    pub fn per_cu(entries: usize) -> Self {
        TlbConfig {
            organization: TlbOrganization::FullyAssociative { entries },
            reach: None,
        }
    }

    /// A shared TLB of `entries` entries, 8-way set associative.
    pub fn shared(entries: usize) -> Self {
        TlbConfig {
            organization: TlbOrganization::SetAssociative { entries, ways: 8 },
            reach: None,
        }
    }

    /// An infinite TLB.
    pub fn infinite() -> Self {
        TlbConfig {
            organization: TlbOrganization::Infinite,
            reach: None,
        }
    }

    /// Adds a reach sub-array of `entries` entries spanning `span`
    /// pages each (see [`ReachConfig`]).
    pub fn with_reach(mut self, entries: usize, span: u64) -> Self {
        self.reach = Some(ReachConfig { entries, span });
        self
    }
}

/// Filler for unoccupied flat-array slots (never observable: scans
/// stop at each set's occupancy).
const EMPTY_ENTRY: TlbEntry = TlbEntry {
    ppn: Ppn::new(0),
    perms: Perms::NONE,
    inserted_at: Cycle::ZERO,
};

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups performed.
    pub lookups: Counter,
    /// Lookups that hit.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Entries displaced by capacity/conflict.
    pub evictions: Counter,
    /// Entries removed by invalidation.
    pub invalidations: Counter,
}

impl TlbStats {
    /// Miss ratio over all lookups (0.0 if none).
    pub fn miss_ratio(&self) -> f64 {
        self.misses.ratio_of(self.lookups.get())
    }

    /// Folds another TLB's statistics into these, counter by counter
    /// (see [`Counter::merge`]).
    pub fn merge(&mut self, other: &TlbStats) {
        self.lookups.merge(&other.lookups);
        self.hits.merge(&other.hits);
        self.misses.merge(&other.misses);
        self.evictions.merge(&other.evictions);
        self.invalidations.merge(&other.invalidations);
    }
}

/// A TLB (see [module docs](self)).
///
/// ```
/// use gvc_engine::Cycle;
/// use gvc_mem::{Asid, Perms, Ppn, Vpn};
/// use gvc_tlb::tlb::{Tlb, TlbConfig, TlbKey};
///
/// let mut tlb = Tlb::new(TlbConfig::per_cu(2));
/// let k = |v| TlbKey::new(Asid(0), Vpn::new(v));
/// tlb.insert(k(1), Ppn::new(10), Perms::READ_WRITE, Cycle::new(0));
/// tlb.insert(k(2), Ppn::new(20), Perms::READ_WRITE, Cycle::new(1));
/// assert!(tlb.lookup(k(1), Cycle::new(2)).is_some()); // 1 is now MRU
/// // Inserting a third entry evicts the LRU entry, which is 2.
/// let ev = tlb.insert(k(3), Ppn::new(30), Perms::READ_WRITE, Cycle::new(3));
/// assert_eq!(ev.unwrap().key, k(2));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Set count (1 when fully associative, 0 when infinite).
    n_sets: usize,
    /// `n_sets - 1` when that is a power of two (every real geometry),
    /// so [`Self::set_index`] masks instead of divides.
    set_mask: Option<u64>,
    /// Struct-of-arrays bounded storage, strided by way: slot `(s, w)`
    /// lives at `s*ways + w`; set `s` occupies
    /// `s*ways .. s*ways + occupancy[s]`. The way scan touches only
    /// the packed tags ([`TlbKey::packed`]); a [`TlbKey`] is unpacked
    /// from its tag when one is needed. Within-set slot order is
    /// append on fill, swap-remove on evict and ordered compaction on
    /// invalidate.
    packed: Vec<AsidKey>,
    entries: Vec<TlbEntry>,
    last_use: Vec<u64>,
    occupancy: Vec<u32>,
    /// Infinite organization storage.
    unbounded: SortedMap<TlbKey, TlbEntry>,
    /// MRU hint: `(tag, slot, set)` of the most recent bounded hit or
    /// insert. Coalesced line requests translate the same page many
    /// times back to back; the hint lets [`Self::lookup`] skip the
    /// index fold and way scan for those repeats. Purely an
    /// accelerator: it is verified against the live span before use
    /// (keys are unique, so a verified match IS the entry), and a
    /// stale hint just falls back to the scan.
    last_hit: Option<(AsidKey, usize, usize)>,
    ways: usize,
    use_clock: u64,
    stats: TlbStats,
    /// The reach sub-array, when configured: a nested single-array TLB
    /// keyed by `(asid, span-aligned base vpn)` whose entries store the
    /// block's base PPN. Its statistics are the per-size (large-entry)
    /// half of the split counters.
    reach: Option<Box<Tlb>>,
}

impl Tlb {
    /// Creates a TLB.
    ///
    /// # Panics
    ///
    /// Panics if a bounded organization has zero entries, `ways` does
    /// not divide `entries`, or a reach sub-array has zero entries or a
    /// span below 2.
    pub fn new(config: TlbConfig) -> Self {
        let reach = config.reach.map(|r| {
            assert!(r.span > 1, "reach span must cover more than one page");
            Box::new(Tlb::new(TlbConfig {
                organization: TlbOrganization::FullyAssociative { entries: r.entries },
                reach: None,
            }))
        });
        let (nsets, ways) = config
            .organization
            .geometry()
            .expect("a bounded TLB must have entries, and ways must divide entries");
        let total = nsets * ways;
        Tlb {
            config,
            n_sets: nsets,
            set_mask: (nsets > 0 && nsets.is_power_of_two()).then(|| nsets as u64 - 1),
            packed: vec![AsidKey::default(); total],
            entries: vec![EMPTY_ENTRY; total],
            last_use: vec![0; total],
            occupancy: vec![0; nsets],
            unbounded: SortedMap::default(),
            last_hit: None,
            ways,
            use_clock: 0,
            stats: TlbStats::default(),
            reach,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Statistics of the base (4 KB) array. Every lookup first probes
    /// the reach sub-array (when configured); only lookups that miss it
    /// reach the base array and are counted here, so base and reach
    /// statistics each satisfy `hits + misses == lookups` on their own.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Statistics of the reach sub-array (the per-size split's
    /// large-entry half), if one is configured.
    pub fn reach_stats(&self) -> Option<TlbStats> {
        self.reach.as_ref().map(|r| r.stats())
    }

    /// Pages covered by one reach entry, if a reach sub-array is
    /// configured.
    pub fn reach_span(&self) -> Option<u64> {
        self.config.reach.map(|r| r.span)
    }

    /// Number of resident reach entries (0 without a reach sub-array).
    pub fn reach_len(&self) -> usize {
        self.reach.as_ref().map_or(0, |r| r.len())
    }

    /// Iterates over resident reach entries; keys hold the span-aligned
    /// base VPN, entries the block's base PPN.
    pub fn iter_reach(&self) -> impl Iterator<Item = (TlbKey, TlbEntry)> + '_ {
        self.reach.iter().flat_map(|r| r.iter())
    }

    /// The reach key covering `key`, and `key`'s page offset inside it.
    #[inline]
    fn reach_key(key: TlbKey, span: u64) -> (TlbKey, u64) {
        let off = key.vpn.raw() % span;
        (TlbKey::new(key.asid, Vpn::new(key.vpn.raw() - off)), off)
    }

    /// Number of resident entries in the base (4 KB) array.
    pub fn len(&self) -> usize {
        if self.is_infinite() {
            self.unbounded.len()
        } else {
            self.occupancy.iter().map(|&n| n as usize).sum()
        }
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn is_infinite(&self) -> bool {
        matches!(self.config.organization, TlbOrganization::Infinite)
    }

    fn set_index(&self, key: TlbKey) -> usize {
        // Mix the ASID in so homonym-heavy workloads spread across sets.
        // An odd-constant multiply folds ASID bits below the set-index
        // width; a plain left shift would put them above the modulus
        // (at most 2^11 sets here) and be discarded entirely.
        let folded = key.vpn.raw() ^ key.asid.fold();
        // Identical result either way; the mask path skips the division.
        match self.set_mask {
            Some(mask) => (folded & mask) as usize,
            None => (folded % self.n_sets as u64) as usize,
        }
    }

    /// The occupied slot range of set `set` in the flat arrays.
    #[inline]
    fn span(&self, set: usize) -> (usize, usize) {
        let base = set * self.ways;
        (base, base + self.occupancy[set] as usize)
    }

    /// The slot of tag `p` in `set`, if resident: one way scan over
    /// the set's tag slice.
    #[inline]
    fn find(&self, set: usize, p: AsidKey) -> Option<usize> {
        let (base, end) = self.span(set);
        let w = self.packed[base..end].iter().position(|&t| t == p)?;
        Some(base + w)
    }

    /// Looks up a translation, updating recency on a hit.
    pub fn lookup(&mut self, key: TlbKey, now: Cycle) -> Option<TlbEntry> {
        self.lookup_tagged(key, now).map(|(e, _)| e)
    }

    /// Looks up a translation, additionally reporting whether the hit
    /// came from the reach sub-array (`true`) or the base array
    /// (`false`). A reach hit synthesizes the 4 KB view: base PPN plus
    /// the page's offset within the span.
    pub fn lookup_tagged(&mut self, key: TlbKey, now: Cycle) -> Option<(TlbEntry, bool)> {
        if let Some(span) = self.config.reach.map(|r| r.span) {
            let (rkey, off) = Self::reach_key(key, span);
            let reach = self.reach.as_mut().expect("reach config implies array");
            if let Some(e) = reach.lookup(rkey, now) {
                return Some((
                    TlbEntry {
                        ppn: Ppn::new(e.ppn.raw() + off),
                        perms: e.perms,
                        inserted_at: e.inserted_at,
                    },
                    true,
                ));
            }
        }
        self.lookup_base(key, now).map(|e| (e, false))
    }

    /// The base-array half of [`Self::lookup_tagged`].
    fn lookup_base(&mut self, key: TlbKey, _now: Cycle) -> Option<TlbEntry> {
        self.stats.lookups.inc();
        let found = if self.is_infinite() {
            self.unbounded.get(&key).copied()
        } else {
            self.use_clock += 1;
            let clock = self.use_clock;
            let p = key.packed();
            if let Some((hp, idx, hset)) = self.last_hit {
                if hp == p {
                    let (base, end) = self.span(hset);
                    if idx >= base && idx < end && self.packed[idx] == p {
                        self.last_use[idx] = clock;
                        self.stats.hits.inc();
                        return Some(self.entries[idx]);
                    }
                }
            }
            let set = self.set_index(key);
            self.find(set, p).map(|i| {
                self.last_use[i] = clock;
                self.last_hit = Some((p, i, set));
                self.entries[i]
            })
        };
        if found.is_some() {
            self.stats.hits.inc();
        } else {
            self.stats.misses.inc();
        }
        found
    }

    /// Counts a lookup that missed because its translation fill is
    /// still in flight (an MSHR-merged miss). Hardware would report
    /// these as misses even though the entry is already allocated.
    pub fn record_merged_miss(&mut self) {
        self.stats.lookups.inc();
        self.stats.misses.inc();
    }

    /// Peeks without updating recency or statistics. Like
    /// [`Self::lookup`], the reach sub-array is consulted first.
    pub fn peek(&self, key: TlbKey) -> Option<TlbEntry> {
        if let Some(span) = self.config.reach.map(|r| r.span) {
            let (rkey, off) = Self::reach_key(key, span);
            if let Some(e) = self.reach.as_ref().expect("reach array").peek(rkey) {
                return Some(TlbEntry {
                    ppn: Ppn::new(e.ppn.raw() + off),
                    perms: e.perms,
                    inserted_at: e.inserted_at,
                });
            }
        }
        if self.is_infinite() {
            self.unbounded.get(&key).copied()
        } else {
            self.find(self.set_index(key), key.packed())
                .map(|i| self.entries[i])
        }
    }

    /// Inserts a translation (replacing any stale entry for the key)
    /// and returns the entry it displaced, if any.
    pub fn insert(&mut self, key: TlbKey, ppn: Ppn, perms: Perms, now: Cycle) -> Option<Evicted> {
        let entry = TlbEntry {
            ppn,
            perms,
            inserted_at: now,
        };
        if self.is_infinite() {
            self.unbounded.insert(key, entry);
            return None;
        }
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_index(key);
        let p = key.packed();
        if let Some(i) = self.find(set, p) {
            self.entries[i] = entry;
            self.last_use[i] = clock;
            self.last_hit = Some((p, i, set));
            return None;
        }
        let (base, mut end) = self.span(set);
        let mut displaced = None;
        if end - base >= self.ways {
            // `min_by_key` keeps the first minimum in scan order.
            let (w, _) = self.last_use[base..end]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &u)| u)
                .expect("a full set is not empty");
            let victim = base + w;
            let v_key = self.packed[victim].into();
            let v_entry = self.entries[victim];
            // swap_remove: the set's last slot moves into the hole.
            let last = end - 1;
            self.packed[victim] = self.packed[last];
            self.entries[victim] = self.entries[last];
            self.last_use[victim] = self.last_use[last];
            self.occupancy[set] -= 1;
            end -= 1;
            self.stats.evictions.inc();
            displaced = Some(Evicted {
                key: v_key,
                entry: v_entry,
                evicted_at: now,
            });
        }
        self.packed[end] = p;
        self.entries[end] = entry;
        self.last_use[end] = clock;
        self.occupancy[set] += 1;
        self.last_hit = Some((p, end, set));
        displaced
    }

    /// Inserts a translation, routing it to the reach sub-array when
    /// `span_backed` and one is configured. `span_backed` is the
    /// caller's assertion that the whole span-aligned block containing
    /// `key.vpn` is physically contiguous with uniform permissions (a
    /// 2 MB leaf, or a subregion the fill path proved contiguous), so
    /// one fill caches the entire block: `ppn` may be any page of it —
    /// the block's base PPN is recovered from the in-span offset.
    /// Without a reach sub-array, or for `span_backed == false`, this
    /// is exactly [`Self::insert`].
    pub fn insert_sized(
        &mut self,
        key: TlbKey,
        ppn: Ppn,
        perms: Perms,
        now: Cycle,
        span_backed: bool,
    ) -> Option<Evicted> {
        if span_backed {
            if let Some(span) = self.config.reach.map(|r| r.span) {
                let (rkey, off) = Self::reach_key(key, span);
                let base_ppn = Ppn::new(ppn.raw() - off);
                return self
                    .reach
                    .as_mut()
                    .expect("reach config implies array")
                    .insert(rkey, base_ppn, perms, now);
            }
        }
        self.insert(key, ppn, perms, now)
    }

    /// Removes every slot of `set` failing `keep`, preserving the
    /// relative order of survivors (`Vec::retain` semantics); returns
    /// how many were removed.
    fn retain_set(&mut self, set: usize, keep: impl Fn(TlbKey) -> bool) -> usize {
        let (base, end) = self.span(set);
        let mut write = base;
        for read in base..end {
            if keep(self.packed[read].into()) {
                if write != read {
                    self.packed[write] = self.packed[read];
                    self.entries[write] = self.entries[read];
                    self.last_use[write] = self.last_use[read];
                }
                write += 1;
            }
        }
        let removed = end - write;
        self.occupancy[set] = (write - base) as u32;
        removed
    }

    /// Invalidates one entry; returns whether anything was removed.
    ///
    /// With a reach sub-array, the reach entry covering `key.vpn` is
    /// removed too: a single-page shootdown must kill every cached view
    /// of that page, and the covering large entry *is* such a view (its
    /// removal in turn drops all of the block's subpage views at once —
    /// the cross-size shootdown coherence both directions need).
    pub fn invalidate(&mut self, key: TlbKey) -> bool {
        let base_removed = if self.is_infinite() {
            self.unbounded.remove(&key).is_some()
        } else {
            let set = self.set_index(key);
            self.retain_set(set, |k| k != key) != 0
        };
        if base_removed {
            self.stats.invalidations.inc();
        }
        let mut reach_removed = false;
        if let Some(span) = self.config.reach.map(|r| r.span) {
            let (rkey, _) = Self::reach_key(key, span);
            reach_removed = self
                .reach
                .as_mut()
                .expect("reach config implies array")
                .invalidate(rkey);
        }
        base_removed || reach_removed
    }

    /// Invalidates every entry of one address space (all-entry
    /// shootdown); returns how many were removed, reach entries
    /// included.
    pub fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let mut removed = 0;
        if self.is_infinite() {
            let before = self.unbounded.len();
            self.unbounded.retain(|k, _| k.asid != asid);
            removed = before - self.unbounded.len();
        } else {
            for set in 0..self.n_sets {
                removed += self.retain_set(set, |k| k.asid != asid);
            }
        }
        self.stats.invalidations.add(removed as u64);
        if let Some(r) = self.reach.as_mut() {
            removed += r.invalidate_asid(asid);
        }
        removed
    }

    /// Drops every entry; returns how many were resident, reach entries
    /// included.
    pub fn flush(&mut self) -> usize {
        let n = self.len();
        self.unbounded.clear();
        self.occupancy.fill(0);
        self.stats.invalidations.add(n as u64);
        n + self.reach.as_mut().map_or(0, |r| r.flush())
    }

    /// Iterates over resident base-array entries (diagnostics and
    /// invariants); see [`Self::iter_reach`] for the reach sub-array.
    pub fn iter(&self) -> impl Iterator<Item = (TlbKey, TlbEntry)> + '_ {
        let bounded = (0..self.n_sets).flat_map(move |set| {
            let (base, end) = self.span(set);
            (base..end).map(move |i| (self.packed[i].into(), self.entries[i]))
        });
        let unbounded = self.unbounded.iter().map(|(k, e)| (*k, *e));
        bounded.chain(unbounded)
    }

    /// Captures the TLB's full behavioral state for checkpointing:
    /// resident slots in within-set scan order (which encodes the
    /// replacement bookkeeping exactly), the LRU clock, and statistics.
    /// The `last_hit` MRU hint is deliberately omitted — it is a pure
    /// accelerator whose absence changes no lookup result, recency
    /// update, or statistic.
    pub fn snapshot(&self) -> TlbSnapshot {
        let sets = (0..self.n_sets)
            .map(|set| {
                let (base, end) = self.span(set);
                (base..end)
                    .map(|i| TlbSlotSnapshot {
                        key: self.packed[i].into(),
                        entry: self.entries[i],
                        last_use: self.last_use[i],
                    })
                    .collect()
            })
            .collect();
        TlbSnapshot {
            config: self.config,
            sets,
            unbounded: self.unbounded.clone(),
            use_clock: self.use_clock,
            stats: self.stats,
            reach: self.reach.as_ref().map(|r| Box::new(r.snapshot())),
        }
    }

    /// Rebuilds a TLB from its mirror, checking the mirror's own
    /// geometry: one slot list per set, none longer than the ways,
    /// every VPN within 48 bits, and a reach sub-array exactly when
    /// the configuration has one.
    pub fn from_snapshot(snap: &TlbSnapshot) -> Result<Self, Error> {
        // Geometry first: the allocation below is sized by the config.
        let geometry = snap.config.organization.geometry();
        let reach = snap.config.reach.map_or(0, |r| r.entries);
        check_slots(
            "TLB snapshot",
            geometry.map_or(0, |(sets, ways)| sets * ways),
        )?;
        check_slots("TLB snapshot reach sub-array", reach)?;
        if geometry.map(|(sets, _)| sets) != Some(snap.sets.len()) {
            return Err(Error::msg("TLB snapshot set count mismatch"));
        }
        if snap
            .config
            .reach
            .is_some_and(|r| r.entries == 0 || r.span < 2)
        {
            return Err(Error::msg("TLB snapshot reach sub-array mismatch"));
        }
        let mut t = Tlb::new(snap.config);
        for (set, slots) in snap.sets.iter().enumerate() {
            let at_set = |e: Error| e.at(&format!("[{set}]")).at(".sets");
            if slots.len() > t.ways {
                let overflow = format!("TLB snapshot set {set} overflows {} ways", t.ways);
                return Err(at_set(Error::msg(overflow)));
            }
            for (i, slot) in (set * t.ways..).zip(slots) {
                t.packed[i] = AsidKey::checked(slot.key.asid, slot.key.vpn.raw())
                    .ok_or_else(|| at_set(Error::msg("TLB snapshot VPN exceeds 48 bits")))?;
                t.entries[i] = slot.entry;
                t.last_use[i] = slot.last_use;
            }
            t.occupancy[set] = slots.len() as u32;
        }
        t.unbounded.clone_from(&snap.unbounded);
        t.use_clock = snap.use_clock;
        t.stats = snap.stats;
        t.reach = match (t.reach.take(), snap.reach.as_deref()) {
            (Some(r), Some(s)) if r.config == s.config => {
                Some(Box::new(Tlb::from_snapshot(s).map_err(|e| e.at(".reach"))?))
            }
            (None, None) => None,
            _ => return Err(Error::msg("TLB snapshot reach sub-array mismatch")),
        };
        Ok(t)
    }
}

gvc_engine::checkpoint_via_mirror!(Tlb, TlbSnapshot, "TLB snapshot config mismatch");

/// One resident bounded-TLB slot, in within-set scan order. A mirror,
/// because the live TLB keeps its slots as SoA tag arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbSlotSnapshot {
    /// The slot's key.
    pub key: TlbKey,
    /// The slot's translation.
    pub entry: TlbEntry,
    /// The slot's LRU clock stamp.
    pub last_use: u64,
}

/// Full serializable state of a [`Tlb`] (see [`Tlb::snapshot`]).
/// A mirror, because the SoA tag arrays and the MRU hint are rebuilt
/// from it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbSnapshot {
    /// Organization the TLB was built with (validated on restore).
    pub config: TlbConfig,
    /// Per-set resident slots, in scan order.
    pub sets: Vec<Vec<TlbSlotSnapshot>>,
    /// Infinite-organization entries, written sorted by `(asid, vpn)`.
    pub unbounded: SortedMap<TlbKey, TlbEntry>,
    /// The LRU use clock.
    pub use_clock: u64,
    /// Statistics so far.
    pub stats: TlbStats,
    /// Reach sub-array state, present exactly when the configuration
    /// has one (`None` for every original single-array preset).
    pub reach: Option<Box<TlbSnapshot>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64) -> TlbKey {
        TlbKey::new(Asid(0), Vpn::new(v))
    }

    fn fill(tlb: &mut Tlb, range: std::ops::Range<u64>) {
        for (i, v) in range.enumerate() {
            tlb.insert(
                key(v),
                Ppn::new(v + 100),
                Perms::READ_WRITE,
                Cycle::new(i as u64),
            );
        }
    }

    #[test]
    fn packed_tags_keep_all_48_vpn_bits() {
        // Two VPNs agreeing on the low 32 bits but differing above: a
        // pack that silently truncated high bits (e.g. folding into
        // fewer than 48+16 bits) would collapse these onto one tag and
        // alias the translations.
        let hi = Vpn::new((1u64 << 48) - 1);
        let lo = Vpn::new(((1u64 << 48) - 1) & 0xFFFF_FFFF);
        assert_ne!(
            TlbKey::new(Asid(3), hi).packed(),
            TlbKey::new(Asid(3), lo).packed(),
            "pack lost VPN bits above bit 31"
        );
        let mut tlb = Tlb::new(TlbConfig::per_cu(8));
        tlb.insert(
            TlbKey::new(Asid(3), hi),
            Ppn::new(1),
            Perms::READ_WRITE,
            Cycle::new(0),
        );
        assert!(
            tlb.lookup(TlbKey::new(Asid(3), lo), Cycle::new(1))
                .is_none(),
            "near-2^48 VPN aliased its truncation in the way scan"
        );
        assert!(tlb
            .lookup(TlbKey::new(Asid(3), hi), Cycle::new(2))
            .is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "VPN exceeds 48 bits")]
    fn pack_rejects_vpn_past_48_bits() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(8));
        tlb.insert(
            TlbKey::new(Asid(0), Vpn::new(1u64 << 48)),
            Ppn::new(1),
            Perms::READ_WRITE,
            Cycle::new(0),
        );
    }

    #[test]
    fn hit_returns_translation() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(4));
        tlb.insert(key(7), Ppn::new(70), Perms::READ_ONLY, Cycle::new(0));
        let e = tlb.lookup(key(7), Cycle::new(1)).expect("hit");
        assert_eq!(e.ppn, Ppn::new(70));
        assert_eq!(e.perms, Perms::READ_ONLY);
        assert_eq!(tlb.stats().hits.get(), 1);
        assert_eq!(tlb.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn lru_eviction_order_fully_associative() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(3));
        fill(&mut tlb, 0..3);
        // Touch 0 and 1; 2 becomes LRU.
        tlb.lookup(key(0), Cycle::new(10));
        tlb.lookup(key(1), Cycle::new(11));
        let ev = tlb
            .insert(key(9), Ppn::new(9), Perms::READ_WRITE, Cycle::new(12))
            .unwrap();
        assert_eq!(ev.key, key(2));
        assert_eq!(tlb.stats().evictions.get(), 1);
    }

    #[test]
    fn eviction_reports_lifetime() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(1));
        tlb.insert(key(1), Ppn::new(1), Perms::READ_WRITE, Cycle::new(100));
        let ev = tlb
            .insert(key(2), Ppn::new(2), Perms::READ_WRITE, Cycle::new(350))
            .unwrap();
        assert_eq!(ev.lifetime(), 250);
        assert_eq!(ev.entry.inserted_at, Cycle::new(100));
    }

    #[test]
    fn set_associative_conflicts_stay_within_set() {
        let mut tlb = Tlb::new(TlbConfig {
            organization: TlbOrganization::SetAssociative {
                entries: 8,
                ways: 2,
            },
            reach: None,
        });
        // Keys 0, 4, 8 share set 0 (4 sets).
        fill(&mut tlb, 0..1);
        tlb.insert(key(4), Ppn::new(104), Perms::READ_WRITE, Cycle::new(1));
        tlb.insert(key(8), Ppn::new(108), Perms::READ_WRITE, Cycle::new(2));
        assert!(
            tlb.lookup(key(0), Cycle::new(3)).is_none(),
            "0 was the set's LRU"
        );
        assert!(tlb.peek(key(4)).is_some());
        assert!(tlb.peek(key(8)).is_some());
    }

    #[test]
    fn infinite_never_evicts() {
        let mut tlb = Tlb::new(TlbConfig::infinite());
        for v in 0..10_000 {
            assert!(tlb
                .insert(key(v), Ppn::new(v), Perms::READ_WRITE, Cycle::new(v))
                .is_none());
        }
        assert_eq!(tlb.len(), 10_000);
        assert!(tlb.lookup(key(0), Cycle::new(1)).is_some());
    }

    #[test]
    fn reinserting_same_key_updates_in_place() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(2));
        tlb.insert(key(1), Ppn::new(1), Perms::READ_ONLY, Cycle::new(0));
        assert!(tlb
            .insert(key(1), Ppn::new(2), Perms::READ_WRITE, Cycle::new(1))
            .is_none());
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.peek(key(1)).unwrap().ppn, Ppn::new(2));
    }

    #[test]
    fn homonyms_do_not_collide() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(4));
        let ka = TlbKey::new(Asid(1), Vpn::new(5));
        let kb = TlbKey::new(Asid(2), Vpn::new(5));
        tlb.insert(ka, Ppn::new(10), Perms::READ_WRITE, Cycle::new(0));
        tlb.insert(kb, Ppn::new(20), Perms::READ_WRITE, Cycle::new(0));
        assert_eq!(tlb.lookup(ka, Cycle::new(1)).unwrap().ppn, Ppn::new(10));
        assert_eq!(tlb.lookup(kb, Cycle::new(1)).unwrap().ppn, Ppn::new(20));
    }

    #[test]
    fn invalidate_single_and_asid() {
        let mut tlb = Tlb::new(TlbConfig::shared(16));
        for v in 0..8 {
            tlb.insert(
                TlbKey::new(Asid((v % 2) as u16), Vpn::new(v)),
                Ppn::new(v),
                Perms::READ_WRITE,
                Cycle::new(v),
            );
        }
        assert!(tlb.invalidate(TlbKey::new(Asid(0), Vpn::new(0))));
        assert!(!tlb.invalidate(TlbKey::new(Asid(0), Vpn::new(0))));
        let removed = tlb.invalidate_asid(Asid(1));
        assert_eq!(removed, 4);
        assert_eq!(tlb.len(), 3);
        assert_eq!(tlb.flush(), 3);
        assert!(tlb.is_empty());
    }

    #[test]
    fn homonym_asids_use_distinct_sets_for_real_geometries() {
        // Regression: the ASID used to be shifted left by 17 before the
        // XOR, above every real set-index width (64..2048 sets), so the
        // modulus erased it and homonyms conflict-thrashed one set.
        for entries in [512usize, 16 * 1024] {
            let tlb = Tlb::new(TlbConfig::shared(entries));
            let vpn = Vpn::new(0x42);
            let a = tlb.set_index(TlbKey::new(Asid(1), vpn));
            let b = tlb.set_index(TlbKey::new(Asid(2), vpn));
            assert_ne!(
                a, b,
                "ASIDs 1 and 2 sharing VPN {vpn:?} must index different sets \
                 ({entries} entries)"
            );
        }
    }

    #[test]
    fn homonyms_spread_across_sets_without_thrashing() {
        // Nine homonyms of one VPN in the 8-way shared TLB: with the
        // ASID folded into the index they land in distinct sets, so
        // none evicts another (pre-fix they all shared one set and the
        // ninth insert displaced the first).
        let mut tlb = Tlb::new(TlbConfig::shared(512));
        let vpn = Vpn::new(7);
        for a in 0..9u16 {
            tlb.insert(
                TlbKey::new(Asid(a), vpn),
                Ppn::new(a as u64),
                Perms::READ_WRITE,
                Cycle::new(a as u64),
            );
        }
        assert_eq!(tlb.stats().evictions.get(), 0, "homonyms must not thrash");
        for a in 0..9u16 {
            assert!(tlb.peek(TlbKey::new(Asid(a), vpn)).is_some());
        }
    }

    #[test]
    fn miss_ratio_accounts_all_lookups() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(2));
        tlb.lookup(key(1), Cycle::new(0)); // miss
        tlb.insert(key(1), Ppn::new(1), Perms::READ_WRITE, Cycle::new(0));
        tlb.lookup(key(1), Cycle::new(1)); // hit
        assert_eq!(tlb.stats().lookups.get(), 2);
        assert_eq!(tlb.stats().miss_ratio(), 0.5);
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut tlb = Tlb::new(TlbConfig::shared(16));
        fill(&mut tlb, 0..5);
        assert_eq!(tlb.iter().count(), 5);
    }

    #[test]
    fn snapshot_restore_is_behaviorally_identical() {
        for config in [
            TlbConfig::per_cu(4),
            TlbConfig::shared(16),
            TlbConfig::infinite(),
        ] {
            let mut a = Tlb::new(config);
            for v in 0..23 {
                a.insert(
                    TlbKey::new(Asid((v % 3) as u16), Vpn::new(v * 7)),
                    Ppn::new(v),
                    Perms::READ_WRITE,
                    Cycle::new(v),
                );
                a.lookup(TlbKey::new(Asid(0), Vpn::new(v)), Cycle::new(v));
            }
            let snap = a.snapshot();
            let mut b = Tlb::new(config);
            b.restore(&Tlb::from_snapshot(&snap).expect("mirror decodes"));
            assert_eq!(b.snapshot(), snap, "snapshot→restore→snapshot fixed point");
            // Identical op sequence from here must keep the twins in
            // lockstep, including evictions and stats.
            for v in 0..17 {
                let k = TlbKey::new(Asid((v % 2) as u16), Vpn::new(v * 3));
                assert_eq!(
                    a.lookup(k, Cycle::new(100 + v)),
                    b.lookup(k, Cycle::new(100 + v))
                );
                let ea = a.insert(k, Ppn::new(v + 50), Perms::READ_ONLY, Cycle::new(100 + v));
                let eb = b.insert(k, Ppn::new(v + 50), Perms::READ_ONLY, Cycle::new(100 + v));
                assert_eq!(ea, eb, "evictions diverged ({config:?})");
            }
            a.invalidate_asid(Asid(1));
            b.invalidate_asid(Asid(1));
            assert_eq!(
                a.snapshot(),
                b.snapshot(),
                "end state diverged ({config:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "config mismatch")]
    fn restore_rejects_mismatched_geometry() {
        let a = Tlb::new(TlbConfig::per_cu(4));
        let mut b = Tlb::new(TlbConfig::per_cu(8));
        b.restore(&a);
    }

    #[test]
    fn reach_entry_covers_every_subpage_from_one_fill() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(4).with_reach(2, 512));
        // Fill with subpage 37 of a 512-page span; every other subpage
        // must hit the reach array with the right synthesized PPN.
        let base = 512 * 9;
        tlb.insert_sized(
            key(base + 37),
            Ppn::new(7000 + 37),
            Perms::READ_WRITE,
            Cycle::new(0),
            true,
        );
        assert_eq!(
            tlb.len(),
            0,
            "span-backed fill must not touch the base array"
        );
        assert_eq!(tlb.reach_len(), 1);
        for off in [0u64, 1, 37, 511] {
            let e = tlb
                .lookup(key(base + off), Cycle::new(1))
                .expect("reach hit");
            assert_eq!(e.ppn, Ppn::new(7000 + off));
        }
        // Per-size split: all four lookups landed on the reach side.
        assert_eq!(tlb.reach_stats().unwrap().hits.get(), 4);
        assert_eq!(tlb.stats().lookups.get(), 0);
        // A page outside the span misses both arrays.
        assert!(tlb.lookup(key(base + 512), Cycle::new(2)).is_none());
        assert_eq!(tlb.reach_stats().unwrap().misses.get(), 1);
        assert_eq!(tlb.stats().misses.get(), 1);
    }

    #[test]
    fn subpage_shootdown_kills_the_whole_reach_entry_and_vice_versa() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(4).with_reach(2, 512));
        let base = 512 * 3;
        tlb.insert_sized(
            key(base),
            Ppn::new(100),
            Perms::READ_WRITE,
            Cycle::new(0),
            true,
        );
        // Shooting down one subpage view invalidates the covering 2 MB
        // entry, so *all* 512 views die with it.
        assert!(tlb.invalidate(key(base + 200)));
        assert_eq!(tlb.reach_len(), 0);
        assert!(tlb.peek(key(base + 1)).is_none());
        assert_eq!(tlb.reach_stats().unwrap().invalidations.get(), 1);
        // And the other direction: with a 4 KB view resident, shooting
        // down via any in-span VPN removes it too.
        tlb.insert(
            key(base + 5),
            Ppn::new(105),
            Perms::READ_WRITE,
            Cycle::new(1),
        );
        assert!(tlb.invalidate(key(base + 5)));
        assert!(tlb.peek(key(base + 5)).is_none());
    }

    #[test]
    fn reach_asid_ops_and_flush_cover_both_arrays() {
        let mut tlb = Tlb::new(TlbConfig::shared(16).with_reach(4, 8));
        tlb.insert_sized(
            TlbKey::new(Asid(1), Vpn::new(8)),
            Ppn::new(80),
            Perms::READ_WRITE,
            Cycle::new(0),
            true,
        );
        tlb.insert_sized(
            TlbKey::new(Asid(2), Vpn::new(16)),
            Ppn::new(160),
            Perms::READ_WRITE,
            Cycle::new(0),
            true,
        );
        tlb.insert(
            TlbKey::new(Asid(1), Vpn::new(99)),
            Ppn::new(99),
            Perms::READ_WRITE,
            Cycle::new(0),
        );
        assert_eq!(tlb.invalidate_asid(Asid(1)), 2, "one base + one reach");
        assert_eq!(tlb.reach_len(), 1);
        assert_eq!(tlb.flush(), 1, "the surviving reach entry");
        assert_eq!(tlb.reach_len(), 0);
        assert_eq!(tlb.iter_reach().count(), 0);
    }

    #[test]
    fn non_span_backed_inserts_use_the_base_array() {
        let mut tlb = Tlb::new(TlbConfig::per_cu(4).with_reach(2, 8));
        tlb.insert_sized(
            key(3),
            Ppn::new(30),
            Perms::READ_WRITE,
            Cycle::new(0),
            false,
        );
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.reach_len(), 0);
        let e = tlb.lookup(key(3), Cycle::new(1)).unwrap();
        assert_eq!(e.ppn, Ppn::new(30));
        // The probe order is reach first, so the miss there is counted.
        assert_eq!(tlb.reach_stats().unwrap().misses.get(), 1);
        assert_eq!(tlb.stats().hits.get(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrips_the_reach_array() {
        let config = TlbConfig::per_cu(4).with_reach(2, 512);
        let mut a = Tlb::new(config);
        a.insert_sized(
            key(512),
            Ppn::new(1000),
            Perms::READ_WRITE,
            Cycle::new(0),
            true,
        );
        a.insert_sized(
            key(1024),
            Ppn::new(2000),
            Perms::READ_ONLY,
            Cycle::new(1),
            true,
        );
        a.insert(key(7), Ppn::new(70), Perms::READ_WRITE, Cycle::new(2));
        a.lookup(key(600), Cycle::new(3));
        let snap = a.snapshot();
        let mut b = Tlb::new(config);
        b.restore(&Tlb::from_snapshot(&snap).expect("mirror decodes"));
        assert_eq!(b.snapshot(), snap, "snapshot→restore→snapshot fixed point");
        for v in [512u64, 700, 1024, 1500, 7] {
            assert_eq!(
                a.lookup(key(v), Cycle::new(10)),
                b.lookup(key(v), Cycle::new(10))
            );
        }
        assert_eq!(a.reach_stats(), b.reach_stats());
        // Capacity pressure evicts deterministically in both twins.
        let ea = a.insert_sized(
            key(2048),
            Ppn::new(3000),
            Perms::READ_WRITE,
            Cycle::new(11),
            true,
        );
        let eb = b.insert_sized(
            key(2048),
            Ppn::new(3000),
            Perms::READ_WRITE,
            Cycle::new(11),
            true,
        );
        assert_eq!(ea, eb, "reach evictions diverged");
        assert!(ea.is_some(), "2-entry reach array at 3 spans must evict");
    }

    #[test]
    #[should_panic(expected = "span must cover")]
    fn reach_span_of_one_rejected() {
        let _ = Tlb::new(TlbConfig::per_cu(4).with_reach(2, 1));
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            organization: TlbOrganization::SetAssociative {
                entries: 10,
                ways: 4,
            },
            reach: None,
        });
    }
}
