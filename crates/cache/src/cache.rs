//! Set-associative tag-store cache with LRU replacement and MSHRs.

use gvc_engine::checkpoint::check_slots;
use gvc_engine::time::Cycle;
use gvc_engine::{Counter, EntryKey, SortedMap};
use gvc_mem::{Asid, AsidKey, Perms, LINES_PER_PAGE, LINE_BYTES};
use serde::{Deserialize, Error, Serialize};

/// Identifies a cached line: an address space plus a global line index
/// (`address / 128`). For physical caches the ASID is
/// [`Asid::default`] and the index is physical; for virtual caches the
/// index is virtual and the ASID disambiguates homonyms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LineKey {
    /// Address space (always default for physical caches).
    pub asid: Asid,
    /// Global line index: byte address / line size.
    pub line: u64,
}

impl LineKey {
    /// Builds a key.
    pub fn new(asid: Asid, line: u64) -> Self {
        LineKey { asid, line }
    }

    /// The page index this line belongs to (line / lines-per-page).
    pub fn page(&self) -> u64 {
        self.line / LINES_PER_PAGE
    }

    /// The line's index within its page (0..=31).
    pub fn line_in_page(&self) -> u32 {
        (self.line % LINES_PER_PAGE) as u32
    }

    /// The key packed into one `u64` ([`AsidKey`]), the form the tag
    /// arrays and MSHR files store.
    #[inline]
    pub fn packed(self) -> AsidKey {
        debug_assert!(
            self.line >> AsidKey::INDEX_BITS == 0,
            "line index exceeds 48 bits"
        );
        AsidKey::new(self.asid, self.line)
    }
}

impl From<AsidKey> for LineKey {
    #[inline]
    fn from(k: AsidKey) -> Self {
        LineKey::new(k.asid(), k.index())
    }
}

/// The checked pack of an MSHR checkpoint key (see [`MshrFile`]).
impl TryFrom<LineKey> for AsidKey {
    type Error = &'static str;

    fn try_from(k: LineKey) -> Result<Self, Self::Error> {
        AsidKey::checked(k.asid, k.line).ok_or("MSHR snapshot line index exceeds 48 bits")
    }
}

impl EntryKey for LineKey {}

/// Write-handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WritePolicy {
    /// GPU L1: writes go through; misses do not allocate; lines are
    /// never dirty.
    WriteThroughNoAllocate,
    /// GPU L2: writes allocate and mark the line dirty; dirty victims
    /// write back.
    WriteBackAllocate,
}

/// Cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Write policy.
    pub policy: WritePolicy,
    /// Low line-index bits to skip when computing the set index. A
    /// bank of an N-bank interleaved cache must set this to log2(N):
    /// the skipped bits selected the bank and are constant within it,
    /// so indexing on them would alias every line into a fraction of
    /// the sets.
    pub index_shift: u32,
}

impl CacheConfig {
    /// The paper's per-CU L1: 32 KB, 4-way, write-through no-allocate.
    pub fn gpu_l1() -> Self {
        CacheConfig {
            bytes: 32 << 10,
            ways: 4,
            policy: WritePolicy::WriteThroughNoAllocate,
            index_shift: 0,
        }
    }

    /// One bank of the paper's shared L2: 2 MB / 8 banks = 256 KB,
    /// 16-way, write-back.
    pub fn gpu_l2_bank() -> Self {
        CacheConfig {
            bytes: (2 << 20) / 8,
            ways: 16,
            policy: WritePolicy::WriteBackAllocate,
            index_shift: 3, // 8-bank interleaving
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.bytes / LINE_BYTES) as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

/// A resident cache line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLine {
    /// The line's key.
    pub key: LineKey,
    /// Page permissions carried with the line (virtual caches check
    /// permissions here instead of at a TLB).
    pub perms: Perms,
    /// Whether the line holds unwritten-back data.
    pub dirty: bool,
    /// When the line was filled.
    pub inserted_at: Cycle,
    /// When the line was last accessed (for "active lifetime").
    pub last_access: Cycle,
}

impl CacheLine {
    /// The line's active lifetime: cached-to-last-access, the Figure 12
    /// metric.
    pub fn active_lifetime(&self) -> u64 {
        self.last_access
            .raw()
            .saturating_sub(self.inserted_at.raw())
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups performed.
    pub lookups: Counter,
    /// Hits.
    pub hits: Counter,
    /// Misses.
    pub misses: Counter,
    /// Lines newly allocated by [`SetAssocCache::insert`] (in-place
    /// updates of resident keys are not fills). For an L2 that
    /// allocates exactly once per memory fetch this equals the DRAM
    /// lines read — one of the conservation laws paranoid mode checks.
    pub fills: Counter,
    /// Capacity/conflict evictions.
    pub evictions: Counter,
    /// Dirty evictions (write-backs).
    pub writebacks: Counter,
    /// Lines removed by invalidation.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Hit ratio over all lookups (0.0 if none).
    pub fn hit_ratio(&self) -> f64 {
        self.hits.ratio_of(self.lookups.get())
    }

    /// Folds another cache's statistics into these, counter by
    /// counter (see [`Counter::merge`]).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups.merge(&other.lookups);
        self.hits.merge(&other.hits);
        self.misses.merge(&other.misses);
        self.fills.merge(&other.fills);
        self.evictions.merge(&other.evictions);
        self.writebacks.merge(&other.writebacks);
        self.invalidations.merge(&other.invalidations);
    }
}

/// Per-line metadata kept apart from the tag (see the struct-of-arrays
/// note on [`SetAssocCache`]).
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    perms: Perms,
    dirty: bool,
    inserted_at: Cycle,
    last_access: Cycle,
}

/// A set-associative cache tag store with true LRU.
///
/// Storage is struct-of-arrays: packed tags ([`LineKey::packed`]), LRU
/// clocks, and line metadata live in three flat arrays of
/// `sets * ways` entries, with set `s` occupying the fixed stride
/// `s*ways .. s*ways + occupancy[s]`. The way scan — the operation
/// every single memory access performs, often several times — touches
/// only the 8-byte tag array, and the layout is allocation-free after
/// construction. A [`LineKey`] is unpacked from its tag when one is
/// needed. Within-set slot order is append on fill and swap-remove on
/// evict/invalidate; enumeration order, and with it every downstream
/// figure byte, depends on it.
///
/// ```
/// use gvc_cache::{CacheConfig, LineKey, SetAssocCache};
/// use gvc_engine::Cycle;
/// use gvc_mem::{Asid, Perms};
///
/// let mut l1 = SetAssocCache::new(CacheConfig::gpu_l1());
/// let key = LineKey::new(Asid(0), 42);
/// assert!(l1.lookup(key, Cycle::new(0)).is_none());
/// l1.insert(key, Perms::READ_WRITE, false, Cycle::new(5));
/// assert!(l1.lookup(key, Cycle::new(6)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two (the real
    /// geometries), letting [`Self::set_index`] mask instead of
    /// divide; `None` falls back to the modulo.
    set_mask: Option<u64>,
    /// Packed tags, strided by way: slot `(s, w)` lives at
    /// `s*ways + w`.
    packed: Vec<AsidKey>,
    /// LRU clocks, same stride.
    last_use: Vec<u64>,
    /// Line metadata, same stride.
    meta: Vec<LineMeta>,
    /// Live slots per set (`0..=ways`).
    occupancy: Vec<u32>,
    use_clock: u64,
    stats: CacheStats,
}

const EMPTY_META: LineMeta = LineMeta {
    perms: Perms::NONE,
    dirty: false,
    inserted_at: Cycle::ZERO,
    last_access: Cycle::ZERO,
};

impl SetAssocCache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero lines, or ways that
    /// do not divide the line count).
    pub fn new(config: CacheConfig) -> Self {
        let lines = config.lines();
        assert!(lines > 0, "cache must hold at least one line");
        assert!(
            config.ways > 0 && lines.is_multiple_of(config.ways),
            "ways must divide line count"
        );
        let n_sets = config.sets();
        let total = n_sets * config.ways;
        SetAssocCache {
            config,
            n_sets,
            set_mask: n_sets.is_power_of_two().then(|| n_sets as u64 - 1),
            packed: vec![AsidKey::default(); total],
            last_use: vec![0; total],
            meta: vec![EMPTY_META; total],
            occupancy: vec![0; n_sets],
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.occupancy.iter().map(|&n| n as usize).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_index(&self, key: LineKey) -> usize {
        // Fold the ASID below the set-index width with an odd-constant
        // multiply; a plain left shift (the old `<< 13`) sat above the
        // modulus for every real geometry (64..128 sets), so homonyms
        // of one line index conflict-thrashed a single set.
        let folded = (key.line >> self.config.index_shift) ^ key.asid.fold();
        // Identical result either way; the mask path skips the 64-bit
        // division on the access fast path.
        match self.set_mask {
            Some(mask) => (folded & mask) as usize,
            None => (folded % self.n_sets as u64) as usize,
        }
    }

    /// The occupied slot range of set `set` in the flat arrays.
    #[inline]
    fn span(&self, set: usize) -> (usize, usize) {
        let base = set * self.config.ways;
        (base, base + self.occupancy[set] as usize)
    }

    /// The slot of `key` in its set, if resident: one way scan over the
    /// set's tag slice. Returns the set too.
    #[inline]
    fn find(&self, key: LineKey) -> (usize, Option<usize>) {
        let set = self.set_index(key);
        let p = key.packed();
        let (base, end) = self.span(set);
        let hit = self.packed[base..end].iter().position(|&t| t == p);
        (set, hit.map(|w| base + w))
    }

    /// Reassembles the public [`CacheLine`] view of slot `i`.
    #[inline]
    fn line_at(&self, i: usize) -> CacheLine {
        let m = self.meta[i];
        CacheLine {
            key: self.packed[i].into(),
            perms: m.perms,
            dirty: m.dirty,
            inserted_at: m.inserted_at,
            last_access: m.last_access,
        }
    }

    /// Removes slot `i` of set `set` with swap-remove ordering (the
    /// set's last slot moves into the hole), returning the removed line.
    #[inline]
    fn swap_remove_slot(&mut self, set: usize, i: usize) -> CacheLine {
        let line = self.line_at(i);
        let (base, end) = self.span(set);
        debug_assert!((base..end).contains(&i));
        let last = end - 1;
        self.packed[i] = self.packed[last];
        self.last_use[i] = self.last_use[last];
        self.meta[i] = self.meta[last];
        self.occupancy[set] -= 1;
        line
    }

    /// Looks up a line; a hit updates recency and `last_access`.
    pub fn lookup(&mut self, key: LineKey, now: Cycle) -> Option<CacheLine> {
        self.stats.lookups.inc();
        self.use_clock += 1;
        let clock = self.use_clock;
        let Some(i) = self.find(key).1 else {
            self.stats.misses.inc();
            return None;
        };
        self.last_use[i] = clock;
        self.meta[i].last_access = now;
        self.stats.hits.inc();
        Some(self.line_at(i))
    }

    /// Peeks without touching recency or statistics.
    pub fn peek(&self, key: LineKey) -> Option<CacheLine> {
        self.find(key).1.map(|i| self.line_at(i))
    }

    /// Marks a resident line dirty (write hit under write-back);
    /// returns whether the line was present.
    pub fn mark_dirty(&mut self, key: LineKey) -> bool {
        let hit = self.find(key).1;
        if let Some(i) = hit {
            self.meta[i].dirty = true;
        }
        hit.is_some()
    }

    /// Inserts a line, returning the victim it displaced (if any).
    /// Reinsertion of a resident key updates it in place.
    pub fn insert(
        &mut self,
        key: LineKey,
        perms: Perms,
        dirty: bool,
        now: Cycle,
    ) -> Option<CacheLine> {
        self.use_clock += 1;
        let clock = self.use_clock;
        let (set, hit) = self.find(key);
        if let Some(i) = hit {
            let m = &mut self.meta[i];
            m.perms = perms;
            m.dirty |= dirty;
            m.last_access = now;
            self.last_use[i] = clock;
            return None;
        }
        let (base, mut end) = self.span(set);
        let mut victim = None;
        if end - base >= self.config.ways {
            // `min_by_key` keeps the first minimum in scan order.
            let (w, _) = self.last_use[base..end]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &u)| u)
                .expect("a full set is not empty");
            let idx = base + w;
            let v = self.swap_remove_slot(set, idx);
            self.stats.evictions.inc();
            if v.dirty {
                self.stats.writebacks.inc();
            }
            victim = Some(v);
            end -= 1;
        }
        self.stats.fills.inc();
        self.packed[end] = key.packed();
        self.last_use[end] = clock;
        self.meta[end] = LineMeta {
            perms,
            dirty,
            inserted_at: now,
            last_access: now,
        };
        self.occupancy[set] += 1;
        victim
    }

    /// Invalidates one line, returning it if it was present.
    pub fn invalidate(&mut self, key: LineKey) -> Option<CacheLine> {
        let (set, hit) = self.find(key);
        let i = hit?;
        self.stats.invalidations.inc();
        Some(self.swap_remove_slot(set, i))
    }

    /// Invalidates every resident line of a virtual/physical page,
    /// returning the removed lines.
    pub fn invalidate_page(&mut self, asid: Asid, page: u64) -> Vec<CacheLine> {
        let mut removed = Vec::new();
        for set in 0..self.n_sets {
            let base = set * self.config.ways;
            let mut i = base;
            while i < base + self.occupancy[set] as usize {
                let k = LineKey::from(self.packed[i]);
                if k.asid == asid && k.page() == page {
                    removed.push(self.swap_remove_slot(set, i));
                } else {
                    i += 1;
                }
            }
        }
        self.stats.invalidations.add(removed.len() as u64);
        removed
    }

    /// Invalidates everything, returning the removed lines (an
    /// all-entry flush).
    pub fn flush(&mut self) -> Vec<CacheLine> {
        let mut removed = Vec::new();
        for set in 0..self.n_sets {
            let (base, end) = self.span(set);
            removed.extend((base..end).map(|i| self.line_at(i)));
            self.occupancy[set] = 0;
        }
        self.stats.invalidations.add(removed.len() as u64);
        removed
    }

    /// Iterates over resident lines (diagnostics and invariants).
    pub fn iter(&self) -> impl Iterator<Item = CacheLine> + '_ {
        (0..self.n_sets).flat_map(move |set| {
            let (base, end) = self.span(set);
            (base..end).map(move |i| self.line_at(i))
        })
    }

    /// Captures the cache's full behavioral state for checkpointing:
    /// resident slots in within-set scan order (which encodes the
    /// replacement bookkeeping exactly), the LRU clock, and statistics.
    pub fn snapshot(&self) -> CacheSnapshot {
        let sets = (0..self.n_sets)
            .map(|set| {
                let (base, end) = self.span(set);
                (base..end)
                    .map(|i| CacheSlotSnapshot {
                        line: self.line_at(i),
                        last_use: self.last_use[i],
                    })
                    .collect()
            })
            .collect();
        CacheSnapshot {
            config: self.config,
            sets,
            use_clock: self.use_clock,
            stats: self.stats,
        }
    }

    /// Rebuilds a cache from its mirror, checking the mirror's own
    /// geometry: one slot list per set, none longer than the ways, and
    /// every line index within 48 bits.
    pub fn from_snapshot(snap: &CacheSnapshot) -> Result<Self, Error> {
        // Geometry first: the allocation below is sized by the config.
        let (lines, ways) = (snap.config.lines(), snap.config.ways);
        check_slots("cache snapshot", lines)?;
        if lines == 0 || snap.sets.len().checked_mul(ways) != Some(lines) {
            return Err(Error::msg("cache snapshot set count mismatch"));
        }
        let mut c = SetAssocCache::new(snap.config);
        for (set, slots) in snap.sets.iter().enumerate() {
            let at_set = |e: Error| e.at(&format!("[{set}]")).at(".sets");
            if slots.len() > ways {
                let overflow = format!("cache snapshot set {set} overflows {ways} ways");
                return Err(at_set(Error::msg(overflow)));
            }
            for (i, slot) in (set * ways..).zip(slots) {
                let k = slot.line.key;
                c.packed[i] = AsidKey::checked(k.asid, k.line).ok_or_else(|| {
                    at_set(Error::msg("cache snapshot line index exceeds 48 bits"))
                })?;
                c.last_use[i] = slot.last_use;
                c.meta[i] = LineMeta {
                    perms: slot.line.perms,
                    dirty: slot.line.dirty,
                    inserted_at: slot.line.inserted_at,
                    last_access: slot.line.last_access,
                };
            }
            c.occupancy[set] = slots.len() as u32;
        }
        c.use_clock = snap.use_clock;
        c.stats = snap.stats;
        Ok(c)
    }
}

gvc_engine::checkpoint_via_mirror!(
    SetAssocCache,
    CacheSnapshot,
    "cache snapshot config mismatch"
);

/// One resident cache slot, in within-set scan order. A mirror, because
/// the live cache keeps its slots as SoA tag arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSlotSnapshot {
    /// The resident line.
    pub line: CacheLine,
    /// The slot's LRU clock stamp.
    pub last_use: u64,
}

/// Full serializable state of a [`SetAssocCache`]
/// (see [`SetAssocCache::snapshot`]). A mirror, because the SoA tag
/// arrays and occupancy counts are rebuilt from it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Geometry and policy (validated on restore).
    pub config: CacheConfig,
    /// Per-set resident slots, in scan order.
    pub sets: Vec<Vec<CacheSlotSnapshot>>,
    /// The LRU use clock.
    pub use_clock: u64,
    /// Statistics so far.
    pub stats: CacheStats,
}

/// Outcome of consulting the MSHR file on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line is already being fetched; this request completes with
    /// the in-flight fill.
    Merged {
        /// When the in-flight fill completes.
        fill_done: Cycle,
    },
    /// No in-flight fetch; the caller must issue one and then call
    /// [`MshrFile::register`].
    Primary,
}

/// Miss-status holding registers: merges concurrent misses to the same
/// line so only one fill is outstanding per line.
///
/// ```
/// use gvc_cache::{LineKey, MshrFile};
/// use gvc_engine::Cycle;
/// use gvc_mem::Asid;
///
/// let mut mshr = MshrFile::new();
/// let key = LineKey::new(Asid(0), 7);
/// assert!(matches!(mshr.check(key, Cycle::new(0)), gvc_cache::cache::MshrOutcome::Primary));
/// mshr.register(key, Cycle::new(200));
/// // A second miss to the same line merges.
/// match mshr.check(key, Cycle::new(50)) {
///     gvc_cache::cache::MshrOutcome::Merged { fill_done } => assert_eq!(fill_done, Cycle::new(200)),
///     other => panic!("expected merge, got {other:?}"),
/// }
/// ```
///
/// The file is its own checkpoint. It keeps stale entries too, because
/// the size-capped prune in [`MshrFile::register`] fires on map size.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MshrFile {
    /// Fill completion by packed line key: 16 bytes a bucket. Every
    /// miss probes one of these maps, so its footprint is host cache
    /// footprint on the hot path.
    inflight: SortedMap<AsidKey, Cycle, LineKey>,
    /// Latest registered fill completion: once `now` passes this
    /// watermark no entry can still be in flight, so the hot
    /// hit-path probes ([`MshrFile::pending`], [`MshrFile::check`])
    /// skip the hash lookup entirely. Entries left unpruned by the
    /// skip are filtered by their own `done > now` test and swept by
    /// the size-capped prune in [`MshrFile::register`].
    latest_done: Cycle,
    merges: Counter,
    primaries: Counter,
}

impl MshrFile {
    /// Creates an empty MSHR file.
    pub fn new() -> Self {
        MshrFile::default()
    }

    /// Checks for an in-flight fill of `key` at time `now`. Stale
    /// entries (fills that completed in the past) are pruned lazily.
    pub fn check(&mut self, key: LineKey, now: Cycle) -> MshrOutcome {
        if now < self.latest_done {
            let k = key.packed();
            if let Some(&done) = self.inflight.get(&k) {
                if done > now {
                    self.merges.inc();
                    return MshrOutcome::Merged { fill_done: done };
                }
                self.inflight.remove(&k);
            }
        }
        self.primaries.inc();
        MshrOutcome::Primary
    }

    /// The pending fill completion for `key`, if one is still in
    /// flight at `now`. Unlike [`MshrFile::check`], this neither
    /// counts statistics nor prunes — use it to delay *hits* on lines
    /// whose fill has not landed yet.
    pub fn pending(&self, key: LineKey, now: Cycle) -> Option<Cycle> {
        if now >= self.latest_done {
            return None;
        }
        self.inflight
            .get(&key.packed())
            .copied()
            .filter(|&done| done > now)
    }

    /// Registers a primary miss's fill completion time.
    pub fn register(&mut self, key: LineKey, fill_done: Cycle) {
        self.latest_done = self.latest_done.max(fill_done);
        self.inflight.insert(key.packed(), fill_done);
        // Opportunistic pruning keeps the map small.
        if self.inflight.len() > 4096 {
            self.inflight.retain(|_, &mut done| done > fill_done);
        }
    }

    /// Number of merged (secondary) misses so far.
    pub fn merges(&self) -> u64 {
        self.merges.get()
    }

    /// Number of primary misses so far.
    pub fn primaries(&self) -> u64 {
        self.primaries.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(line: u64) -> LineKey {
        LineKey::new(Asid(0), line)
    }

    #[test]
    fn geometry_matches_table1() {
        let l1 = CacheConfig::gpu_l1();
        assert_eq!(l1.lines(), 256);
        assert_eq!(l1.sets(), 64);
        let l2b = CacheConfig::gpu_l2_bank();
        assert_eq!(l2b.lines(), 2048);
        assert_eq!(l2b.sets(), 128);
    }

    #[test]
    fn packed_tags_keep_all_48_line_bits() {
        // Line indices agreeing on the low 32 bits but differing above
        // must keep distinct tags: a truncating pack would alias them
        // and let one tenant's lookup hit the other's line.
        let hi = (1u64 << 48) - 1;
        let lo = hi & 0xFFFF_FFFF;
        assert_ne!(
            LineKey::new(Asid(3), hi).packed(),
            LineKey::new(Asid(3), lo).packed(),
            "pack lost line-index bits above bit 31"
        );
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        c.insert(
            LineKey::new(Asid(3), hi),
            Perms::READ_WRITE,
            false,
            Cycle::new(0),
        );
        assert!(
            c.peek(LineKey::new(Asid(3), lo)).is_none(),
            "near-2^48 line index aliased its truncation in the way scan"
        );
        assert!(c.peek(LineKey::new(Asid(3), hi)).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "line index exceeds 48 bits")]
    fn pack_rejects_line_past_48_bits() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        c.insert(
            LineKey::new(Asid(0), 1u64 << 48),
            Perms::READ_WRITE,
            false,
            Cycle::new(0),
        );
    }

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        assert!(c.lookup(key(1), Cycle::new(0)).is_none());
        c.insert(key(1), Perms::READ_WRITE, false, Cycle::new(1));
        let hit = c.lookup(key(1), Cycle::new(9)).expect("hit");
        assert_eq!(hit.key, key(1));
        assert_eq!(hit.last_access, Cycle::new(9));
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn capacity_never_exceeded_and_lru_respected() {
        let cfg = CacheConfig {
            bytes: 4 * LINE_BYTES,
            ways: 4,
            policy: WritePolicy::WriteBackAllocate,
            index_shift: 0,
        };
        let mut c = SetAssocCache::new(cfg);
        for i in 0..4 {
            assert!(c
                .insert(key(i), Perms::READ_WRITE, false, Cycle::new(i))
                .is_none());
        }
        c.lookup(key(0), Cycle::new(10)); // 0 becomes MRU; 1 is LRU
        let victim = c
            .insert(key(9), Perms::READ_WRITE, false, Cycle::new(11))
            .expect("eviction");
        assert_eq!(victim.key, key(1));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let cfg = CacheConfig {
            bytes: LINE_BYTES,
            ways: 1,
            policy: WritePolicy::WriteBackAllocate,
            index_shift: 0,
        };
        let mut c = SetAssocCache::new(cfg);
        c.insert(key(1), Perms::READ_WRITE, true, Cycle::new(0));
        let v = c
            .insert(key(2), Perms::READ_WRITE, false, Cycle::new(1))
            .unwrap();
        assert!(v.dirty);
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn mark_dirty_on_resident_line() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l2_bank());
        c.insert(key(5), Perms::READ_WRITE, false, Cycle::new(0));
        assert!(c.mark_dirty(key(5)));
        assert!(c.peek(key(5)).unwrap().dirty);
        assert!(!c.mark_dirty(key(6)));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        c.insert(key(3), Perms::READ_ONLY, false, Cycle::new(0));
        assert!(c
            .insert(key(3), Perms::READ_WRITE, true, Cycle::new(5))
            .is_none());
        assert_eq!(c.len(), 1);
        let l = c.peek(key(3)).unwrap();
        assert_eq!(l.perms, Perms::READ_WRITE);
        assert!(l.dirty);
        assert_eq!(l.inserted_at, Cycle::new(0), "insert time is preserved");
    }

    #[test]
    fn page_invalidation_removes_exactly_that_page() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l2_bank());
        // Lines 0..32 are page 0; 32..64 are page 1.
        for i in 0..64 {
            c.insert(key(i), Perms::READ_WRITE, false, Cycle::new(i));
        }
        let removed = c.invalidate_page(Asid(0), 0);
        assert_eq!(removed.len(), 32);
        assert!(removed.iter().all(|l| l.key.page() == 0));
        assert_eq!(c.len(), 32);
        assert!(c.iter().all(|l| l.key.page() == 1));
    }

    #[test]
    fn fills_count_new_allocations_only() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        c.insert(key(1), Perms::READ_WRITE, false, Cycle::new(0));
        c.insert(key(1), Perms::READ_WRITE, true, Cycle::new(1)); // in place
        c.insert(key(2), Perms::READ_WRITE, false, Cycle::new(2));
        assert_eq!(c.stats().fills.get(), 2);
    }

    #[test]
    fn homonym_asids_use_distinct_sets_for_real_geometries() {
        // Regression: the ASID used to be shifted left by 13 before the
        // XOR, above the 64- and 128-set index widths of the L1 and L2
        // bank, so the modulus erased it.
        for cfg in [CacheConfig::gpu_l1(), CacheConfig::gpu_l2_bank()] {
            let c = SetAssocCache::new(cfg);
            let line = 0x42u64 << cfg.index_shift;
            let a = c.set_index(LineKey::new(Asid(1), line));
            let b = c.set_index(LineKey::new(Asid(2), line));
            assert_ne!(
                a,
                b,
                "ASIDs 1 and 2 sharing line {line} must index different sets \
                 ({} sets)",
                cfg.sets()
            );
        }
    }

    #[test]
    fn homonyms_spread_across_sets_without_thrashing() {
        // ways+1 homonyms of one line index in the 4-way L1: with the
        // ASID folded into the index they occupy distinct sets and
        // nothing is evicted (pre-fix they shared one set and thrashed).
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        for a in 0..5u16 {
            c.insert(
                LineKey::new(Asid(a), 7),
                Perms::READ_WRITE,
                false,
                Cycle::new(a as u64),
            );
        }
        assert_eq!(c.stats().evictions.get(), 0, "homonyms must not thrash");
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn asid_disambiguates_same_line_index() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        let ka = LineKey::new(Asid(1), 7);
        let kb = LineKey::new(Asid(2), 7);
        c.insert(ka, Perms::READ_ONLY, false, Cycle::new(0));
        c.insert(kb, Perms::READ_WRITE, false, Cycle::new(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(ka).unwrap().perms, Perms::READ_ONLY);
        assert_eq!(c.peek(kb).unwrap().perms, Perms::READ_WRITE);
    }

    #[test]
    fn active_lifetime_measures_last_touch() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        c.insert(key(1), Perms::READ_WRITE, false, Cycle::new(100));
        c.lookup(key(1), Cycle::new(400));
        let l = c.invalidate(key(1)).unwrap();
        assert_eq!(l.active_lifetime(), 300);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = SetAssocCache::new(CacheConfig::gpu_l1());
        for i in 0..10 {
            c.insert(key(i), Perms::READ_WRITE, false, Cycle::new(i));
        }
        let removed = c.flush();
        assert_eq!(removed.len(), 10);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations.get(), 10);
    }

    #[test]
    fn line_key_page_math() {
        let k = LineKey::new(Asid(0), 33);
        assert_eq!(k.page(), 1);
        assert_eq!(k.line_in_page(), 1);
        assert_eq!(LineKey::new(Asid(0), 31).page(), 0);
    }

    #[test]
    fn mshr_homonyms_merge_and_spread_over_buckets() {
        // 16 ASIDs x the same 256 line indices: exactly the 4,096
        // entries the cap allows. Each key must keep its own fill, and
        // the packed keys must spread over the buckets of a table that
        // size. With the ASID in the low bits, or shifted above the line
        // without the multiply fold, they crowd into 16 or 256 buckets.
        use std::collections::BTreeMap;
        use std::hash::BuildHasher;
        let asids: Vec<u16> = (0..15).chain([u16::MAX]).collect();
        let mut m = MshrFile::new();
        let mut model = BTreeMap::new();
        for (a, &asid) in asids.iter().enumerate() {
            for line in 0..256u64 {
                let done = Cycle::new(1_000 + line * 16 + a as u64);
                m.register(LineKey::new(Asid(asid), line), done);
                model.insert((asid, line), done);
            }
        }
        assert_eq!(m.inflight.len(), 4096, "the cap must not fire");
        let buckets: std::collections::HashSet<u64> = m
            .inflight
            .keys()
            .map(|k| gvc_engine::FxBuildHasher::default().hash_one(k) & 8191)
            .collect();
        assert!(
            buckets.len() >= 2048,
            "4,096 homonym keys hit only {} of 8,192 buckets",
            buckets.len()
        );
        for now in [Cycle::ZERO, Cycle::new(2_000), Cycle::new(10_000)] {
            for (&(asid, line), &done) in &model {
                let key = LineKey::new(Asid(asid), line);
                let want = (done > now).then_some(done);
                assert_eq!(m.pending(key, now), want, "{key:?} at {now}");
            }
        }
        for (&(asid, line), &done) in &model {
            assert_eq!(
                m.check(LineKey::new(Asid(asid), line), Cycle::new(999)),
                MshrOutcome::Merged { fill_done: done }
            );
        }
        assert_eq!(m.merges(), 4096);
        let want: Vec<(LineKey, Cycle)> = model
            .iter()
            .map(|(&(a, l), &d)| (LineKey::new(Asid(a), l), d))
            .collect();
        assert_eq!(written_inflight(&m), want, "snapshot order is (asid, line)");
    }

    /// The in-flight entries as an MSHR checkpoint writes them.
    pub(super) fn written_inflight(m: &MshrFile) -> Vec<(LineKey, Cycle)> {
        Deserialize::from_value(&m.inflight.to_value()).expect("sorted [key, done] pairs")
    }

    #[test]
    fn mshr_merges_until_fill_completes() {
        let mut m = MshrFile::new();
        let k = key(9);
        assert_eq!(m.check(k, Cycle::new(0)), MshrOutcome::Primary);
        m.register(k, Cycle::new(100));
        assert_eq!(
            m.check(k, Cycle::new(99)),
            MshrOutcome::Merged {
                fill_done: Cycle::new(100)
            }
        );
        // After the fill lands, the next miss is primary again.
        assert_eq!(m.check(k, Cycle::new(100)), MshrOutcome::Primary);
        assert_eq!(m.merges(), 1);
        assert_eq!(m.primaries(), 2);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            bytes: 3 * LINE_BYTES,
            ways: 2,
            policy: WritePolicy::WriteBackAllocate,
            index_shift: 0,
        });
    }
}

/// [`MshrFile`] against a naive reference of its rules: the
/// `latest_done` gate, lazy removal in `check`, and the 4,096-entry
/// cap that keeps only fills completing after the newest one.
#[cfg(test)]
mod mshr_model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference: a sorted map from `(asid, line)` to done cycle.
    #[derive(Default)]
    struct Model {
        inflight: BTreeMap<(u16, u64), u64>,
        latest_done: u64,
        merges: u64,
        primaries: u64,
        caps: u64,
    }

    impl Model {
        fn check(&mut self, k: (u16, u64), now: u64) -> MshrOutcome {
            if now < self.latest_done {
                if let Some(&done) = self.inflight.get(&k) {
                    if done > now {
                        self.merges += 1;
                        return MshrOutcome::Merged {
                            fill_done: Cycle::new(done),
                        };
                    }
                    self.inflight.remove(&k);
                }
            }
            self.primaries += 1;
            MshrOutcome::Primary
        }

        fn pending(&self, k: (u16, u64), now: u64) -> Option<Cycle> {
            if now >= self.latest_done {
                return None;
            }
            self.inflight
                .get(&k)
                .copied()
                .filter(|&done| done > now)
                .map(Cycle::new)
        }

        fn register(&mut self, k: (u16, u64), fill_done: u64) {
            self.latest_done = self.latest_done.max(fill_done);
            self.inflight.insert(k, fill_done);
            if self.inflight.len() > 4096 {
                self.caps += 1;
                self.inflight.retain(|_, &mut done| done > fill_done);
            }
        }
    }

    /// Maps small generated indices onto ASIDs that include both ends
    /// of the range, and onto line indices that include bit 47.
    fn key_of(asid: u16, line: u64) -> (u16, u64) {
        let asid = if asid == 15 { u16::MAX } else { asid };
        let line = if line.is_multiple_of(7) {
            line | 1 << 47
        } else {
            line
        };
        (asid, line)
    }

    /// Drives `ops` through both implementations; returns how many
    /// times the model's cap fired.
    fn run(ops: &[(u8, u16, u64, u64, u64, u64)]) -> Result<u64, proptest::TestCaseError> {
        let mut real = MshrFile::new();
        let mut model = Model::default();
        let mut clock = 0u64;
        for &(kind, asid, line, dt, back, lat) in ops {
            // Mostly small steps, with the odd long gap that lets the
            // clock pass every registered fill.
            clock += if dt == 5 { 1000 } else { dt };
            let probe = clock.saturating_sub(back);
            let k = key_of(asid, line);
            let lk = LineKey::new(Asid(k.0), k.1);
            match kind {
                0..=5 => {
                    real.register(lk, Cycle::new(clock + lat));
                    model.register(k, clock + lat);
                }
                6 => prop_assert_eq!(real.check(lk, Cycle::new(probe)), model.check(k, probe)),
                _ => prop_assert_eq!(real.pending(lk, Cycle::new(probe)), model.pending(k, probe)),
            }
        }
        prop_assert_eq!(real.merges(), model.merges);
        prop_assert_eq!(real.primaries(), model.primaries);
        let want: Vec<(LineKey, Cycle)> = model
            .inflight
            .iter()
            .map(|(&(a, l), &d)| (LineKey::new(Asid(a), l), Cycle::new(d)))
            .collect();
        prop_assert_eq!(super::tests::written_inflight(&real), want);
        prop_assert_eq!(real.latest_done, Cycle::new(model.latest_done));
        Ok(model.caps)
    }

    proptest! {
        #[test]
        fn mshr_file_matches_reference_rules(
            ops in prop::collection::vec(
                (0u8..8, 0u16..16, 0u64..512, 0u64..6, 0u64..64, 1u64..400),
                2_000..16_000,
            ),
        ) {
            run(&ops)?;
        }
    }

    #[test]
    fn reference_stream_reaches_the_cap() {
        // Registrations only, over 16 ASIDs x 512 lines: the map passes
        // 4,096 entries, so the cap's retain runs and must agree too.
        let ops: Vec<_> = (0..8192u64)
            .map(|i| (0u8, (i % 16) as u16, i / 16, i % 3, 0, 1 + i % 397))
            .collect();
        let caps = run(&ops).expect("reference agrees");
        assert!(caps > 0, "stream never reached the 4,096-entry cap");
    }
}
