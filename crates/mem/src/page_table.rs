//! A 4-level radix page table stored in simulated physical frames.
//!
//! The layout mirrors x86-64 4 KB paging: a 36-bit virtual page number
//! is split into four 9-bit indices; each level is a 512-entry frame of
//! 8-byte entries. Walks report the physical address of every entry
//! they touch ([`WalkPath`]) so the page-walk cache and DRAM model in
//! the IOMMU charge exactly the accesses a hardware walker would make —
//! the paper relies on PWC locality to show that page-walk latency is
//! *not* the bottleneck (Observation 3).

use crate::addr::{PAddr, Ppn, Vpn};
use crate::perms::Perms;
use crate::phys::PhysMem;
use crate::MemError;
use serde::{Deserialize, Serialize};

/// Number of radix levels (root = level 0, leaf = level 3).
pub const PT_LEVELS: usize = 4;
const INDEX_BITS: u32 = 9;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

// PTE encoding: bit 0 = present, bits 1..=3 = perms (R/W/X), bit 4 =
// large (a level-2 leaf mapping a 2 MB region), bits 12..=47 = PPN (of
// the next level or of the mapped frame).
const PTE_PRESENT: u64 = 1;
const PTE_PERM_SHIFT: u32 = 1;
const PTE_LARGE: u64 = 1 << 4;
const PTE_PPN_SHIFT: u32 = 12;
const PTE_PPN_MASK: u64 = (1 << 36) - 1;

/// 4 KB pages per 2 MB large page.
pub const PAGES_PER_LARGE: u64 = 512;

fn pte_encode(ppn: Ppn, perms: Perms) -> u64 {
    PTE_PRESENT
        | ((perms.bits() as u64) << PTE_PERM_SHIFT)
        | ((ppn.raw() & PTE_PPN_MASK) << PTE_PPN_SHIFT)
}

fn pte_encode_large(ppn: Ppn, perms: Perms) -> u64 {
    pte_encode(ppn, perms) | PTE_LARGE
}

fn pte_large(pte: u64) -> bool {
    pte & PTE_LARGE != 0
}

fn pte_present(pte: u64) -> bool {
    pte & PTE_PRESENT != 0
}

fn pte_ppn(pte: u64) -> Ppn {
    Ppn::new((pte >> PTE_PPN_SHIFT) & PTE_PPN_MASK)
}

fn pte_perms(pte: u64) -> Perms {
    Perms::from_bits(((pte >> PTE_PERM_SHIFT) & 0b111) as u8)
}

/// The physical addresses of the page-table entries a walk touches, in
/// root-to-leaf order. A partial walk (ending at a non-present entry)
/// reports only the levels actually read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkPath {
    /// Entry addresses read, root first.
    pub entries: Vec<PAddr>,
}

impl WalkPath {
    /// Number of memory accesses the walk performed.
    pub fn accesses(&self) -> usize {
        self.entries.len()
    }
}

/// The result of walking the table for a VPN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The page is mapped.
    Mapped {
        /// The mapped physical page.
        ppn: Ppn,
        /// The page's permissions.
        perms: Perms,
        /// Whether the translation came from a 2 MB large-page leaf.
        /// The PPN is still the 4 KB subframe; reach-aware TLBs use
        /// this to cache the whole 2 MB region from one walk.
        large: bool,
    },
    /// The walk hit a non-present entry (page fault).
    Fault,
}

/// A 4-level radix page table rooted at a physical frame.
///
/// All operations take `&mut PhysMem` because the table's nodes live in
/// simulated physical frames.
///
/// ```
/// use gvc_mem::{PageTable, Perms, PhysMem, Ppn, Vpn, WalkOutcome};
///
/// let mut pm = PhysMem::new(1 << 20);
/// let mut pt = PageTable::new(&mut pm)?;
/// let frame = pm.alloc_frame()?;
/// pt.map(&mut pm, Vpn::new(0x1234), frame, Perms::READ_WRITE)?;
/// let (outcome, path) = pt.walk(&pm, Vpn::new(0x1234));
/// assert_eq!(outcome, WalkOutcome::Mapped { ppn: frame, perms: Perms::READ_WRITE, large: false });
/// assert_eq!(path.accesses(), 4); // four levels touched
/// # Ok::<(), gvc_mem::MemError>(())
/// ```
///
/// A checkpoint holds the table as is: the root pointer and the
/// mapped-page count. The radix nodes live in [`PhysMem`] frames, which
/// the [`PhysMem`] checkpoint carries, so restore physical memory before
/// walking a restored table. Field order is the checkpoint's key order,
/// pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageTable {
    root: Ppn,
    mapped_pages: u64,
}

impl PageTable {
    /// Allocates an empty table (one root frame).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] if no frame is available for
    /// the root.
    pub fn new(pm: &mut PhysMem) -> Result<Self, MemError> {
        let root = pm.alloc_frame()?;
        Ok(PageTable {
            root,
            mapped_pages: 0,
        })
    }

    /// The root frame (CR3 equivalent).
    pub fn root(&self) -> Ppn {
        self.root
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    fn index_at(vpn: Vpn, level: usize) -> u64 {
        let shift = INDEX_BITS * (PT_LEVELS - 1 - level) as u32;
        (vpn.raw() >> shift) & INDEX_MASK
    }

    fn entry_addr(node: Ppn, index: u64) -> PAddr {
        node.base().offset(index * 8)
    }

    /// Walks the table for `vpn`, returning the outcome and the PTE
    /// addresses touched. A 2 MB large-page leaf terminates the walk
    /// one level early (3 accesses instead of 4); the returned PPN is
    /// the 4 KB *subframe* for `vpn`, so every consumer — TLBs, the
    /// FBT — operates at base-page granularity, which is exactly the
    /// paper's §4.3 subpage optimization.
    pub fn walk(&self, pm: &PhysMem, vpn: Vpn) -> (WalkOutcome, WalkPath) {
        let mut node = self.root;
        let mut path = WalkPath {
            entries: Vec::with_capacity(PT_LEVELS),
        };
        for level in 0..PT_LEVELS {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            path.entries.push(ea);
            let pte = pm.read_u64(ea);
            if !pte_present(pte) {
                return (WalkOutcome::Fault, path);
            }
            if level == PT_LEVELS - 2 && pte_large(pte) {
                let sub = vpn.raw() % PAGES_PER_LARGE;
                return (
                    WalkOutcome::Mapped {
                        ppn: Ppn::new(pte_ppn(pte).raw() + sub),
                        perms: pte_perms(pte),
                        large: true,
                    },
                    path,
                );
            }
            if level == PT_LEVELS - 1 {
                return (
                    WalkOutcome::Mapped {
                        ppn: pte_ppn(pte),
                        perms: pte_perms(pte),
                        large: false,
                    },
                    path,
                );
            }
            node = pte_ppn(pte);
        }
        unreachable!("walk must return at the leaf level")
    }

    /// Maps a 2 MB large page: `vpn` and `ppn` must be 512-page
    /// aligned; the mapping becomes a level-2 leaf over 512
    /// contiguous frames starting at `ppn`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadArgument`] on misalignment,
    /// [`MemError::AlreadyMapped`] if the slot is occupied, or
    /// [`MemError::OutOfFrames`] if an intermediate node cannot be
    /// allocated.
    pub fn map_large(
        &mut self,
        pm: &mut PhysMem,
        vpn: Vpn,
        ppn: Ppn,
        perms: Perms,
    ) -> Result<(), MemError> {
        if !vpn.raw().is_multiple_of(PAGES_PER_LARGE) || !ppn.raw().is_multiple_of(PAGES_PER_LARGE)
        {
            return Err(MemError::BadArgument("large mappings must be 2 MB aligned"));
        }
        let mut node = self.root;
        for level in 0..PT_LEVELS - 2 {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            let pte = pm.read_u64(ea);
            node = if pte_present(pte) {
                pte_ppn(pte)
            } else {
                let fresh = pm.alloc_frame()?;
                pm.write_u64(ea, pte_encode(fresh, Perms::from_bits(0b111)));
                fresh
            };
        }
        let leaf = Self::entry_addr(node, Self::index_at(vpn, PT_LEVELS - 2));
        if pte_present(pm.read_u64(leaf)) {
            return Err(MemError::AlreadyMapped(vpn.base()));
        }
        pm.write_u64(leaf, pte_encode_large(ppn, perms));
        self.mapped_pages += PAGES_PER_LARGE;
        Ok(())
    }

    /// Unmaps a 2 MB large page, returning its base frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if no large mapping is present
    /// at `vpn`, or [`MemError::BadArgument`] on misalignment.
    pub fn unmap_large(&mut self, pm: &mut PhysMem, vpn: Vpn) -> Result<Ppn, MemError> {
        if !vpn.raw().is_multiple_of(PAGES_PER_LARGE) {
            return Err(MemError::BadArgument("large mappings must be 2 MB aligned"));
        }
        let mut node = self.root;
        for level in 0..PT_LEVELS - 2 {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            let pte = pm.read_u64(ea);
            if !pte_present(pte) {
                return Err(MemError::NotMapped(vpn.base()));
            }
            node = pte_ppn(pte);
        }
        let leaf = Self::entry_addr(node, Self::index_at(vpn, PT_LEVELS - 2));
        let pte = pm.read_u64(leaf);
        if !pte_present(pte) || !pte_large(pte) {
            return Err(MemError::NotMapped(vpn.base()));
        }
        pm.write_u64(leaf, 0);
        self.mapped_pages -= PAGES_PER_LARGE;
        Ok(pte_ppn(pte))
    }

    /// Convenience: walks and returns the translation, ignoring timing.
    pub fn translate(&self, pm: &PhysMem, vpn: Vpn) -> Option<(Ppn, Perms)> {
        match self.walk(pm, vpn).0 {
            WalkOutcome::Mapped { ppn, perms, .. } => Some((ppn, perms)),
            WalkOutcome::Fault => None,
        }
    }

    /// Maps `vpn` to `ppn` with `perms`, allocating intermediate levels
    /// as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyMapped`] if the page is mapped, or
    /// [`MemError::OutOfFrames`] if an intermediate node cannot be
    /// allocated.
    pub fn map(
        &mut self,
        pm: &mut PhysMem,
        vpn: Vpn,
        ppn: Ppn,
        perms: Perms,
    ) -> Result<(), MemError> {
        let mut node = self.root;
        for level in 0..PT_LEVELS - 1 {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            let pte = pm.read_u64(ea);
            node = if pte_present(pte) {
                // A present level-2 large leaf already covers this VPN.
                // Descending through it would treat a *data* block as a
                // page-table node and scribble a PTE into it.
                if level == PT_LEVELS - 2 && pte_large(pte) {
                    return Err(MemError::AlreadyMapped(vpn.base()));
                }
                pte_ppn(pte)
            } else {
                let fresh = pm.alloc_frame()?;
                // Intermediate entries carry full permissions; leaves gate.
                pm.write_u64(ea, pte_encode(fresh, Perms::from_bits(0b111)));
                fresh
            };
        }
        let leaf = Self::entry_addr(node, Self::index_at(vpn, PT_LEVELS - 1));
        if pte_present(pm.read_u64(leaf)) {
            return Err(MemError::AlreadyMapped(vpn.base()));
        }
        pm.write_u64(leaf, pte_encode(ppn, perms));
        self.mapped_pages += 1;
        Ok(())
    }

    /// Unmaps `vpn`, returning the frame it mapped. Intermediate nodes
    /// are retained (as real OSes usually do).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if the page is not mapped.
    pub fn unmap(&mut self, pm: &mut PhysMem, vpn: Vpn) -> Result<Ppn, MemError> {
        let leaf = self
            .leaf_addr(pm, vpn)
            .ok_or(MemError::NotMapped(vpn.base()))?;
        let pte = pm.read_u64(leaf);
        if !pte_present(pte) {
            return Err(MemError::NotMapped(vpn.base()));
        }
        pm.write_u64(leaf, 0);
        self.mapped_pages -= 1;
        Ok(pte_ppn(pte))
    }

    /// Changes the permissions of a mapped page.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if the page is not mapped.
    pub fn protect(&mut self, pm: &mut PhysMem, vpn: Vpn, perms: Perms) -> Result<(), MemError> {
        let leaf = self
            .leaf_addr(pm, vpn)
            .ok_or(MemError::NotMapped(vpn.base()))?;
        let pte = pm.read_u64(leaf);
        if !pte_present(pte) {
            return Err(MemError::NotMapped(vpn.base()));
        }
        pm.write_u64(leaf, pte_encode(pte_ppn(pte), perms));
        Ok(())
    }

    /// Tears the table down, freeing every radix node frame including
    /// the root. Data frames referenced by still-present leaf entries
    /// are *not* freed — they belong to the frame refcounting in
    /// [`crate::OsLite`] — so callers should unmap data pages first.
    pub fn release(self, pm: &mut PhysMem) {
        // Nodes exist at depths 0 (root) through PT_LEVELS - 1 (leaf
        // tables). Depth PT_LEVELS - 1 entries point at data frames;
        // a large leaf at depth PT_LEVELS - 2 points at a contiguous
        // data block. Neither is descended into.
        fn free_node(pm: &mut PhysMem, node: Ppn, depth: usize) {
            if depth < PT_LEVELS - 1 {
                for i in 0..crate::phys::ENTRIES_PER_FRAME as u64 {
                    let pte = pm.read_u64(PageTable::entry_addr(node, i));
                    if pte_present(pte) && !(depth == PT_LEVELS - 2 && pte_large(pte)) {
                        free_node(pm, pte_ppn(pte), depth + 1);
                    }
                }
            }
            pm.free_frame(node);
        }
        free_node(pm, self.root, 0);
    }

    /// Collapses the *empty* level-3 leaf table covering the 2 MB
    /// block at `vpn`: clears the level-2 entry pointing at it and
    /// frees its node frame — the final step of a THP promotion, which
    /// first unmaps all 512 subpages and then installs a large leaf in
    /// the vacated slot.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadArgument`] on misalignment,
    /// [`MemError::NotMapped`] if no leaf table exists there.
    ///
    /// # Panics
    ///
    /// Panics if the leaf table still holds present entries — callers
    /// must unmap every subpage first.
    pub(crate) fn collapse_empty_leaf_table(
        &mut self,
        pm: &mut PhysMem,
        vpn: Vpn,
    ) -> Result<(), MemError> {
        if !vpn.raw().is_multiple_of(PAGES_PER_LARGE) {
            return Err(MemError::BadArgument("collapse needs a 2 MB aligned VPN"));
        }
        let mut node = self.root;
        for level in 0..PT_LEVELS - 2 {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            let pte = pm.read_u64(ea);
            if !pte_present(pte) {
                return Err(MemError::NotMapped(vpn.base()));
            }
            node = pte_ppn(pte);
        }
        let ea = Self::entry_addr(node, Self::index_at(vpn, PT_LEVELS - 2));
        let pte = pm.read_u64(ea);
        if !pte_present(pte) || pte_large(pte) {
            return Err(MemError::NotMapped(vpn.base()));
        }
        let leaf_table = pte_ppn(pte);
        for i in 0..crate::phys::ENTRIES_PER_FRAME as u64 {
            assert!(
                !pte_present(pm.read_u64(Self::entry_addr(leaf_table, i))),
                "collapsing a leaf table that still maps pages"
            );
        }
        pm.write_u64(ea, 0);
        pm.free_frame(leaf_table);
        Ok(())
    }

    fn leaf_addr(&self, pm: &PhysMem, vpn: Vpn) -> Option<PAddr> {
        let mut node = self.root;
        for level in 0..PT_LEVELS - 1 {
            let ea = Self::entry_addr(node, Self::index_at(vpn, level));
            let pte = pm.read_u64(ea);
            if !pte_present(pte) {
                return None;
            }
            // A large leaf has no 4 KB leaf table beneath it; reading
            // "entries" out of its data block would return garbage.
            if level == PT_LEVELS - 2 && pte_large(pte) {
                return None;
            }
            node = pte_ppn(pte);
        }
        Some(Self::entry_addr(node, Self::index_at(vpn, PT_LEVELS - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, PageTable) {
        let mut pm = PhysMem::new(16 << 20);
        let pt = PageTable::new(&mut pm).unwrap();
        (pm, pt)
    }

    #[test]
    fn map_then_walk_finds_translation() {
        let (mut pm, mut pt) = setup();
        let frame = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(0xABCDE), frame, Perms::READ_ONLY)
            .unwrap();
        let (out, path) = pt.walk(&pm, Vpn::new(0xABCDE));
        assert_eq!(
            out,
            WalkOutcome::Mapped {
                ppn: frame,
                perms: Perms::READ_ONLY,
                large: false
            }
        );
        assert_eq!(path.accesses(), PT_LEVELS);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmapped_walk_faults_early() {
        let (pm, pt) = setup();
        let (out, path) = pt.walk(&pm, Vpn::new(5));
        assert_eq!(out, WalkOutcome::Fault);
        assert_eq!(path.accesses(), 1, "root entry absent: one access");
    }

    #[test]
    fn sibling_pages_share_upper_levels() {
        let (mut pm, mut pt) = setup();
        let f1 = pm.alloc_frame().unwrap();
        let f2 = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(0x100), f1, Perms::READ_WRITE)
            .unwrap();
        pt.map(&mut pm, Vpn::new(0x101), f2, Perms::READ_WRITE)
            .unwrap();
        let (_, p1) = pt.walk(&pm, Vpn::new(0x100));
        let (_, p2) = pt.walk(&pm, Vpn::new(0x101));
        // Same root/mid nodes; only the leaf entry differs.
        assert_eq!(p1.entries[..3], p2.entries[..3]);
        assert_ne!(p1.entries[3], p2.entries[3]);
    }

    #[test]
    fn distant_pages_use_disjoint_subtrees() {
        let (mut pm, mut pt) = setup();
        let f1 = pm.alloc_frame().unwrap();
        let f2 = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(0), f1, Perms::READ_WRITE).unwrap();
        pt.map(&mut pm, Vpn::new(1 << 27), f2, Perms::READ_WRITE)
            .unwrap();
        let (_, p1) = pt.walk(&pm, Vpn::new(0));
        let (_, p2) = pt.walk(&pm, Vpn::new(1 << 27));
        assert_eq!(p1.entries[0].ppn(), p2.entries[0].ppn(), "same root frame");
        assert_ne!(p1.entries[0], p2.entries[0], "different root entries");
        assert_ne!(p1.entries[1], p2.entries[1]);
    }

    #[test]
    fn double_map_rejected() {
        let (mut pm, mut pt) = setup();
        let f = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(9), f, Perms::READ_WRITE).unwrap();
        assert!(matches!(
            pt.map(&mut pm, Vpn::new(9), f, Perms::READ_WRITE),
            Err(MemError::AlreadyMapped(_))
        ));
    }

    #[test]
    fn unmap_restores_fault() {
        let (mut pm, mut pt) = setup();
        let f = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(9), f, Perms::READ_WRITE).unwrap();
        assert_eq!(pt.unmap(&mut pm, Vpn::new(9)).unwrap(), f);
        assert_eq!(pt.walk(&pm, Vpn::new(9)).0, WalkOutcome::Fault);
        assert_eq!(pt.mapped_pages(), 0);
        assert!(matches!(
            pt.unmap(&mut pm, Vpn::new(9)),
            Err(MemError::NotMapped(_))
        ));
    }

    #[test]
    fn protect_changes_leaf_perms() {
        let (mut pm, mut pt) = setup();
        let f = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(77), f, Perms::READ_WRITE).unwrap();
        pt.protect(&mut pm, Vpn::new(77), Perms::READ_ONLY).unwrap();
        assert_eq!(pt.translate(&pm, Vpn::new(77)), Some((f, Perms::READ_ONLY)));
        assert!(matches!(
            pt.protect(&mut pm, Vpn::new(1), Perms::NONE),
            Err(MemError::NotMapped(_))
        ));
    }

    #[test]
    fn large_page_walk_is_one_level_shorter() {
        let (mut pm, mut pt) = setup();
        let base = pm.alloc_contiguous(PAGES_PER_LARGE).unwrap();
        pt.map_large(&mut pm, Vpn::new(512), base, Perms::READ_WRITE)
            .unwrap();
        assert_eq!(pt.mapped_pages(), PAGES_PER_LARGE);
        // Any subpage translates to its own subframe with 3 accesses.
        let (out, path) = pt.walk(&pm, Vpn::new(512 + 37));
        assert_eq!(path.accesses(), 3);
        assert_eq!(
            out,
            WalkOutcome::Mapped {
                ppn: Ppn::new(base.raw() + 37),
                perms: Perms::READ_WRITE,
                large: true
            }
        );
        let freed = pt.unmap_large(&mut pm, Vpn::new(512)).unwrap();
        assert_eq!(freed, base);
        assert_eq!(pt.walk(&pm, Vpn::new(512)).0, WalkOutcome::Fault);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn large_page_alignment_enforced() {
        let (mut pm, mut pt) = setup();
        let base = pm.alloc_contiguous(PAGES_PER_LARGE).unwrap();
        assert!(matches!(
            pt.map_large(&mut pm, Vpn::new(100), base, Perms::READ_WRITE),
            Err(MemError::BadArgument(_))
        ));
        assert!(matches!(
            pt.unmap_large(&mut pm, Vpn::new(100)),
            Err(MemError::BadArgument(_))
        ));
        assert!(matches!(
            pt.unmap_large(&mut pm, Vpn::new(1024)),
            Err(MemError::NotMapped(_))
        ));
    }

    #[test]
    fn large_and_base_pages_coexist() {
        let (mut pm, mut pt) = setup();
        let base = pm.alloc_contiguous(PAGES_PER_LARGE).unwrap();
        pt.map_large(&mut pm, Vpn::new(1024), base, Perms::READ_ONLY)
            .unwrap();
        let f = pm.alloc_frame().unwrap();
        pt.map(&mut pm, Vpn::new(5), f, Perms::READ_WRITE).unwrap();
        assert_eq!(pt.translate(&pm, Vpn::new(5)), Some((f, Perms::READ_WRITE)));
        assert_eq!(
            pt.translate(&pm, Vpn::new(1024 + 511)),
            Some((Ppn::new(base.raw() + 511), Perms::READ_ONLY))
        );
    }

    #[test]
    fn map_under_a_large_leaf_is_rejected_not_corrupting() {
        let (mut pm, mut pt) = setup();
        let base = pm.alloc_contiguous(PAGES_PER_LARGE).unwrap();
        pt.map_large(&mut pm, Vpn::new(1024), base, Perms::READ_WRITE)
            .unwrap();
        let f = pm.alloc_frame().unwrap();
        // Pre-fix, map() descended *through* the large leaf, treating
        // the 2 MB data block as a leaf table and writing a PTE into
        // it. Now the overlap is reported.
        assert!(matches!(
            pt.map(&mut pm, Vpn::new(1024 + 7), f, Perms::READ_WRITE),
            Err(MemError::AlreadyMapped(_))
        ));
        // The large mapping is intact and no data frame grew storage.
        assert_eq!(
            pt.translate(&pm, Vpn::new(1024 + 7)),
            Some((Ppn::new(base.raw() + 7), Perms::READ_WRITE))
        );
        // Pre-fix the leaf write landed at entry 7 of the data block's
        // base frame; that word must still read as untouched data.
        assert_eq!(
            pm.read_u64(base.base().offset(7 * 8)),
            0,
            "data block must not be scribbled with PTEs"
        );
    }

    #[test]
    fn unmap_and_protect_refuse_large_subpages() {
        let (mut pm, mut pt) = setup();
        let base = pm.alloc_contiguous(PAGES_PER_LARGE).unwrap();
        pt.map_large(&mut pm, Vpn::new(512), base, Perms::READ_WRITE)
            .unwrap();
        // Pre-fix, leaf_addr() read "PTEs" out of the data block: a
        // zero word faulted benignly, but any non-zero data word would
        // have been decoded as a leaf entry. Subpage ops now fail
        // cleanly (large mappings change only as a unit).
        assert!(matches!(
            pt.unmap(&mut pm, Vpn::new(512 + 9)),
            Err(MemError::NotMapped(_))
        ));
        assert!(matches!(
            pt.protect(&mut pm, Vpn::new(512 + 9), Perms::READ_ONLY),
            Err(MemError::NotMapped(_))
        ));
        assert_eq!(pt.mapped_pages(), PAGES_PER_LARGE);
        assert_eq!(
            pt.translate(&pm, Vpn::new(512 + 9)),
            Some((Ppn::new(base.raw() + 9), Perms::READ_WRITE))
        );
    }

    #[test]
    fn release_frees_every_node_frame() {
        let (mut pm, mut pt) = setup();
        let f1 = pm.alloc_frame().unwrap();
        let f2 = pm.alloc_frame().unwrap();
        // Two distant mappings build disjoint subtrees.
        pt.map(&mut pm, Vpn::new(0), f1, Perms::READ_WRITE).unwrap();
        pt.map(&mut pm, Vpn::new(1 << 27), f2, Perms::READ_WRITE)
            .unwrap();
        pt.unmap(&mut pm, Vpn::new(0)).unwrap();
        pt.unmap(&mut pm, Vpn::new(1 << 27)).unwrap();
        pm.free_frame(f1);
        pm.free_frame(f2);
        let nodes = pm.allocated_frames();
        assert!(nodes >= PT_LEVELS as u64, "intermediate nodes retained");
        pt.release(&mut pm);
        assert_eq!(pm.allocated_frames(), 0, "release frees every node");
        assert_eq!(pm.table_frame_count(), 0, "node storage dropped");
    }

    #[test]
    fn pte_roundtrip() {
        let pte = pte_encode(Ppn::new(0x12345), Perms::READ_WRITE);
        assert!(pte_present(pte));
        assert_eq!(pte_ppn(pte), Ppn::new(0x12345));
        assert_eq!(pte_perms(pte), Perms::READ_WRITE);
        assert!(!pte_present(0));
    }
}
