//! The OS-lite kernel: process creation, memory mapping, synonym
//! aliases, and TLB shootdowns.
//!
//! The paper's design is *software agnostic*: the hardware must handle
//! synonyms, homonyms, and shootdowns without OS cooperation. To
//! exercise that, this module provides the OS half of the contract —
//! it mutates page tables and tells the simulated hardware which pages
//! were invalidated via [`Shootdown`] notifications, exactly like an
//! IOMMU invalidation command from a host OS.

use crate::addr::{Asid, PAddr, Ppn, VAddr, VRange, Vpn, PAGE_BYTES};
use crate::page_table::{PageTable, WalkOutcome, WalkPath, PAGES_PER_LARGE};
use crate::perms::Perms;
use crate::phys::PhysMem;
use crate::space::AddressSpace;
use crate::MemError;
use gvc_engine::SortedMap;
use serde::{Deserialize, Serialize};

/// Maximum live processes (= usable ASIDs). The top ASID
/// (`Asid(u16::MAX)`) is reserved: the hardware model keys physically
/// indexed cache lines under it, so handing it to a process would alias
/// that process's lines with every physical line in the hierarchy.
pub const MAX_PROCESSES: usize = u16::MAX as usize;

/// Identifies a simulated process; its ASID equals its slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u16);

impl ProcessId {
    /// The ASID of this process.
    pub fn asid(self) -> Asid {
        Asid(self.0)
    }
}

/// A TLB-shootdown notification the hardware must apply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Shootdown {
    /// Invalidate specific pages of one address space.
    Pages {
        /// The address space whose pages changed.
        asid: Asid,
        /// The affected virtual pages.
        vpns: Vec<Vpn>,
    },
    /// Invalidate a contiguous run of pages of one address space.
    /// Semantically identical to [`Shootdown::Pages`] over
    /// `start..start + pages`, but carries two words instead of a
    /// materialized VPN vector — a 2 MB teardown names 512 pages, and
    /// tenant-churn storms used to allocate O(512·N) VPNs.
    Range {
        /// The address space whose pages changed.
        asid: Asid,
        /// First affected virtual page.
        start: Vpn,
        /// Number of consecutive pages invalidated.
        pages: u64,
    },
    /// Invalidate everything for one address space (e.g. exit).
    AllOf {
        /// The address space being torn down.
        asid: Asid,
    },
}

impl Shootdown {
    /// Number of individual page invalidations this notification
    /// demands (`None` for the full-space [`Shootdown::AllOf`]).
    pub fn page_count(&self) -> Option<u64> {
        match self {
            Shootdown::Pages { vpns, .. } => Some(vpns.len() as u64),
            Shootdown::Range { pages, .. } => Some(*pages),
            Shootdown::AllOf { .. } => None,
        }
    }
}

/// The OS-lite kernel: owns physical memory and all address spaces.
///
/// See the [crate-level example](crate) for typical use.
///
/// The kernel is its own checkpoint; the free-ASID list keeps its LIFO
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OsLite {
    phys: PhysMem,
    /// Address-space slots indexed by ASID; `None` marks an evicted
    /// process whose ASID sits on the recycling free list.
    spaces: Vec<Option<AddressSpace>>,
    /// ASIDs of destroyed processes, reused LIFO before the namespace
    /// grows. Without recycling, long-lived tenant churn would mint
    /// `spaces.len() as u16` past 65535 and silently alias two live
    /// address spaces onto one ASID.
    free_asids: Vec<u16>,
    /// How many virtual pages (across all spaces) map each frame —
    /// used to free frames only when the last alias goes away.
    frame_refs: SortedMap<Ppn, u32>,
    /// Live 2 MB mappings: start VPN of each large region.
    large_regions: SortedMap<(u16, u64), Ppn>,
    /// Transparent-huge-page placement policy: when set, `mmap`
    /// requests of 2 MB or more get a 2 MB-aligned virtual start, so
    /// the region's interior blocks are eligible for
    /// [`OsLite::promote`]. Off by default — enabling it changes the
    /// virtual layout, so it must be decided before any allocation.
    huge_aligned: bool,
}

impl OsLite {
    /// Boots a kernel with `phys_bytes` of physical memory.
    pub fn new(phys_bytes: u64) -> Self {
        OsLite {
            phys: PhysMem::new(phys_bytes),
            spaces: Vec::new(),
            free_asids: Vec::new(),
            frame_refs: SortedMap::default(),
            large_regions: SortedMap::default(),
            huge_aligned: false,
        }
    }

    /// Enables the huge-page placement policy (see the
    /// `huge_aligned` field): subsequent `mmap` calls of 256 KB or
    /// more are padded to whole 2 MB blocks and start on a 2 MB
    /// virtual boundary. Call before allocating — the policy does not
    /// move existing regions.
    pub fn set_huge_alignment(&mut self, on: bool) {
        self.huge_aligned = on;
    }

    /// Creates a process with an empty address space and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if physical memory cannot hold even the page-table root,
    /// or if every usable ASID is live (see
    /// [`OsLite::try_create_process`] for the fallible form).
    pub fn create_process(&mut self) -> ProcessId {
        match self.try_create_process() {
            Ok(pid) => pid,
            Err(MemError::OutOfFrames) => panic!("no frame for page-table root"),
            Err(e) => panic!("create_process: {e}"),
        }
    }

    /// Creates a process, recycling the ASID of the most recently
    /// destroyed one if any. Fresh ASIDs are minted in slot order until
    /// the namespace holds [`MAX_PROCESSES`] live spaces.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AsidsExhausted`] when every usable ASID is
    /// live, or [`MemError::OutOfFrames`] if physical memory cannot
    /// hold the page-table root.
    pub fn try_create_process(&mut self) -> Result<ProcessId, MemError> {
        let asid = match self.free_asids.pop() {
            Some(recycled) => Asid(recycled),
            None => {
                if self.spaces.len() >= MAX_PROCESSES {
                    return Err(MemError::AsidsExhausted);
                }
                Asid(self.spaces.len() as u16)
            }
        };
        let table = PageTable::new(&mut self.phys)?;
        let space = AddressSpace::new(asid, table);
        let slot = asid.0 as usize;
        if slot == self.spaces.len() {
            self.spaces.push(Some(space));
        } else {
            debug_assert!(self.spaces[slot].is_none(), "recycled a live ASID");
            self.spaces[slot] = Some(space);
        }
        Ok(ProcessId(asid.0))
    }

    /// Destroys a process: unmaps every region (freeing data frames
    /// whose last mapping disappears), releases the page-table frames,
    /// and pushes the ASID onto the recycling free list. Returns the
    /// full-address-space shootdown the hardware must apply — any
    /// translation or cache line still tagged with this ASID would
    /// otherwise leak to the next tenant that recycles it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for an unknown or already
    /// destroyed id.
    pub fn destroy_process(&mut self, pid: ProcessId) -> Result<Shootdown, MemError> {
        let space = self
            .spaces
            .get_mut(pid.0 as usize)
            .and_then(Option::take)
            .ok_or(MemError::NoSuchProcess(pid.0))?;
        let asid = space.asid();
        // Large mappings first: their subpages are not refcounted.
        // Sort for a deterministic free order (the allocator free list
        // is order-sensitive and hash-map iteration is not).
        let mut large: Vec<u64> = self
            .large_regions
            .keys()
            .filter(|(owner, _)| *owner == pid.0)
            .map(|&(_, vpn)| vpn)
            .collect();
        large.sort_unstable();
        let regions: Vec<VRange> = space.regions().to_vec();
        let mut table = space.into_table();
        for vpn in &large {
            table
                .unmap_large(&mut self.phys, Vpn::new(*vpn))
                .expect("tracked large mapping");
            self.large_regions.remove(&(pid.0, *vpn));
        }
        // Remaining small pages: walk each region, skipping pages the
        // large teardown already removed and pages never mapped.
        for range in regions {
            for vpn in range.pages() {
                let large_base = vpn.raw() - vpn.raw() % PAGES_PER_LARGE;
                if large.binary_search(&large_base).is_ok() {
                    continue;
                }
                if let Ok(frame) = table.unmap(&mut self.phys, vpn) {
                    let refs = self.frame_refs.get_mut(&frame).expect("refcounted frame");
                    *refs -= 1;
                    if *refs == 0 {
                        self.frame_refs.remove(&frame);
                        self.phys.free_frame(frame);
                    }
                }
            }
        }
        table.release(&mut self.phys);
        self.free_asids.push(asid.0);
        Ok(Shootdown::AllOf { asid })
    }

    /// Live process count (destroyed slots excluded).
    pub fn live_processes(&self) -> usize {
        self.spaces.iter().filter(|s| s.is_some()).count()
    }

    fn space_mut(&mut self, pid: ProcessId) -> Result<&mut AddressSpace, MemError> {
        self.spaces
            .get_mut(pid.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(MemError::NoSuchProcess(pid.0))
    }

    /// Split-borrow helper: the space and the physical memory at once.
    fn space_and_phys(
        &mut self,
        pid: ProcessId,
    ) -> Result<(&mut AddressSpace, &mut PhysMem), MemError> {
        let space = self
            .spaces
            .get_mut(pid.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(MemError::NoSuchProcess(pid.0))?;
        Ok((space, &mut self.phys))
    }

    /// The process's address space.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for an unknown id.
    pub fn space(&self, pid: ProcessId) -> Result<&AddressSpace, MemError> {
        self.spaces
            .get(pid.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(MemError::NoSuchProcess(pid.0))
    }

    /// The simulated physical memory.
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Maps a fresh region of `bytes` (rounded up to pages) with
    /// `perms`, backed by newly allocated frames.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] if physical memory is
    /// exhausted, or [`MemError::NoSuchProcess`].
    pub fn mmap(&mut self, pid: ProcessId, bytes: u64, perms: Perms) -> Result<VRange, MemError> {
        // THP placement: allocations of at least 1/8 of a large page
        // (khugepaged collapses blocks with trailing unmapped PTEs —
        // `max_ptes_none` — so partially-filled blocks still become
        // huge on real systems; eager mapping makes that a round-up
        // here) are padded to a whole number of 2 MB blocks and
        // started on a 2 MB virtual boundary, making every interior
        // block eligible for [`OsLite::promote`].
        const HUGE_ALLOC_MIN_BYTES: u64 = PAGES_PER_LARGE / 8 * PAGE_BYTES;
        let huge = self.huge_aligned && bytes >= HUGE_ALLOC_MIN_BYTES;
        let bytes = if huge {
            bytes.next_multiple_of(PAGES_PER_LARGE * PAGE_BYTES)
        } else {
            bytes
        };
        let space = self.space_mut(pid)?;
        let range = if huge {
            space.reserve_aligned(bytes, PAGES_PER_LARGE)
        } else {
            space.reserve(bytes)
        };
        for vpn in range.pages() {
            let frame = self.phys.alloc_frame()?;
            let (space, phys) = self.space_and_phys(pid)?;
            space.table_mut().map(phys, vpn, frame, perms)?;
            *self.frame_refs.entry(frame).or_insert(0) += 1;
        }
        Ok(range)
    }

    /// Maps a *synonym alias*: a fresh virtual range in `pid`'s space
    /// backed by the same physical frames as `src` (which must be
    /// mapped in `pid`'s own space). The alias inherits the source
    /// pages' permissions unless `perms_override` narrows them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if any source page is unmapped.
    pub fn mmap_alias(&mut self, pid: ProcessId, src: VRange) -> Result<VRange, MemError> {
        self.mmap_alias_with(pid, pid, src, None)
    }

    /// Maps a cross-process alias (shared memory): a fresh range in
    /// `dst_pid`'s space backed by `src_pid`'s frames for `src`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if any source page is unmapped,
    /// or [`MemError::NoSuchProcess`].
    pub fn mmap_shared(
        &mut self,
        dst_pid: ProcessId,
        src_pid: ProcessId,
        src: VRange,
    ) -> Result<VRange, MemError> {
        self.mmap_alias_with(dst_pid, src_pid, src, None)
    }

    /// Alias with an explicit permission override (e.g. a read-only
    /// view of writable pages).
    ///
    /// # Errors
    ///
    /// Same as [`OsLite::mmap_alias`].
    pub fn mmap_alias_with(
        &mut self,
        dst_pid: ProcessId,
        src_pid: ProcessId,
        src: VRange,
        perms_override: Option<Perms>,
    ) -> Result<VRange, MemError> {
        // Collect source translations first (borrow discipline).
        let mut backing = Vec::with_capacity(src.page_count() as usize);
        {
            let src_space = self.space(src_pid)?;
            for vpn in src.pages() {
                let (ppn, perms) = src_space
                    .table()
                    .translate(&self.phys, vpn)
                    .ok_or(MemError::NotMapped(vpn.base()))?;
                backing.push((ppn, perms_override.unwrap_or(perms)));
            }
        }
        let range = self.space_mut(dst_pid)?.reserve(src.bytes());
        for (vpn, (ppn, perms)) in range.pages().zip(backing) {
            let (space, phys) = self.space_and_phys(dst_pid)?;
            space.table_mut().map(phys, vpn, ppn, perms)?;
            *self.frame_refs.entry(ppn).or_insert(0) += 1;
        }
        Ok(range)
    }

    /// Maps `count` 2 MB large pages (§4.3): physically contiguous,
    /// 2 MB-aligned virtual and physical. Hardware consumers see the
    /// mapping at 4 KB subpage granularity (splintered translations),
    /// but walks terminate a level early.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] if contiguous memory is
    /// exhausted, or [`MemError::NoSuchProcess`].
    pub fn mmap_large(
        &mut self,
        pid: ProcessId,
        count: u64,
        perms: Perms,
    ) -> Result<VRange, MemError> {
        if count == 0 {
            return Err(MemError::BadArgument("count must be positive"));
        }
        let range = self.space_mut(pid)?.reserve_aligned(
            count * PAGES_PER_LARGE * crate::addr::PAGE_BYTES,
            PAGES_PER_LARGE,
        );
        for i in 0..count {
            let base = self.phys.alloc_contiguous(PAGES_PER_LARGE)?;
            let vpn = Vpn::new(range.start().vpn().raw() + i * PAGES_PER_LARGE);
            let (space, phys) = self.space_and_phys(pid)?;
            space.table_mut().map_large(phys, vpn, base, perms)?;
            self.large_regions.insert((pid.0, vpn.raw()), base);
        }
        Ok(range)
    }

    /// Unmaps one 2 MB large page at `vpn`, returning the shootdown
    /// covering all 512 subpages.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if no large mapping lives there.
    pub fn munmap_large(&mut self, pid: ProcessId, vpn: Vpn) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let (space, phys) = self.space_and_phys(pid)?;
        space.table_mut().unmap_large(phys, vpn)?;
        self.large_regions.remove(&(pid.0, vpn.raw()));
        // Contiguous blocks are not refcounted (no aliasing support);
        // frames are intentionally retired with the mapping.
        Ok(Shootdown::Range {
            asid,
            start: vpn,
            pages: PAGES_PER_LARGE,
        })
    }

    /// Unmaps a region, freeing frames whose last mapping disappears,
    /// and returns the shootdown the hardware must apply.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if any page is unmapped.
    pub fn munmap(&mut self, pid: ProcessId, range: VRange) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let mut vpns = Vec::with_capacity(range.page_count() as usize);
        for vpn in range.pages() {
            let (space, phys) = self.space_and_phys(pid)?;
            let frame = space.table_mut().unmap(phys, vpn)?;
            let refs = self.frame_refs.get_mut(&frame).expect("refcounted frame");
            *refs -= 1;
            if *refs == 0 {
                self.frame_refs.remove(&frame);
                self.phys.free_frame(frame);
            }
            vpns.push(vpn);
        }
        self.space_mut(pid)?.forget_region(range);
        Ok(Shootdown::Pages { asid, vpns })
    }

    /// Changes a region's permissions and returns the shootdown the
    /// hardware must apply.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if any page is unmapped.
    pub fn mprotect(
        &mut self,
        pid: ProcessId,
        range: VRange,
        perms: Perms,
    ) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let mut vpns = Vec::with_capacity(range.page_count() as usize);
        for vpn in range.pages() {
            let (space, phys) = self.space_and_phys(pid)?;
            space.table_mut().protect(phys, vpn, perms)?;
            vpns.push(vpn);
        }
        Ok(Shootdown::Pages { asid, vpns })
    }

    /// Migrates one mapped 4 KB page to a freshly allocated physical
    /// frame, returning the shootdown the hardware must apply — the
    /// OS-transparent page move (compaction, NUMA balancing, Mosaic-
    /// style migration) that the paper's design must survive
    /// mid-kernel. The page keeps its permissions; if other virtual
    /// pages alias the old frame they keep it (synonyms legitimately
    /// diverge from the moved page afterwards), and the old frame is
    /// freed only when this was its last mapping.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if `vpn` is unmapped,
    /// [`MemError::BadArgument`] if it lies inside a 2 MB large
    /// mapping (those move as a unit, never per-subpage),
    /// [`MemError::OutOfFrames`] if no destination frame exists, or
    /// [`MemError::NoSuchProcess`].
    pub fn remap_page(&mut self, pid: ProcessId, vpn: Vpn) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let large_base = vpn.raw() - vpn.raw() % PAGES_PER_LARGE;
        if self.large_regions.contains_key(&(pid.0, large_base)) {
            return Err(MemError::BadArgument(
                "cannot remap a subpage of a large mapping",
            ));
        }
        let (_, perms) = self
            .space(pid)?
            .table()
            .translate(&self.phys, vpn)
            .ok_or(MemError::NotMapped(vpn.base()))?;
        // Allocate the destination first so failure leaves the mapping
        // untouched.
        let new_frame = self.phys.alloc_frame()?;
        let old_frame = {
            let (space, phys) = self.space_and_phys(pid)?;
            match space.table_mut().unmap(phys, vpn) {
                Ok(frame) => frame,
                Err(e) => {
                    self.phys.free_frame(new_frame);
                    return Err(e);
                }
            }
        };
        {
            let (space, phys) = self.space_and_phys(pid)?;
            space
                .table_mut()
                .map(phys, vpn, new_frame, perms)
                .expect("slot was just unmapped");
        }
        *self.frame_refs.entry(new_frame).or_insert(0) += 1;
        let refs = self
            .frame_refs
            .get_mut(&old_frame)
            .expect("refcounted frame");
        *refs -= 1;
        if *refs == 0 {
            self.frame_refs.remove(&old_frame);
            self.phys.free_frame(old_frame);
        }
        Ok(Shootdown::Pages {
            asid,
            vpns: vec![vpn],
        })
    }

    /// Transparently *promotes* the 2 MB-aligned block containing
    /// `vpn` into a large page (Mosaic-style THP): all 512 subpages
    /// must be mapped 4 KB pages with identical permissions and no
    /// aliases (a shared frame cannot be silently relocated), and 512
    /// physically contiguous frames must be free — the policy's
    /// fragmentation gate. The subpages move to a fresh contiguous
    /// block; the old frames are freed. Returns the shootdown covering
    /// every relocated subpage.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if any subpage is missing,
    /// [`MemError::BadArgument`] if the block is already large, spans
    /// mixed permissions, or contains aliased frames, or
    /// [`MemError::OutOfFrames`] when fragmentation leaves no 2 MB
    /// contiguous block (the promotion is refused, nothing changes).
    pub fn promote(&mut self, pid: ProcessId, vpn: Vpn) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let base = Vpn::new(vpn.raw() - vpn.raw() % PAGES_PER_LARGE);
        if self.large_regions.contains_key(&(pid.0, base.raw())) {
            return Err(MemError::BadArgument("block is already a large mapping"));
        }
        let mut perms = None;
        for i in 0..PAGES_PER_LARGE {
            let sub = Vpn::new(base.raw() + i);
            let (ppn, p) = self
                .space(pid)?
                .table()
                .translate(&self.phys, sub)
                .ok_or(MemError::NotMapped(sub.base()))?;
            match perms {
                None => perms = Some(p),
                Some(q) if q == p => {}
                Some(_) => {
                    return Err(MemError::BadArgument(
                        "mixed permissions cannot share one large PTE",
                    ))
                }
            }
            if self.frame_refs.get(&ppn).copied().unwrap_or(0) != 1 {
                return Err(MemError::BadArgument(
                    "aliased subpage frames cannot be relocated",
                ));
            }
        }
        let perms = perms.expect("512 subpages checked");
        // The fragmentation gate: allocate the destination before
        // touching the mappings so a refusal leaves everything intact.
        let block = self.phys.alloc_contiguous(PAGES_PER_LARGE)?;
        for i in 0..PAGES_PER_LARGE {
            let sub = Vpn::new(base.raw() + i);
            let (space, phys) = self.space_and_phys(pid)?;
            let frame = space
                .table_mut()
                .unmap(phys, sub)
                .expect("subpage checked mapped");
            let refs = self.frame_refs.get_mut(&frame).expect("refcounted frame");
            *refs -= 1;
            if *refs == 0 {
                self.frame_refs.remove(&frame);
                self.phys.free_frame(frame);
            }
        }
        let (space, phys) = self.space_and_phys(pid)?;
        // The vacated leaf table still occupies the level-2 slot;
        // collapse it so the large leaf can take its place.
        space
            .table_mut()
            .collapse_empty_leaf_table(phys, base)
            .expect("subpages were just unmapped");
        let (space, phys) = self.space_and_phys(pid)?;
        space
            .table_mut()
            .map_large(phys, base, block, perms)
            .expect("slot was just collapsed");
        self.large_regions.insert((pid.0, base.raw()), block);
        Ok(Shootdown::Range {
            asid,
            start: base,
            pages: PAGES_PER_LARGE,
        })
    }

    /// *Splinters* the large mapping containing `vpn` back into 512
    /// individual 4 KB PTEs over the same physical frames — the THP
    /// fragmentation path (driven through the inject subsystem).
    /// Translations are unchanged (same subframes, same permissions);
    /// only the page-table shape and TLB reach change, so the hardware
    /// must still drop any 2 MB-grain cached entries — hence the
    /// returned shootdown.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if no large mapping covers
    /// `vpn`, or [`MemError::NoSuchProcess`].
    pub fn splinter(&mut self, pid: ProcessId, vpn: Vpn) -> Result<Shootdown, MemError> {
        let asid = self.space(pid)?.asid();
        let base = Vpn::new(vpn.raw() - vpn.raw() % PAGES_PER_LARGE);
        if !self.large_regions.contains_key(&(pid.0, base.raw())) {
            return Err(MemError::NotMapped(base.base()));
        }
        let (space, phys) = self.space_and_phys(pid)?;
        let (_, perms) = space
            .table()
            .translate(phys, base)
            .expect("tracked large mapping");
        let block = space
            .table_mut()
            .unmap_large(phys, base)
            .expect("tracked large mapping");
        for i in 0..PAGES_PER_LARGE {
            let sub = Vpn::new(base.raw() + i);
            let frame = Ppn::new(block.raw() + i);
            let (space, phys) = self.space_and_phys(pid)?;
            space
                .table_mut()
                .map(phys, sub, frame, perms)
                .expect("slot was just vacated");
            *self.frame_refs.entry(frame).or_insert(0) += 1;
        }
        self.large_regions.remove(&(pid.0, base.raw()));
        Ok(Shootdown::Range {
            asid,
            start: base,
            pages: PAGES_PER_LARGE,
        })
    }

    /// Applies the transparent huge-page policy across every live
    /// address space: each fully-mapped, alias-free, uniformly-
    /// permissioned 2 MB-aligned block whose contiguity gate passes is
    /// promoted. Blocks that fail a precondition are skipped, not
    /// errors. Returns the shootdowns in deterministic (ASID, VPN)
    /// order so callers can replay them onto the hardware.
    pub fn promote_all(&mut self) -> Vec<Shootdown> {
        let mut out = Vec::new();
        for slot in 0..self.spaces.len() {
            let Some(space) = &self.spaces[slot] else {
                continue;
            };
            let pid = ProcessId(slot as u16);
            // Collect candidate block bases first (borrow discipline):
            // every 2 MB-aligned block fully inside a mapped region.
            let mut bases: Vec<u64> = Vec::new();
            for range in space.regions() {
                let lo = range.start().vpn().raw().div_ceil(PAGES_PER_LARGE) * PAGES_PER_LARGE;
                let end = range.start().vpn().raw() + range.page_count();
                let mut base = lo;
                while base + PAGES_PER_LARGE <= end {
                    bases.push(base);
                    base += PAGES_PER_LARGE;
                }
            }
            bases.sort_unstable();
            bases.dedup();
            for base in bases {
                if let Ok(sd) = self.promote(pid, Vpn::new(base)) {
                    out.push(sd);
                }
            }
        }
        out
    }

    /// Whether `vpn` currently lies inside a live 2 MB large mapping.
    pub fn is_large(&self, pid: ProcessId, vpn: Vpn) -> bool {
        let base = vpn.raw() - vpn.raw() % PAGES_PER_LARGE;
        self.large_regions.contains_key(&(pid.0, base))
    }

    /// Number of live 2 MB large mappings across all address spaces.
    pub fn large_mapping_count(&self) -> usize {
        self.large_regions.len()
    }

    /// Functionally translates a virtual address (no timing).
    pub fn translate(&self, pid: ProcessId, va: VAddr) -> Option<(PAddr, Perms)> {
        let space = self.space(pid).ok()?;
        let (ppn, perms) = space.table().translate(&self.phys, va.vpn())?;
        Some((ppn.base().offset(va.page_offset()), perms))
    }

    /// Walks the page table as the hardware walker would, returning the
    /// outcome and the PTE addresses touched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for an unknown id.
    pub fn walk(&self, pid: ProcessId, vpn: Vpn) -> Result<(WalkOutcome, WalkPath), MemError> {
        Ok(self.space(pid)?.table().walk(&self.phys, vpn))
    }

    /// Walks by ASID (how the IOMMU, which only knows ASIDs, walks).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for an unknown ASID.
    pub fn walk_asid(&self, asid: Asid, vpn: Vpn) -> Result<(WalkOutcome, WalkPath), MemError> {
        self.walk(ProcessId(asid.0), vpn)
    }

    /// Whether the whole `span`-page-aligned block containing `vpn` is
    /// mapped physically contiguously with uniform permissions — the
    /// fill-time eligibility probe for coalesced reach-TLB entries
    /// ("Enabling Large-Reach TLBs"-style subregion contiguity).
    /// Functional only: a span's PTEs share the cache line the walker
    /// already fetched, so hardware gets this answer for free.
    pub fn span_contiguous_asid(&self, asid: Asid, vpn: Vpn, span: u64) -> bool {
        let Ok(space) = self.space(ProcessId(asid.0)) else {
            return false;
        };
        let base = vpn.raw() - vpn.raw() % span;
        let Some((ppn0, perms0)) = space.table().translate(&self.phys, Vpn::new(base)) else {
            return false;
        };
        (1..span).all(|i| {
            space.table().translate(&self.phys, Vpn::new(base + i))
                == Some((Ppn::new(ppn0.raw() + i), perms0))
        })
    }

    /// Restores `snap`, which must describe a machine with the same
    /// physical memory size.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's physical memory size does not match.
    pub fn restore(&mut self, snap: &OsLite) {
        assert_eq!(
            self.phys.total_frames(),
            snap.phys.total_frames(),
            "physical memory snapshot size mismatch"
        );
        self.clone_from(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    #[test]
    fn mmap_maps_every_page() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, 4 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        for vpn in r.pages() {
            let (pa, perms) = os.translate(pid, vpn.base()).expect("mapped");
            assert_eq!(perms, Perms::READ_WRITE);
            assert_eq!(pa.page_offset(), 0);
        }
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, 8 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let mut frames = std::collections::HashSet::new();
        for vpn in r.pages() {
            let (pa, _) = os.translate(pid, vpn.base()).unwrap();
            assert!(frames.insert(pa.ppn()));
        }
    }

    #[test]
    fn alias_shares_frames() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, 2 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let alias = os.mmap_alias(pid, r).unwrap();
        assert_ne!(r.start(), alias.start());
        for (a, b) in r.pages().zip(alias.pages()) {
            let (pa, _) = os.translate(pid, a.base()).unwrap();
            let (pb, _) = os.translate(pid, b.base()).unwrap();
            assert_eq!(pa, pb, "alias pages share frames");
        }
    }

    #[test]
    fn shared_mapping_across_processes() {
        let mut os = OsLite::new(8 << 20);
        let p1 = os.create_process();
        let p2 = os.create_process();
        assert_ne!(p1.asid(), p2.asid());
        let r = os.mmap(p1, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let shared = os.mmap_shared(p2, p1, r).unwrap();
        let (pa1, _) = os.translate(p1, r.start()).unwrap();
        let (pa2, _) = os.translate(p2, shared.start()).unwrap();
        assert_eq!(pa1, pa2);
    }

    #[test]
    fn alias_with_narrowed_perms() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let ro = os
            .mmap_alias_with(pid, pid, r, Some(Perms::READ_ONLY))
            .unwrap();
        let (_, perms) = os.translate(pid, ro.start()).unwrap();
        assert_eq!(perms, Perms::READ_ONLY);
    }

    #[test]
    fn munmap_emits_shootdown_and_frees_frames() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, 2 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let after_map = os.phys().allocated_frames();
        let sd = os.munmap(pid, r).unwrap();
        match sd {
            Shootdown::Pages { asid, vpns } => {
                assert_eq!(asid, pid.asid());
                assert_eq!(vpns.len(), 2);
            }
            other => panic!("unexpected shootdown {other:?}"),
        }
        // The two data frames are freed; page-table nodes are retained.
        assert_eq!(os.phys().allocated_frames(), after_map - 2);
        assert_eq!(os.translate(pid, r.start()), None);
    }

    #[test]
    fn munmap_keeps_aliased_frames_alive() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let alias = os.mmap_alias(pid, r).unwrap();
        let (pa, _) = os.translate(pid, alias.start()).unwrap();
        os.munmap(pid, r).unwrap();
        // The alias still resolves to the same frame.
        assert_eq!(os.translate(pid, alias.start()).unwrap().0, pa);
    }

    #[test]
    fn mprotect_updates_perms_and_notifies() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let sd = os.mprotect(pid, r, Perms::READ_ONLY).unwrap();
        assert!(matches!(sd, Shootdown::Pages { .. }));
        let (_, perms) = os.translate(pid, r.start()).unwrap();
        assert_eq!(perms, Perms::READ_ONLY);
    }

    #[test]
    fn bad_process_id_is_reported() {
        let mut os = OsLite::new(8 << 20);
        assert!(matches!(
            os.mmap(ProcessId(9), PAGE_BYTES, Perms::READ_WRITE),
            Err(MemError::NoSuchProcess(9))
        ));
        assert!(os.translate(ProcessId(9), VAddr::new(0)).is_none());
    }

    #[test]
    fn out_of_frames_surfaces() {
        let mut os = OsLite::new(8 * PAGE_BYTES); // tiny machine
        let pid = os.create_process();
        // Root + intermediates consume frames; a large mmap must fail.
        assert!(matches!(
            os.mmap(pid, 64 * PAGE_BYTES, Perms::READ_WRITE),
            Err(MemError::OutOfFrames)
        ));
    }

    #[test]
    fn mmap_large_covers_512_subpages() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 2, Perms::READ_WRITE).unwrap();
        assert_eq!(r.page_count(), 2 * PAGES_PER_LARGE);
        assert_eq!(
            r.start().vpn().raw() % PAGES_PER_LARGE,
            0,
            "2 MB aligned VA"
        );
        // Subpages translate to contiguous frames with 3-level walks.
        let (out, path) = os.walk(pid, Vpn::new(r.start().vpn().raw() + 7)).unwrap();
        assert_eq!(path.accesses(), 3);
        let WalkOutcome::Mapped { ppn, .. } = out else {
            panic!("mapped")
        };
        let (out0, _) = os.walk(pid, r.start().vpn()).unwrap();
        let WalkOutcome::Mapped { ppn: base, .. } = out0 else {
            panic!("mapped")
        };
        assert_eq!(ppn.raw(), base.raw() + 7);
        assert_eq!(base.raw() % PAGES_PER_LARGE, 0, "2 MB aligned PA");
    }

    #[test]
    fn munmap_large_shoots_down_every_subpage() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 1, Perms::READ_WRITE).unwrap();
        let sd = os.munmap_large(pid, r.start().vpn()).unwrap();
        // A compact range, not a 512-entry vector — but covering
        // exactly the same pages.
        assert_eq!(
            sd,
            Shootdown::Range {
                asid: pid.asid(),
                start: r.start().vpn(),
                pages: PAGES_PER_LARGE
            }
        );
        assert_eq!(sd.page_count(), Some(PAGES_PER_LARGE));
        assert!(os.translate(pid, r.start()).is_none());
        assert!(os.munmap_large(pid, r.start().vpn()).is_err());
    }

    #[test]
    fn promote_relocates_to_a_contiguous_block() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os
            .mmap(pid, PAGES_PER_LARGE * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        // User mappings start at 4 GiB, so the first region is 2 MB
        // aligned and the whole block is promotable.
        let base = r.start().vpn();
        assert_eq!(base.raw() % PAGES_PER_LARGE, 0, "first region is aligned");
        let sd = os.promote(pid, base).unwrap();
        assert_eq!(
            sd,
            Shootdown::Range {
                asid: pid.asid(),
                start: base,
                pages: PAGES_PER_LARGE
            }
        );
        assert!(os.is_large(pid, Vpn::new(base.raw() + 99)));
        assert_eq!(os.large_mapping_count(), 1);
        // Subpages now walk in 3 levels onto one contiguous block.
        let (out, path) = os.walk(pid, Vpn::new(base.raw() + 37)).unwrap();
        assert_eq!(path.accesses(), 3);
        let WalkOutcome::Mapped {
            ppn, large: true, ..
        } = out
        else {
            panic!("promoted block must walk as a large page, got {out:?}");
        };
        let (out0, _) = os.walk(pid, base).unwrap();
        let WalkOutcome::Mapped { ppn: blk, .. } = out0 else {
            panic!("mapped")
        };
        assert_eq!(ppn.raw(), blk.raw() + 37);
        assert_eq!(blk.raw() % PAGES_PER_LARGE, 0);
        // Double promotion refused.
        assert!(os.promote(pid, base).is_err());
    }

    #[test]
    fn promote_refuses_aliased_and_mixed_perm_blocks() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os
            .mmap(pid, PAGES_PER_LARGE * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        let base = r.start().vpn();
        assert_eq!(base.raw() % PAGES_PER_LARGE, 0, "first region is aligned");
        // An alias of one subpage pins its frame.
        let one = VRange::new(base.base(), PAGE_BYTES);
        os.mmap_alias(pid, one).unwrap();
        assert!(matches!(
            os.promote(pid, base),
            Err(MemError::BadArgument(_))
        ));
        // Mixed permissions refuse too.
        let mut os2 = OsLite::new(64 << 20);
        let pid2 = os2.create_process();
        let r2 = os2
            .mmap(pid2, PAGES_PER_LARGE * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        os2.mprotect(pid2, VRange::new(r2.start(), PAGE_BYTES), Perms::READ_ONLY)
            .unwrap();
        assert!(matches!(
            os2.promote(pid2, r2.start().vpn()),
            Err(MemError::BadArgument(_))
        ));
        // A hole refuses as NotMapped.
        let mut os3 = OsLite::new(64 << 20);
        let pid3 = os3.create_process();
        let r3 = os3
            .mmap(pid3, PAGES_PER_LARGE * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        os3.munmap(pid3, VRange::new(r3.start(), PAGE_BYTES))
            .unwrap();
        assert!(matches!(
            os3.promote(pid3, r3.start().vpn()),
            Err(MemError::NotMapped(_))
        ));
    }

    #[test]
    fn splinter_preserves_every_translation() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let r = os.mmap_large(pid, 1, Perms::READ_ONLY).unwrap();
        let base = r.start().vpn();
        let before: Vec<_> = (0..PAGES_PER_LARGE)
            .map(|i| os.translate(pid, Vpn::new(base.raw() + i).base()).unwrap())
            .collect();
        let sd = os.splinter(pid, Vpn::new(base.raw() + 200)).unwrap();
        assert_eq!(
            sd,
            Shootdown::Range {
                asid: pid.asid(),
                start: base,
                pages: PAGES_PER_LARGE
            }
        );
        assert!(!os.is_large(pid, base));
        for (i, want) in before.iter().enumerate() {
            let got = os
                .translate(pid, Vpn::new(base.raw() + i as u64).base())
                .unwrap();
            assert_eq!(&got, want, "splinter must not move subpage {i}");
        }
        // Walks now take 4 levels and report base pages.
        let (out, path) = os.walk(pid, base).unwrap();
        assert_eq!(path.accesses(), 4);
        assert!(matches!(out, WalkOutcome::Mapped { large: false, .. }));
        // Subpages are individually unmappable afterwards (refcounted).
        let frames = os.phys().allocated_frames();
        os.munmap(pid, VRange::new(base.base(), PAGE_BYTES))
            .unwrap();
        assert_eq!(os.phys().allocated_frames(), frames - 1);
        // And the block can be re-promoted once contiguity allows.
        assert!(os.splinter(pid, base).is_err(), "no longer large");
    }

    #[test]
    fn promote_then_splinter_roundtrip_keeps_destroy_clean() {
        let mut os = OsLite::new(128 << 20);
        let baseline = os.phys().allocated_frames();
        let pid = os.create_process();
        os.mmap(pid, PAGES_PER_LARGE * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        let sds = os.promote_all();
        assert_eq!(sds.len(), 1, "one eligible block");
        assert_eq!(os.large_mapping_count(), 1);
        let start = match &sds[0] {
            Shootdown::Range { start, .. } => *start,
            other => panic!("unexpected {other:?}"),
        };
        os.splinter(pid, start).unwrap();
        assert_eq!(os.large_mapping_count(), 0);
        os.destroy_process(pid).unwrap();
        // Splintered frames are refcounted, so teardown frees them all.
        assert_eq!(
            os.phys().allocated_frames(),
            baseline,
            "no frames leak through a promote/splinter/destroy cycle"
        );
    }

    #[test]
    fn remap_page_moves_frame_and_keeps_perms() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, 2 * PAGE_BYTES, Perms::READ_ONLY).unwrap();
        let vpn = r.start().vpn();
        let (before, _) = os.translate(pid, vpn.base()).unwrap();
        let frames_before = os.phys().allocated_frames();
        let sd = os.remap_page(pid, vpn).unwrap();
        assert_eq!(
            sd,
            Shootdown::Pages {
                asid: pid.asid(),
                vpns: vec![vpn]
            }
        );
        let (after, perms) = os.translate(pid, vpn.base()).unwrap();
        assert_ne!(before.ppn(), after.ppn(), "page moved to a new frame");
        assert_eq!(perms, Perms::READ_ONLY);
        // Old frame freed, new frame allocated: net zero.
        assert_eq!(os.phys().allocated_frames(), frames_before);
    }

    #[test]
    fn remap_page_leaves_aliases_on_the_old_frame() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let alias = os.mmap_alias(pid, r).unwrap();
        let (old, _) = os.translate(pid, alias.start()).unwrap();
        os.remap_page(pid, r.start().vpn()).unwrap();
        // The alias still resolves to the old frame (the synonym
        // diverged); the remapped page went elsewhere.
        assert_eq!(os.translate(pid, alias.start()).unwrap().0, old);
        assert_ne!(os.translate(pid, r.start()).unwrap().0.ppn(), old.ppn());
        // Old frame survived because the alias still holds it:
        // unmapping the alias must free exactly one frame.
        let before = os.phys().allocated_frames();
        os.munmap(pid, alias).unwrap();
        assert_eq!(os.phys().allocated_frames(), before - 1);
    }

    #[test]
    fn remap_page_rejects_unmapped_and_large_pages() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        assert!(matches!(
            os.remap_page(pid, Vpn::new(0x7777)),
            Err(MemError::NotMapped(_))
        ));
        let large = os.mmap_large(pid, 1, Perms::READ_WRITE).unwrap();
        let inside = Vpn::new(large.start().vpn().raw() + 3);
        assert!(matches!(
            os.remap_page(pid, inside),
            Err(MemError::BadArgument(_))
        ));
        // The large mapping is untouched.
        assert!(os.translate(pid, inside.base()).is_some());
    }

    #[test]
    fn asid_mint_errors_at_the_limit_instead_of_aliasing() {
        // Enough lazy physical memory for one root frame per process.
        let mut os = OsLite::new((MAX_PROCESSES as u64 + 8) * PAGE_BYTES);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..MAX_PROCESSES {
            let pid = os.try_create_process().expect("below the limit");
            assert!(
                seen.insert(pid.asid()),
                "ASID {:?} minted twice",
                pid.asid()
            );
        }
        // The old `spaces.len() as u16` minting would wrap here and
        // hand out Asid(65535) — the reserved physical-cache key — and
        // then alias Asid(0). With recycling + the structured error the
        // namespace refuses instead.
        assert_eq!(os.try_create_process(), Err(MemError::AsidsExhausted));
        assert_eq!(os.live_processes(), MAX_PROCESSES);
        // Destroying any process makes room again, reusing its ASID.
        os.destroy_process(ProcessId(123)).unwrap();
        let recycled = os.try_create_process().unwrap();
        assert_eq!(recycled.asid(), Asid(123));
    }

    #[test]
    fn destroy_process_frees_every_frame_and_recycles_the_asid() {
        let mut os = OsLite::new(64 << 20);
        let baseline = os.phys().allocated_frames();
        let pid = os.create_process();
        let r = os.mmap(pid, 4 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        os.mmap_alias(pid, r).unwrap();
        os.mmap_large(pid, 1, Perms::READ_WRITE).unwrap();
        let sd = os.destroy_process(pid).unwrap();
        assert_eq!(sd, Shootdown::AllOf { asid: pid.asid() });
        // Data frames and every page-table node frame are returned;
        // only the intentionally retired 2 MB contiguous block stays.
        assert_eq!(
            os.phys().allocated_frames(),
            baseline + PAGES_PER_LARGE,
            "teardown must not leak refcounted or page-table frames"
        );
        assert_eq!(os.phys().table_frame_count(), 0);
        // The dead pid no longer resolves …
        assert!(matches!(
            os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE),
            Err(MemError::NoSuchProcess(_))
        ));
        assert!(os.destroy_process(pid).is_err());
        // … and the next tenant recycles its ASID with a clean table.
        let reborn = os.create_process();
        assert_eq!(reborn.asid(), pid.asid());
        assert!(os.translate(reborn, r.start()).is_none());
    }

    #[test]
    fn destroy_process_keeps_shared_frames_alive() {
        let mut os = OsLite::new(8 << 20);
        let p1 = os.create_process();
        let p2 = os.create_process();
        let r = os.mmap(p1, 2 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let shared = os.mmap_shared(p2, p1, r).unwrap();
        let (pa, _) = os.translate(p2, shared.start()).unwrap();
        os.destroy_process(p1).unwrap();
        // p2's view of the shared frames survives p1's exit.
        assert_eq!(os.translate(p2, shared.start()).unwrap().0, pa);
    }

    #[test]
    fn snapshot_restore_is_behaviorally_identical() {
        // Build a kernel with aliasing, large pages, a destroyed
        // process (recycled ASID), and a partially-zeroed table frame.
        let mut os = OsLite::new(64 << 20);
        let p1 = os.create_process();
        let p2 = os.create_process();
        let r1 = os.mmap(p1, 4 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        os.mmap_alias(p1, r1).unwrap();
        os.mmap_shared(p2, p1, r1).unwrap();
        os.mmap_large(p2, 1, Perms::READ_ONLY).unwrap();
        let dead = os.create_process();
        os.mmap(dead, 2 * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        os.destroy_process(dead).unwrap();

        let snap = OsLite::from_value(&os.to_value()).expect("checkpoint decodes");
        assert_eq!(snap, os, "decode is lossless");
        let mut restored = OsLite::new(64 << 20);
        restored.restore(&snap);
        assert_eq!(restored, snap, "restore is a fixed point");

        // Run the same operations on both kernels in lockstep: ASID
        // recycling, frame allocation order, refcounted frees, and
        // translation results must all agree.
        let reborn_a = os.create_process();
        let reborn_b = restored.create_process();
        assert_eq!(reborn_a, reborn_b, "LIFO ASID recycling preserved");
        let ra = os
            .mmap(reborn_a, 3 * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        let rb = restored
            .mmap(reborn_b, 3 * PAGE_BYTES, Perms::READ_WRITE)
            .unwrap();
        assert_eq!(ra, rb, "region placement preserved");
        for vpn in ra.pages() {
            assert_eq!(
                os.translate(reborn_a, vpn.base()),
                restored.translate(reborn_b, vpn.base()),
                "frame allocation order preserved"
            );
        }
        assert_eq!(os.munmap(reborn_a, ra), restored.munmap(reborn_b, rb));
        assert_eq!(
            os.phys().allocated_frames(),
            restored.phys().allocated_frames()
        );
        assert_eq!(
            os.phys().table_frame_count(),
            restored.phys().table_frame_count()
        );
        assert_eq!(os, restored, "still identical");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn restore_rejects_mismatched_phys_size() {
        let os = OsLite::new(8 << 20);
        let mut other = OsLite::new(16 << 20);
        other.restore(&os);
    }

    #[test]
    fn walk_asid_matches_walk() {
        let mut os = OsLite::new(8 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, PAGE_BYTES, Perms::READ_WRITE).unwrap();
        let vpn = r.start().vpn();
        let (o1, p1) = os.walk(pid, vpn).unwrap();
        let (o2, p2) = os.walk_asid(pid.asid(), vpn).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(p1, p2);
    }
}
