//! Per-process address spaces.
//!
//! An [`AddressSpace`] is a page table plus region bookkeeping: a bump
//! allocator hands out page-aligned virtual ranges with guard gaps.
//! Synonym aliases (several virtual pages mapping the same physical
//! page) are created through [`crate::OsLite::mmap_alias`]; this module
//! only records the metadata.

use crate::addr::{Asid, VAddr, VRange, PAGE_BYTES};
use crate::page_table::PageTable;
use serde::{Deserialize, Serialize};

/// Pages of guard gap between allocated regions.
const GUARD_PAGES: u64 = 16;

/// A process's virtual address space: its ASID, page table, and the
/// regions allocated so far.
///
/// A checkpoint holds the space as is. Field order is the checkpoint's
/// key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressSpace {
    asid: Asid,
    table: PageTable,
    next_page: u64,
    regions: Vec<VRange>,
}

impl AddressSpace {
    /// Wraps a fresh page table as a new address space. User mappings
    /// start at 4 GiB to keep low addresses recognizable in traces.
    pub(crate) fn new(asid: Asid, table: PageTable) -> Self {
        AddressSpace {
            asid,
            table,
            next_page: (4 << 30) / PAGE_BYTES,
            regions: Vec::new(),
        }
    }

    /// The space's ASID.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The space's page table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    pub(crate) fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// Consumes the space, yielding its page table (process teardown).
    pub(crate) fn into_table(self) -> PageTable {
        self.table
    }

    /// Regions allocated so far, in allocation order.
    pub fn regions(&self) -> &[VRange] {
        &self.regions
    }

    /// Reserves a fresh virtual range of `bytes` (rounded up to whole
    /// pages) without mapping it.
    pub(crate) fn reserve(&mut self, bytes: u64) -> VRange {
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let start = VAddr::new(self.next_page * PAGE_BYTES);
        self.next_page += pages + GUARD_PAGES;
        let range = VRange::new(start, pages * PAGE_BYTES);
        self.regions.push(range);
        range
    }

    /// Reserves a fresh virtual range whose start is aligned to
    /// `align_pages` pages (2 MB large mappings need 512).
    pub(crate) fn reserve_aligned(&mut self, bytes: u64, align_pages: u64) -> VRange {
        self.next_page = self.next_page.div_ceil(align_pages) * align_pages;
        self.reserve(bytes)
    }

    pub(crate) fn forget_region(&mut self, range: VRange) {
        self.regions.retain(|r| r != &range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::PhysMem;

    #[test]
    fn reserve_hands_out_disjoint_ranges() {
        let mut pm = PhysMem::new(1 << 20);
        let table = PageTable::new(&mut pm).unwrap();
        let mut space = AddressSpace::new(Asid(1), table);
        let a = space.reserve(3 * PAGE_BYTES);
        let b = space.reserve(100); // rounds up to one page
        assert_eq!(a.page_count(), 3);
        assert_eq!(b.page_count(), 1);
        assert!(a.end() <= b.start(), "regions must not overlap");
        assert!(b.start().raw() - a.end().raw() >= GUARD_PAGES * PAGE_BYTES);
        assert_eq!(space.regions().len(), 2);
        assert_eq!(space.asid(), Asid(1));
    }

    #[test]
    fn forget_region_drops_bookkeeping() {
        let mut pm = PhysMem::new(1 << 20);
        let table = PageTable::new(&mut pm).unwrap();
        let mut space = AddressSpace::new(Asid(0), table);
        let a = space.reserve(PAGE_BYTES);
        space.forget_region(a);
        assert!(space.regions().is_empty());
    }
}
