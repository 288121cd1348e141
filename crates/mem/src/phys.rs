//! Simulated physical memory: frame allocation and page-table frame
//! storage.
//!
//! Data pages never need backing storage in this simulator (the timing
//! model tracks addresses, not values), but **page-table frames are
//! real**: each holds 512 eight-byte entries that the page-table walker
//! reads level by level. [`PhysMem`] lazily materializes storage for
//! exactly those frames.

use crate::addr::{PAddr, Ppn, PAGE_BYTES};
use crate::MemError;
use gvc_engine::{EntryKey, SortedMap};
use serde::{Deserialize, Error, JsonReader, Serialize, Sink};

/// Number of 8-byte entries in one page-table frame.
pub const ENTRIES_PER_FRAME: usize = (PAGE_BYTES / 8) as usize;

impl EntryKey for Ppn {}

/// The storage of one page-table frame, written as `[index, entry]`
/// pairs for its non-zero entries only.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame(Box<[u64; ENTRIES_PER_FRAME]>);

impl Serialize for Frame {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let entries = self.0.iter().enumerate().filter(|&(_, &e)| e != 0);
        let pairs: Vec<(u32, u64)> = entries.map(|(i, &e)| (i as u32, e)).collect();
        pairs.serialize(sink);
    }
}

impl Deserialize for Frame {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        let mut frame = Box::new([0u64; ENTRIES_PER_FRAME]);
        r.seq(|r| {
            let (i, e) = <(u32, u64)>::deserialize(r)?;
            *frame
                .get_mut(i as usize)
                .ok_or_else(|| Error::msg(format!("page-table frame has no entry {i}")))? = e;
            Ok(())
        })?;
        Ok(Frame(frame))
    }
}

/// Simulated physical memory: a bump-plus-free-list frame allocator and
/// backing storage for page-table frames.
///
/// ```
/// use gvc_mem::PhysMem;
///
/// let mut pm = PhysMem::new(1 << 20); // 1 MiB = 256 frames
/// assert_eq!(pm.total_frames(), 256);
/// let f = pm.alloc_frame()?;
/// pm.free_frame(f);
/// let g = pm.alloc_frame()?; // recycled
/// assert_eq!(f, g);
/// # Ok::<(), gvc_mem::MemError>(())
/// ```
///
/// The allocator is its own checkpoint: the free list in LIFO order,
/// and every table frame, even one whose entries all went back to zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysMem {
    total_frames: u64,
    next_fresh: u64,
    free_list: Vec<Ppn>,
    /// Backing storage, only for frames used as page-table nodes.
    tables: SortedMap<Ppn, Frame>,
    allocated: u64,
}

impl PhysMem {
    /// Creates a physical memory of `bytes` size (rounded down to whole
    /// frames).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one page.
    pub fn new(bytes: u64) -> Self {
        let total_frames = bytes / PAGE_BYTES;
        assert!(
            total_frames > 0,
            "physical memory must hold at least one frame"
        );
        PhysMem {
            total_frames,
            next_fresh: 0,
            free_list: Vec::new(),
            tables: SortedMap::default(),
            allocated: 0,
        }
    }

    /// Total frames in the machine.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Allocates a frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when physical memory is
    /// exhausted.
    pub fn alloc_frame(&mut self) -> Result<Ppn, MemError> {
        let ppn = if let Some(p) = self.free_list.pop() {
            p
        } else if self.next_fresh < self.total_frames {
            let p = Ppn::new(self.next_fresh);
            self.next_fresh += 1;
            p
        } else {
            return Err(MemError::OutOfFrames);
        };
        self.allocated += 1;
        Ok(ppn)
    }

    /// Allocates `n` physically contiguous frames aligned to `n`
    /// (for 2 MB large pages), returning the first frame. Contiguous
    /// blocks always come from fresh memory, never the free list.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when not enough fresh frames
    /// remain.
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<Ppn, MemError> {
        assert!(n > 0, "must allocate at least one frame");
        let start = self.next_fresh.div_ceil(n) * n;
        if start + n > self.total_frames {
            return Err(MemError::OutOfFrames);
        }
        // Frames skipped for alignment go to the free list.
        for skipped in self.next_fresh..start {
            self.free_list.push(Ppn::new(skipped));
        }
        self.next_fresh = start + n;
        self.allocated += n;
        Ok(Ppn::new(start))
    }

    /// Returns a frame to the allocator, dropping any page-table storage
    /// it held.
    pub fn free_frame(&mut self, ppn: Ppn) {
        self.tables.remove(&ppn);
        self.allocated = self.allocated.saturating_sub(1);
        self.free_list.push(ppn);
    }

    /// Reads the 8-byte entry at `pa` (used by page-table walks).
    /// Unmaterialized storage reads as zero, like freshly zeroed frames.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `pa` is not 8-byte aligned.
    pub fn read_u64(&self, pa: PAddr) -> u64 {
        debug_assert_eq!(pa.raw() % 8, 0, "unaligned page-table read");
        let idx = (pa.page_offset() / 8) as usize;
        self.tables.get(&pa.ppn()).map_or(0, |t| t.0[idx])
    }

    /// Writes the 8-byte entry at `pa`, materializing the frame's
    /// storage on first touch.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `pa` is not 8-byte aligned.
    pub fn write_u64(&mut self, pa: PAddr, value: u64) {
        debug_assert_eq!(pa.raw() % 8, 0, "unaligned page-table write");
        let idx = (pa.page_offset() / 8) as usize;
        let frame = self
            .tables
            .entry(pa.ppn())
            .or_insert_with(|| Frame(Box::new([0u64; ENTRIES_PER_FRAME])));
        frame.0[idx] = value;
    }

    /// Number of frames holding materialized page-table storage.
    pub fn table_frame_count(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_frames_until_exhaustion() {
        let mut pm = PhysMem::new(4 * PAGE_BYTES);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            assert!(seen.insert(pm.alloc_frame().unwrap()));
        }
        assert_eq!(pm.alloc_frame(), Err(MemError::OutOfFrames));
        assert_eq!(pm.allocated_frames(), 4);
    }

    #[test]
    fn free_list_recycles() {
        let mut pm = PhysMem::new(2 * PAGE_BYTES);
        let a = pm.alloc_frame().unwrap();
        let _b = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        assert_eq!(pm.allocated_frames(), 1);
        assert_eq!(pm.alloc_frame().unwrap(), a);
    }

    #[test]
    fn table_storage_reads_back() {
        let mut pm = PhysMem::new(1 << 20);
        let f = pm.alloc_frame().unwrap();
        let pa = f.base().offset(16);
        assert_eq!(pm.read_u64(pa), 0, "fresh frames read as zero");
        pm.write_u64(pa, 0xDEAD_BEEF);
        assert_eq!(pm.read_u64(pa), 0xDEAD_BEEF);
        assert_eq!(pm.table_frame_count(), 1);
        pm.free_frame(f);
        assert_eq!(pm.read_u64(pa), 0, "freed frames drop storage");
    }

    #[test]
    fn contiguous_allocation_is_aligned_and_disjoint() {
        let mut pm = PhysMem::new(64 << 20);
        let single = pm.alloc_frame().unwrap();
        let big = pm.alloc_contiguous(512).unwrap();
        assert_eq!(big.raw() % 512, 0, "2 MB aligned");
        assert!(big.raw() > single.raw());
        // Alignment gap frames are recycled, not leaked.
        let next = pm.alloc_frame().unwrap();
        assert!(next.raw() < big.raw() || next.raw() >= big.raw() + 512);
        // Exhaustion reported.
        let mut tiny = PhysMem::new(16 * PAGE_BYTES);
        assert!(tiny.alloc_contiguous(512).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_size_rejected() {
        let _ = PhysMem::new(100);
    }
}
