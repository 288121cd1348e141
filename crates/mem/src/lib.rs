#![warn(missing_docs)]

//! Virtual-memory substrate for the `gvc` simulator.
//!
//! The paper's system translates GPU virtual addresses through real
//! x86-64-style page tables walked by the IOMMU's page-table walkers.
//! This crate builds that substrate from scratch:
//!
//! * [`addr`] — virtual/physical address newtypes, page and cache-line
//!   geometry ([`VAddr`], [`PAddr`], [`Vpn`], [`Ppn`], [`Asid`],
//!   [`AsidKey`], [`VRange`]).
//! * [`perms`] — page permissions ([`Perms`]).
//! * [`phys`] — physical frame allocation and the simulated physical
//!   memory that holds page-table frames ([`PhysMem`]).
//! * [`page_table`] — a 4-level radix page table stored *in* simulated
//!   physical frames; walks return the physical addresses of the four
//!   PTEs they touch, so the page-walk cache in `gvc-tlb` sees the same
//!   locality a hardware walker would.
//! * [`space`] — per-process address spaces with `mmap`-style region
//!   allocation, synonym aliases (several virtual pages mapping one
//!   physical page), and homonyms (same virtual page in different
//!   address spaces).
//! * [`os`] — an OS-lite kernel: owns physical memory and every address
//!   space, services page mapping/unmapping/permission changes, and
//!   emits the TLB-shootdown notifications the hierarchy must honor.
//!
//! # Example
//!
//! ```
//! use gvc_mem::{OsLite, Perms};
//!
//! let mut os = OsLite::new(64 << 20); // 64 MiB of simulated DRAM
//! let pid = os.create_process();
//! let region = os.mmap(pid, 16 * 4096, Perms::READ_WRITE)?;
//! let (pa, perms) = os.translate(pid, region.start()).expect("mapped");
//! assert!(perms.allows_write());
//! // A synonym alias of the same physical pages at a different VA:
//! let alias = os.mmap_alias(pid, region)?;
//! let (pa2, _) = os.translate(pid, alias.start()).expect("mapped");
//! assert_eq!(pa, pa2);
//! # Ok::<(), gvc_mem::MemError>(())
//! ```

pub mod addr;
pub mod os;
pub mod page_table;
pub mod perms;
pub mod phys;
pub mod space;

pub use addr::{
    Asid, AsidKey, PAddr, Ppn, VAddr, VRange, Vpn, LINES_PER_PAGE, LINE_BYTES, PAGE_BYTES,
};
pub use os::{OsLite, ProcessId, Shootdown};
pub use page_table::{PageTable, WalkOutcome, WalkPath, PAGES_PER_LARGE, PT_LEVELS};
pub use perms::Perms;
pub use phys::PhysMem;
pub use space::AddressSpace;

use std::fmt;

/// Errors returned by the virtual-memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Physical memory is exhausted.
    OutOfFrames,
    /// The virtual address or range is already mapped.
    AlreadyMapped(VAddr),
    /// The virtual address is not mapped.
    NotMapped(VAddr),
    /// The process id is unknown.
    NoSuchProcess(u16),
    /// Every usable ASID is live: the allocator's recycling free list
    /// is empty and the namespace (see [`os::MAX_PROCESSES`]) is full.
    AsidsExhausted,
    /// A length or alignment argument was invalid.
    BadArgument(&'static str),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfFrames => write!(f, "out of physical frames"),
            MemError::AlreadyMapped(va) => write!(f, "virtual address {va} is already mapped"),
            MemError::NotMapped(va) => write!(f, "virtual address {va} is not mapped"),
            MemError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            MemError::AsidsExhausted => write!(
                f,
                "ASID namespace exhausted: {} address spaces are live",
                os::MAX_PROCESSES
            ),
            MemError::BadArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for MemError {}
