//! Address newtypes and page/line geometry.
//!
//! The simulated machine uses 4 KB base pages and 128 B cache lines
//! (Table 1 of the paper), so each page holds [`LINES_PER_PAGE`] = 32
//! lines — which is why the backward table's per-page presence bit
//! vector is 32 bits wide.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Add;

/// Bytes per base page (4 KB).
pub const PAGE_BYTES: u64 = 4096;
/// Bytes per cache line (128 B, Table 1).
pub const LINE_BYTES: u64 = 128;
/// Cache lines per base page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// An address-space identifier distinguishing processes (homonym
/// disambiguation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Asid(pub u16);

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid{}", self.0)
    }
}

impl Asid {
    /// The ASID spread over all 64 bits by an odd-constant multiply.
    /// XORed into a line or page index, it moves homonyms (one index in
    /// several address spaces) apart in the low bits that set indexes
    /// and hash buckets are taken from; a plain shift would leave the
    /// ASID above them.
    #[inline]
    pub const fn fold(self) -> u64 {
        (self.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// An ASID and a line or page index packed into one `u64`,
/// `index | asid << 48`: the tag of the cache and TLB way scans and the
/// key of the in-flight fill maps. Line indices and VPNs of 48-bit
/// addresses fit in the low 48 bits.
///
/// The packed order is `(asid, index)` order. [`Hash`] feeds the index
/// XOR [`Asid::fold`], so keys of one address space spread over the
/// buckets by index and homonyms do not share one.
///
/// ```
/// use gvc_mem::{Asid, AsidKey};
///
/// let k = AsidKey::new(Asid(7), 0x1234);
/// assert_eq!((k.asid(), k.index()), (Asid(7), 0x1234));
/// assert!(AsidKey::new(Asid(1), 9) < AsidKey::new(Asid(2), 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct AsidKey(u64);

impl AsidKey {
    /// Bits below the ASID that hold the index.
    pub const INDEX_BITS: u32 = 48;

    /// Packs `asid` and `index`; `index` must fit in
    /// [`Self::INDEX_BITS`] bits (callers check in debug builds).
    #[inline]
    pub const fn new(asid: Asid, index: u64) -> Self {
        AsidKey(index | (asid.0 as u64) << Self::INDEX_BITS)
    }

    /// [`Self::new`] for untrusted input, such as a checkpoint: `None`
    /// when `index` does not fit.
    pub const fn checked(asid: Asid, index: u64) -> Option<Self> {
        if index >> Self::INDEX_BITS == 0 {
            Some(Self::new(asid, index))
        } else {
            None
        }
    }

    /// The address space.
    #[inline]
    pub const fn asid(self) -> Asid {
        Asid((self.0 >> Self::INDEX_BITS) as u16)
    }

    /// The line or page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0 & ((1 << Self::INDEX_BITS) - 1)
    }
}

impl Hash for AsidKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.index() ^ self.asid().fold());
    }
}

/// A virtual byte address.
///
/// ```
/// use gvc_mem::{VAddr, PAGE_BYTES};
///
/// let va = VAddr::new(PAGE_BYTES + 130);
/// assert_eq!(va.vpn().raw(), 1);
/// assert_eq!(va.page_offset(), 130);
/// assert_eq!(va.line_in_page(), 1);
/// assert_eq!(va.line_base().raw(), PAGE_BYTES + 128);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VAddr(u64);

/// A physical byte address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PAddr(u64);

/// A virtual page number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Vpn(u64);

/// A physical page number (frame number).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ppn(u64);

macro_rules! addr_common {
    ($t:ident, $what:literal) => {
        impl $t {
            /// Creates from a raw value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                $t(raw)
            }

            /// The raw value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($what, "{:#x}"), self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_common!(VAddr, "va ");
addr_common!(PAddr, "pa ");
addr_common!(Vpn, "vpn ");
addr_common!(Ppn, "ppn ");

macro_rules! byte_addr_geometry {
    ($addr:ident, $page:ident) => {
        impl $addr {
            /// The page number containing this address.
            #[inline]
            pub const fn page(self) -> $page {
                $page(self.0 >> PAGE_SHIFT)
            }

            /// Offset within the page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_BYTES - 1)
            }

            /// Global cache-line index (address / line size).
            #[inline]
            pub const fn line_index(self) -> u64 {
                self.0 >> LINE_SHIFT
            }

            /// Index of this address's line within its page (0..=31).
            #[inline]
            pub const fn line_in_page(self) -> u32 {
                (self.page_offset() >> LINE_SHIFT) as u32
            }

            /// The address rounded down to its line base.
            #[inline]
            pub const fn line_base(self) -> $addr {
                $addr(self.0 & !(LINE_BYTES - 1))
            }

            /// The address rounded down to its page base.
            #[inline]
            pub const fn page_base(self) -> $addr {
                $addr(self.0 & !(PAGE_BYTES - 1))
            }

            /// Offset the address by `bytes`.
            #[inline]
            pub const fn offset(self, bytes: u64) -> $addr {
                $addr(self.0 + bytes)
            }
        }

        impl Add<u64> for $addr {
            type Output = $addr;
            #[inline]
            fn add(self, rhs: u64) -> $addr {
                $addr(self.0 + rhs)
            }
        }

        impl $page {
            /// The byte address of the start of this page.
            #[inline]
            pub const fn base(self) -> $addr {
                $addr(self.0 << PAGE_SHIFT)
            }

            /// The byte address of line `line` (0..=31) within this page.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `line >= LINES_PER_PAGE`.
            #[inline]
            pub fn line_addr(self, line: u32) -> $addr {
                debug_assert!((line as u64) < LINES_PER_PAGE);
                $addr((self.0 << PAGE_SHIFT) + (line as u64) * LINE_BYTES)
            }
        }
    };
}

byte_addr_geometry!(VAddr, Vpn);
byte_addr_geometry!(PAddr, Ppn);

impl VAddr {
    /// Alias for [`VAddr::page`] reading as "virtual page number".
    #[inline]
    pub const fn vpn(self) -> Vpn {
        self.page()
    }
}

impl PAddr {
    /// Alias for [`PAddr::page`] reading as "physical page number".
    #[inline]
    pub const fn ppn(self) -> Ppn {
        self.page()
    }
}

impl Vpn {
    /// Replaces the page of `va`-style offset: builds a virtual address
    /// at the same page offset as `like` but within this page. Used when
    /// replaying a synonym access at its leading virtual address.
    #[inline]
    pub fn with_offset_of(self, like: VAddr) -> VAddr {
        VAddr((self.0 << PAGE_SHIFT) | like.page_offset())
    }
}

/// A page-aligned virtual address range.
///
/// ```
/// use gvc_mem::{VAddr, VRange, PAGE_BYTES};
///
/// let r = VRange::new(VAddr::new(0x10000), 3 * PAGE_BYTES);
/// assert_eq!(r.pages().count(), 3);
/// assert!(r.contains(VAddr::new(0x10000 + 100)));
/// assert_eq!(r.addr_at(PAGE_BYTES), VAddr::new(0x10000).offset(PAGE_BYTES));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VRange {
    start: VAddr,
    bytes: u64,
}

impl VRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page aligned or `bytes` is not a
    /// positive multiple of the page size.
    pub fn new(start: VAddr, bytes: u64) -> Self {
        assert_eq!(start.page_offset(), 0, "range start must be page aligned");
        assert!(
            bytes > 0 && bytes.is_multiple_of(PAGE_BYTES),
            "range length must be a positive page multiple"
        );
        VRange { start, bytes }
    }

    /// First byte address.
    pub fn start(&self) -> VAddr {
        self.start
    }

    /// One past the last byte.
    pub fn end(&self) -> VAddr {
        self.start.offset(self.bytes)
    }

    /// Length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.bytes / PAGE_BYTES
    }

    /// Iterates over the pages in the range.
    pub fn pages(&self) -> impl Iterator<Item = Vpn> + '_ {
        let first = self.start.vpn().raw();
        (first..first + self.page_count()).map(Vpn::new)
    }

    /// Whether `va` falls inside the range.
    pub fn contains(&self, va: VAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Address at byte offset `off` from the start.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `off` is out of range.
    #[inline]
    pub fn addr_at(&self, off: u64) -> VAddr {
        debug_assert!(off < self.bytes, "offset {off} out of range");
        self.start.offset(off)
    }
}

impl fmt::Display for VRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start.raw(), self.end().raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_agree() {
        assert_eq!(LINES_PER_PAGE, 32);
        assert_eq!(PAGE_BYTES, 1 << PAGE_SHIFT);
        assert_eq!(LINE_BYTES, 1 << LINE_SHIFT);
    }

    #[test]
    fn vaddr_decomposition() {
        let va = VAddr::new(3 * PAGE_BYTES + 5 * LINE_BYTES + 17);
        assert_eq!(va.vpn(), Vpn::new(3));
        assert_eq!(va.page_offset(), 5 * LINE_BYTES + 17);
        assert_eq!(va.line_in_page(), 5);
        assert_eq!(va.line_base().raw(), 3 * PAGE_BYTES + 5 * LINE_BYTES);
        assert_eq!(va.page_base().raw(), 3 * PAGE_BYTES);
        assert_eq!(va.line_index(), va.raw() / LINE_BYTES);
    }

    #[test]
    fn page_to_addr_roundtrip() {
        let vpn = Vpn::new(42);
        assert_eq!(vpn.base().vpn(), vpn);
        assert_eq!(vpn.line_addr(31).line_in_page(), 31);
        assert_eq!(vpn.line_addr(0), vpn.base());
    }

    #[test]
    fn with_offset_of_replays_synonyms() {
        let leading = Vpn::new(7);
        let access = VAddr::new(9 * PAGE_BYTES + 1234);
        let replay = leading.with_offset_of(access);
        assert_eq!(replay.vpn(), leading);
        assert_eq!(replay.page_offset(), 1234);
    }

    #[test]
    fn paddr_mirrors_vaddr_geometry() {
        let pa = PAddr::new(PAGE_BYTES + 300);
        assert_eq!(pa.ppn(), Ppn::new(1));
        assert_eq!(pa.line_in_page(), 2);
        assert_eq!(Ppn::new(1).base(), PAddr::new(PAGE_BYTES));
    }

    #[test]
    fn vrange_iteration_and_membership() {
        let r = VRange::new(VAddr::new(2 * PAGE_BYTES), 2 * PAGE_BYTES);
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(pages, vec![Vpn::new(2), Vpn::new(3)]);
        assert!(r.contains(r.start()));
        assert!(!r.contains(r.end()));
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.to_string(), "[0x2000, 0x4000)");
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn vrange_rejects_misaligned_start() {
        let _ = VRange::new(VAddr::new(100), PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "page multiple")]
    fn vrange_rejects_bad_length() {
        let _ = VRange::new(VAddr::new(0), 100);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VAddr::new(0x1000).to_string(), "va 0x1000");
        assert_eq!(Ppn::new(5).to_string(), "ppn 0x5");
        assert_eq!(Asid(3).to_string(), "asid3");
        assert_eq!(format!("{:x}", VAddr::new(255)), "ff");
    }
}
