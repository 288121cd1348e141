#![warn(missing_docs)]

//! Address-translation hardware for the `gvc` simulator.
//!
//! This crate models every translation structure in the paper's
//! baseline SoC (Figure 1, Table 1):
//!
//! * [`tlb`] — a generic TLB usable as a 32-entry fully associative
//!   per-CU TLB, a 512/16K-entry set-associative shared IOMMU TLB, or
//!   an *infinite* TLB (for the paper's IDEAL MMU and demand-miss
//!   measurements). Evictions report entry lifetimes for Figure 12.
//! * [`pwc`] — the 8 KB page-walk cache that makes multi-level walks
//!   cheap by exploiting page-directory locality.
//! * [`walker`] — a pool of 16 concurrent page-table walkers that walk
//!   the *real* radix tables from `gvc-mem`, charging per-level PWC or
//!   memory latency.
//! * [`iommu`] — the shared translation front end: a bandwidth-limited
//!   lookup port (the paper's central bottleneck), the shared TLB, the
//!   walker pool, and an optional second-level lookup hook (used by
//!   `gvc` to employ the forward-backward table as a second-level TLB,
//!   the paper's "VC With OPT" design).
//!
//! # Example: serialization at a 1-access-per-cycle IOMMU
//!
//! ```
//! use gvc_engine::Cycle;
//! use gvc_mem::{OsLite, Perms};
//! use gvc_tlb::iommu::{Iommu, IommuConfig, IommuOutcome};
//!
//! let mut os = OsLite::new(32 << 20);
//! let pid = os.create_process();
//! let region = os.mmap(pid, 4096 * 8, Perms::READ_WRITE)?;
//!
//! let mut iommu = Iommu::new(IommuConfig::small());
//! let vpn = region.start().vpn();
//! // Two requests in the same cycle: the second queues behind the first.
//! let a = iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
//! let b = iommu.translate(pid.asid(), vpn, Cycle::new(0), &os, None);
//! // The 1-access-per-cycle port serializes the same-cycle arrivals.
//! assert!(b.service_at > a.service_at);
//! assert!(matches!(b.outcome, gvc_tlb::IommuOutcome::TlbHit { .. }));
//! # Ok::<(), gvc_mem::MemError>(())
//! ```

pub mod iommu;
pub mod pwc;
pub mod tlb;
pub mod walker;

pub use iommu::{Iommu, IommuConfig, IommuOutcome, IommuResponse};
pub use pwc::{Pwc, PwcConfig};
pub use tlb::{Evicted, Tlb, TlbConfig, TlbEntry, TlbKey, TlbOrganization, TlbSnapshot};
pub use walker::WalkerPool;
