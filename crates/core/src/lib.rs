#![warn(missing_docs)]

//! # gvc — a GPU virtual cache hierarchy as a translation bandwidth filter
//!
//! A from-scratch reproduction of *"Filtering Translation Bandwidth
//! with Virtual Caching"* (Yoon, Lowe-Power, Sohi — ASPLOS 2018).
//!
//! Integrated GPUs translate virtual addresses on every memory access.
//! Because GPU wavefronts issue highly divergent scatter/gather
//! requests, per-CU TLBs miss constantly, and all those misses funnel
//! into one shared IOMMU TLB that can service about one lookup per
//! cycle — the paper shows the resulting *serialization* is the
//! dominant cost of GPU address translation. The proposal: make the
//! whole GPU cache hierarchy **virtual**, so cache hits never need
//! translation, and let the hierarchy *filter* translation bandwidth.
//! A **forward–backward table** ([`fbt::Fbt`]) at the IOMMU keeps
//! virtual caching correct (synonyms, homonyms, shootdowns, coherence)
//! with no OS involvement.
//!
//! This crate provides:
//!
//! * [`fbt`] — the forward–backward table and the leading-virtual-
//!   address discipline, with [`bitvec::Presence`] tracking cached
//!   lines per page.
//! * [`config`] — [`SystemConfig`] with every design of the paper's
//!   Table 2 as a preset, plus sweep builders for the figures.
//! * [`hierarchy`] — [`MemorySystem`], the event-free (resource
//!   reservation) timing model of the baseline physical hierarchy,
//!   the full virtual hierarchy, and the L1-only virtual design,
//!   including shootdowns and CPU coherence probes.
//! * [`report`] — [`MemReport`], the statistics snapshot every figure
//!   harness consumes.
//! * [`check`] — the paranoid invariant checker: executable forms of
//!   the paper's correctness invariants (FBT inclusivity, the leading
//!   discipline, invalidation-filter conservatism) plus the stats
//!   conservation laws, run after every access when
//!   [`SystemConfig::with_paranoid`] is set.
//!
//! # Quick start
//!
//! ```
//! use gvc::{LineAccess, MemorySystem, SystemConfig};
//! use gvc_engine::Cycle;
//! use gvc_mem::{OsLite, Perms};
//!
//! // Boot an OS, map a buffer.
//! let mut os = OsLite::new(64 << 20);
//! let pid = os.create_process();
//! let buf = os.mmap(pid, 32 * 4096, Perms::READ_WRITE)?;
//!
//! // Build the paper's proposed design and stream accesses through it.
//! let mut mem = MemorySystem::new(SystemConfig::vc_with_opt());
//! let mut t = Cycle::ZERO;
//! for page in 0..32 {
//!     let access = LineAccess {
//!         cu: (page % 16) as usize,
//!         asid: pid.asid(),
//!         vaddr: buf.addr_at(page * 4096),
//!         is_write: false,
//!         at: t,
//!     };
//!     t = mem.access(access, &os).done_at;
//! }
//! let report = mem.finish(t);
//! assert_eq!(report.design, "VC With OPT");
//! # Ok::<(), gvc_mem::MemError>(())
//! ```

pub mod bitvec;
pub mod check;
pub mod config;
pub mod energy;
pub mod fbt;
pub mod hierarchy;
pub mod inject;
pub mod remap;
pub mod report;

pub use bitvec::Presence;
pub use config::{Latencies, MmuDesign, SynonymPolicy, SystemConfig};
pub use energy::{EnergyEstimate, EnergyModel};
pub use fbt::{BtEntry, BtIndex, Fbt, FbtConfig, FbtSnapshot, LeadingVa};
pub use hierarchy::coherence::ProbeResponse;
pub use hierarchy::{AccessFault, AccessResult, Lifetimes, LineAccess, MemorySystem};
pub use inject::{InjectConfig, InjectEvent, InjectPlan, InjectReport};
pub use remap::{RemapConfig, RemapTable};
pub use report::{HierCounters, MemReport};
