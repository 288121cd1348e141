#![warn(missing_docs)]

//! Cache substrate for the `gvc` simulator.
//!
//! Structural models of every cache in the paper's GPU (Table 1): the
//! per-CU 32 KB write-through-no-allocate L1s and the shared 2 MB
//! 8-bank write-back L2, usable as either *physical* caches (baseline)
//! or *virtual* caches (the paper's proposal) — the tag key carries an
//! ASID and an address-space-relative line index, and the caller
//! decides whether those are virtual or physical.
//!
//! Timing is imposed by the composition layer (`gvc`); this crate
//! tracks tags, LRU state, dirtiness, permissions (virtual caches check
//! permissions at the line, §4.1), MSHR merging, per-bank routing, the
//! paper's per-L1 *invalidation filter* (§4.2), and line lifetimes
//! (Figure 12).
//!
//! * [`cache`] — [`SetAssocCache`]: tags, LRU, [`MshrFile`].
//! * [`banked`] — [`BankedCache`]: 8-bank shared L2 with per-bank ports.
//! * [`inval_filter`] — [`InvalFilter`]: VPN → resident-line counters.
//! * [`lifetime`] — [`LifetimeTracker`]: active-lifetime CDFs.

pub mod banked;
pub mod cache;
pub mod inval_filter;
pub mod lifetime;

pub use banked::{BankedCache, BankedCacheSnapshot};
pub use cache::{
    CacheConfig, CacheLine, CacheSlotSnapshot, CacheSnapshot, CacheStats, LineKey, MshrFile,
    SetAssocCache, WritePolicy,
};
pub use inval_filter::InvalFilter;
pub use lifetime::LifetimeTracker;
