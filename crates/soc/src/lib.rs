#![warn(missing_docs)]

//! SoC substrate: interconnect, DRAM, and the coherence directory.
//!
//! * [`noc`] — latency models for the dance-hall GPU network (CU ↔
//!   shared L2), the L2 ↔ IOMMU/FBT hop, and the PCIe-protocol path a
//!   per-CU TLB miss takes to the IOMMU in the baseline (§2.1: even
//!   integrated GPUs issue IOMMU requests with PCIe-protocol latency).
//! * [`dram`] — a 192 GB/s token-bandwidth DRAM with fixed access
//!   latency (Table 1).
//! * [`directory`] — a minimal coherence directory between the GPU L2,
//!   the CPU cache hierarchy, and memory, plus a deterministic CPU
//!   probe injector used to exercise the reverse-translation (backward
//!   table) path of the paper's design.

pub mod directory;
pub mod dram;
pub mod noc;

pub use directory::{Directory, Probe, ProbeInjector, ProbeKind};
pub use dram::{Dram, DramConfig};
pub use noc::{Noc, NocConfig};
