#![warn(missing_docs)]

//! GPU execution front end for the `gvc` simulator.
//!
//! Models the compute side of the paper's SoC (Table 1: 16 CUs × 32
//! lanes at 700 MHz): wavefront state machines with latency-hiding
//! multithreading, the per-CU memory coalescer, scratchpad accesses
//! (which bypass the TLB and caches, §3.1), and the run loop that
//! streams coalesced line accesses into a `gvc::MemorySystem`.
//!
//! * [`kernel`] — the workload interface: [`Kernel`]s made of
//!   wavefront programs emitting [`WaveOp`]s, and the [`KernelSource`]
//!   trait iterative workloads implement.
//! * [`coalescer`] — per-instruction lane-address coalescing.
//! * [`sim`] — the event-driven run loop ([`GpuSim`]) and per-run
//!   [`RunReport`].
//!
//! # Example
//!
//! ```
//! use gvc::SystemConfig;
//! use gvc_gpu::kernel::{Kernel, WaveOp};
//! use gvc_gpu::{GpuConfig, GpuSim};
//! use gvc_mem::{OsLite, Perms};
//!
//! let mut os = OsLite::new(64 << 20);
//! let pid = os.create_process();
//! let buf = os.mmap(pid, 64 * 4096, Perms::READ_WRITE)?;
//!
//! // One wavefront streaming through the buffer.
//! let addrs: Vec<_> = (0..32).map(|l| buf.addr_at(l * 128)).collect();
//! let kernel = Kernel::builder("stream", pid.asid())
//!     .wave(vec![WaveOp::read(addrs), WaveOp::compute(8)])
//!     .build();
//!
//! let mut sim = GpuSim::new(GpuConfig::default(), SystemConfig::vc_with_opt());
//! let report = sim.run(&mut kernel.into_source(), &mut os);
//! assert!(report.cycles > 0);
//! assert_eq!(report.mem_instructions, 1);
//! # Ok::<(), gvc_mem::MemError>(())
//! ```

pub mod coalescer;
pub mod kernel;
pub mod service;
pub mod sim;
pub mod soak;

pub use coalescer::coalesce;
pub use kernel::{Kernel, KernelBuilder, KernelSource, WaveOp, WaveProgram};
pub use service::{run_service, ServiceConfig, ServiceReport, TenantStats};
pub use sim::{GpuConfig, GpuSim, RunReport, Truncation};
pub use soak::{
    EpochPoint, SoakCheckpoint, SoakConfig, SoakReport, SoakSim, SoakTenantSnapshot,
    SOAK_CHECKPOINT_VERSION,
};
