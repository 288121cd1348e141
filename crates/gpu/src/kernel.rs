//! Kernels, wavefront programs, and the workload interface.
//!
//! A [`Kernel`] is a bag of wavefront programs (already flattened from
//! workgroups — this model has no barriers, which none of the
//! reproduced access patterns need). Each program yields [`WaveOp`]s:
//! per-lane memory operations, scratchpad traffic, and compute delays.
//! Iterative workloads (BFS levels, PageRank sweeps) implement
//! [`KernelSource`] to emit one kernel per host-side iteration.
//!
//! A workload's wave owns only its inputs: a few vertex ids or a tile
//! coordinate, plus shared handles to the arrays and host state it
//! reads. [`KernelBuilder::deferred_wave`] runs the wave's builder on
//! its first `next()`, when the simulator first issues the wave, and
//! the ops are dropped when the wave retires. So a kernel's op lists
//! exist only for its resident waves, never for the whole kernel.

use gvc_mem::{Asid, VAddr};

/// One operation of a 32-lane wavefront.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveOp {
    /// A gather/load: one optional address per active lane.
    Read(
        /// Per-lane byte addresses (inactive lanes omitted).
        Vec<VAddr>,
    ),
    /// A scatter/store: one optional address per active lane.
    Write(
        /// Per-lane byte addresses (inactive lanes omitted).
        Vec<VAddr>,
    ),
    /// Scratchpad traffic: `count` accesses that bypass the TLB and
    /// caches entirely (§2.1).
    Scratch(
        /// Number of scratchpad accesses.
        u32,
    ),
    /// ALU work: the wave is busy for this many cycles.
    Compute(
        /// Busy cycles.
        u32,
    ),
}

impl WaveOp {
    /// A load with the given lane addresses.
    pub fn read(addrs: Vec<VAddr>) -> Self {
        WaveOp::Read(addrs)
    }

    /// A store with the given lane addresses.
    pub fn write(addrs: Vec<VAddr>) -> Self {
        WaveOp::Write(addrs)
    }

    /// Scratchpad traffic.
    pub fn scratch(count: u32) -> Self {
        WaveOp::Scratch(count)
    }

    /// ALU work.
    pub fn compute(cycles: u32) -> Self {
        WaveOp::Compute(cycles)
    }
}

/// A wavefront's instruction stream. The simulator polls it once per
/// issued op and drops it when it ends; a program from
/// [`KernelBuilder::deferred_wave`] builds its ops on the first poll.
pub type WaveProgram = Box<dyn Iterator<Item = WaveOp> + Send>;

/// A wave whose op list is built on its first `next()`.
struct DeferredWave<F> {
    build: Option<F>,
    ops: std::vec::IntoIter<WaveOp>,
}

impl<F: FnOnce() -> Vec<WaveOp>> Iterator for DeferredWave<F> {
    type Item = WaveOp;

    fn next(&mut self) -> Option<WaveOp> {
        if let Some(build) = self.build.take() {
            self.ops = build().into_iter();
        }
        self.ops.next()
    }
}

/// One GPU kernel launch: a set of wavefront programs sharing an
/// address space.
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// The launching process's address space.
    pub asid: Asid,
    /// The wavefronts to execute.
    pub waves: Vec<WaveProgram>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("asid", &self.asid)
            .field("waves", &self.waves.len())
            .finish()
    }
}

impl Kernel {
    /// Starts building a kernel.
    pub fn builder(name: impl Into<String>, asid: Asid) -> KernelBuilder {
        KernelBuilder {
            kernel: Kernel {
                name: name.into(),
                asid,
                waves: Vec::new(),
            },
        }
    }

    /// Wraps this single kernel as a [`KernelSource`].
    pub fn into_source(self) -> SingleKernel {
        SingleKernel { kernel: Some(self) }
    }
}

/// Builder for [`Kernel`].
pub struct KernelBuilder {
    kernel: Kernel,
}

impl KernelBuilder {
    /// Adds a wavefront with an eagerly specified op list.
    pub fn wave(mut self, ops: Vec<WaveOp>) -> Self {
        self.kernel.waves.push(Box::new(ops.into_iter()));
        self
    }

    /// Adds a wavefront whose op list `build` makes on the wave's first
    /// `next()`. A wave that is never polled never runs `build`. The
    /// closure owns what it reads (`'static`), so it must capture the
    /// wave's inputs by value or through shared handles, never a
    /// borrow of its [`KernelSource`].
    pub fn deferred_wave(self, build: impl FnOnce() -> Vec<WaveOp> + Send + 'static) -> Self {
        self.lazy_wave(Box::new(DeferredWave {
            build: Some(build),
            ops: Vec::new().into_iter(),
        }))
    }

    /// Adds a wavefront with a lazy program.
    pub fn lazy_wave(mut self, program: WaveProgram) -> Self {
        self.kernel.waves.push(program);
        self
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        self.kernel
    }
}

/// A source of kernels: iterative workloads emit one kernel per
/// host-side iteration (BFS level, PageRank sweep, FW pivot, ...).
pub trait KernelSource {
    /// The workload's name.
    fn name(&self) -> &str;

    /// The next kernel to launch, or `None` when the workload has run
    /// to completion.
    fn next_kernel(&mut self) -> Option<Kernel>;
}

/// A [`KernelSource`] yielding exactly one kernel.
pub struct SingleKernel {
    kernel: Option<Kernel>,
}

impl KernelSource for SingleKernel {
    fn name(&self) -> &str {
        self.kernel.as_ref().map_or("(done)", |k| &k.name)
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        self.kernel.take()
    }
}

/// A [`KernelSource`] draining a pre-built list of kernels.
pub struct KernelList {
    name: String,
    kernels: std::collections::VecDeque<Kernel>,
}

impl KernelList {
    /// Builds a source from a list of kernels.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Self {
        KernelList {
            name: name.into(),
            kernels: kernels.into(),
        }
    }
}

impl KernelSource for KernelList {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        self.kernels.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_waves() {
        let k = Kernel::builder("k", Asid(0))
            .wave(vec![WaveOp::compute(1)])
            .wave(vec![WaveOp::scratch(4), WaveOp::compute(2)])
            .lazy_wave(Box::new(std::iter::once(WaveOp::compute(3))))
            .build();
        assert_eq!(k.waves.len(), 3);
        assert_eq!(k.name, "k");
        assert!(format!("{k:?}").contains("waves: 3"));
    }

    #[test]
    fn deferred_wave_builds_once_on_first_poll() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicU32::new(0));
        let counted = |ops: Vec<WaveOp>| {
            let runs = Arc::clone(&runs);
            move || {
                runs.fetch_add(1, Ordering::Relaxed);
                ops
            }
        };
        let ops = vec![
            WaveOp::read(vec![VAddr::new(0x40), VAddr::new(0x1000)]),
            WaveOp::scratch(3),
            WaveOp::write(vec![VAddr::new(0x80)]),
            WaveOp::compute(7),
        ];
        let k = Kernel::builder("k", Asid(0))
            .deferred_wave(counted(ops.clone()))
            .deferred_wave(counted(vec![WaveOp::compute(1)]))
            .build();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            0,
            "building a kernel runs no wave"
        );
        let mut waves = k.waves.into_iter();
        let mut first = waves.next().unwrap();
        assert_eq!(first.next(), Some(ops[0].clone()));
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "the first poll builds the wave"
        );
        let rest: Vec<WaveOp> = first.by_ref().collect();
        assert_eq!(rest, ops[1..], "the wave yields the builder's ops in order");
        assert_eq!(first.next(), None);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "the builder runs exactly once"
        );
        // The second wave is dropped without a poll: its builder never runs.
        drop(waves);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(
            Arc::strong_count(&runs),
            1,
            "dropping a wave drops its inputs"
        );
    }

    #[test]
    fn single_kernel_source_yields_once() {
        let k = Kernel::builder("once", Asid(0)).build();
        let mut src = k.into_source();
        assert_eq!(src.name(), "once");
        assert!(src.next_kernel().is_some());
        assert!(src.next_kernel().is_none());
        assert_eq!(src.name(), "(done)");
    }

    #[test]
    fn kernel_list_drains_in_order() {
        let mut src = KernelList::new(
            "seq",
            vec![
                Kernel::builder("a", Asid(0)).build(),
                Kernel::builder("b", Asid(0)).build(),
            ],
        );
        assert_eq!(src.next_kernel().unwrap().name, "a");
        assert_eq!(src.next_kernel().unwrap().name, "b");
        assert!(src.next_kernel().is_none());
    }

    #[test]
    fn wave_op_constructors() {
        assert_eq!(WaveOp::compute(5), WaveOp::Compute(5));
        assert_eq!(WaveOp::scratch(2), WaveOp::Scratch(2));
        let a = vec![VAddr::new(0x1000)];
        assert_eq!(WaveOp::read(a.clone()), WaveOp::Read(a.clone()));
        assert_eq!(WaveOp::write(a.clone()), WaveOp::Write(a));
    }
}
