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
//! reads. [`KernelBuilder::stepped_wave`] builds the wave one step at a
//! time: a step appends the next group of ops (a graph wave's head, one
//! edge round, or its tail; a short wave's whole list) when the
//! simulator has drained the previous one. So a kernel's ops exist only
//! for its resident waves, one step each, never for the whole kernel.

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
/// [`KernelBuilder::stepped_wave`] holds one step's ops at a time.
pub type WaveProgram = Box<dyn Iterator<Item = WaveOp> + Send>;

/// A wave built one step at a time: `step` appends the next group of
/// ops whenever the buffer is empty and returns whether more follow.
struct SteppedWave<F> {
    /// `None` once a step has returned `false`.
    step: Option<F>,
    /// The current step's unissued ops, last op first.
    ops: Vec<WaveOp>,
}

impl<F: FnMut(&mut Vec<WaveOp>) -> bool> Iterator for SteppedWave<F> {
    type Item = WaveOp;

    fn next(&mut self) -> Option<WaveOp> {
        while self.ops.is_empty() {
            let step = self.step.as_mut()?;
            if !step(&mut self.ops) {
                self.step = None;
            }
            self.ops.reverse();
        }
        self.ops.pop()
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

    /// Adds a wavefront that `step` builds one group of ops at a time.
    /// `step` appends the next group to the (empty) buffer it is given
    /// and returns whether more groups follow; it runs first on the
    /// wave's first `next()`, then each time the simulator has drained
    /// the previous group, and never again once it returns `false`. A
    /// wave that is never polled never runs `step`. The closure owns
    /// what it reads (`'static`), so it must capture the wave's inputs
    /// by value or through shared handles, never a borrow of its
    /// [`KernelSource`].
    pub fn stepped_wave(
        mut self,
        step: impl FnMut(&mut Vec<WaveOp>) -> bool + Send + 'static,
    ) -> Self {
        self.kernel.waves.push(Box::new(SteppedWave {
            step: Some(step),
            ops: Vec::new(),
        }));
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
            .stepped_wave(|ops| {
                ops.push(WaveOp::compute(3));
                false
            })
            .build();
        assert_eq!(k.waves.len(), 3);
        assert_eq!(k.name, "k");
        assert!(format!("{k:?}").contains("waves: 3"));
    }

    #[test]
    fn stepped_wave_builds_each_step_on_demand() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicU32::new(0));
        // A wave whose steps are `groups`, one per call. Every call
        // checks that the buffer was drained and that no call follows
        // the last group.
        let stepped = |groups: Vec<Vec<WaveOp>>| {
            let runs = Arc::clone(&runs);
            let mut groups = groups.into_iter();
            let mut done = false;
            move |ops: &mut Vec<WaveOp>| {
                assert!(!done, "a step after the last one");
                assert!(ops.is_empty(), "a step with ops still buffered");
                runs.fetch_add(1, Ordering::Relaxed);
                ops.extend(groups.next().unwrap());
                done = groups.len() == 0;
                !done
            }
        };
        let ops = [
            WaveOp::read(vec![VAddr::new(0x40), VAddr::new(0x1000)]),
            WaveOp::scratch(3),
            WaveOp::write(vec![VAddr::new(0x80)]),
            WaveOp::compute(7),
        ];
        let k = Kernel::builder("k", Asid(0))
            .stepped_wave(stepped(vec![
                ops[..2].to_vec(),
                Vec::new(),
                ops[2..3].to_vec(),
                ops[3..].to_vec(),
            ]))
            .stepped_wave(stepped(vec![vec![WaveOp::compute(1)]]))
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
            "the first poll builds the first step only"
        );
        assert_eq!(first.next(), Some(ops[1].clone()));
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "no step runs while ops are buffered"
        );
        let rest: Vec<WaveOp> = first.by_ref().collect();
        assert_eq!(rest, ops[2..], "the wave yields the steps' ops in order");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            4,
            "an empty step is followed by the next one"
        );
        assert_eq!(first.next(), None);
        assert_eq!(first.next(), None);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            4,
            "no step runs after the last one"
        );
        // The second wave is dropped without a poll: its step never runs.
        drop(waves);
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        drop(first);
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
