//! `bc` — betweenness centrality (Pannotia).
//!
//! Brandes' algorithm from a sampled root: a forward level-synchronous
//! phase accumulating path counts (sigma), then a backward dependency
//! phase walking the levels in reverse, gathering each neighbor's
//! sigma and delta. Twice the gather traffic of BFS with the same
//! divergence, which is why `bc` sits in the paper's
//! high-translation-bandwidth group.

use crate::arrays::DevArray;
use crate::gather::{gather_kernel, GatherSpec};
use crate::graphs::Graph;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource};
use gvc_mem::{Asid, OsLite};

struct BcSource {
    asid: Asid,
    spec: GatherSpec,
    sigma: DevArray,
    delta: DevArray,
    bc_out: DevArray,
    levels: Vec<Vec<u32>>,
    /// Phases: forward over levels 0..L, then backward L..0.
    phase: usize,
}

impl KernelSource for BcSource {
    fn name(&self) -> &str {
        "bc"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        let l = self.levels.len();
        if self.phase >= 2 * l {
            return None;
        }
        let (name, active, gathers, writes) = if self.phase < l {
            // Forward: gather sigma of neighbors, write own sigma.
            let depth = self.phase;
            (
                format!("bc_fwd{depth}"),
                self.levels[depth].clone(),
                vec![self.sigma],
                vec![self.sigma],
            )
        } else {
            // Backward: gather sigma and delta, write delta and bc.
            let depth = 2 * l - 1 - self.phase;
            (
                format!("bc_bwd{depth}"),
                self.levels[depth].clone(),
                vec![self.sigma, self.delta],
                vec![self.delta, self.bc_out],
            )
        };
        self.phase += 1;
        let mut spec = self.spec.clone();
        spec.gather = gathers;
        spec.vertex_writes = writes;
        Some(gather_kernel(name, self.asid, spec, active))
    }
}

/// Builds the workload.
pub fn build(scale: Scale, seed: u64, thp: bool) -> Workload {
    let n = scale.apply(32 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let sigma = DevArray::alloc(&mut os, pid, n as u64, 4);
    let delta = DevArray::alloc(&mut os, pid, n as u64, 4);
    let bc_out = DevArray::alloc(&mut os, pid, n as u64, 4);
    let (_, levels) = graph.bfs_levels(0);
    let mut spec = GatherSpec::new(graph, offsets, targets);
    spec.max_rounds = 16;
    Workload {
        os,
        source: Box::new(BcSource {
            asid: pid.asid(),
            spec,
            sigma,
            delta,
            bc_out,
            levels,
            phase: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_backward_phases() {
        let mut w = build(Scale::test(), 5, false);
        let mut names = Vec::new();
        while let Some(k) = w.source.next_kernel() {
            names.push(k.name);
            assert!(names.len() < 200, "bc must terminate");
        }
        let fwd = names.iter().filter(|n| n.starts_with("bc_fwd")).count();
        let bwd = names.iter().filter(|n| n.starts_with("bc_bwd")).count();
        assert_eq!(fwd, bwd);
        assert!(fwd >= 2);
        // Backward phase walks levels in reverse.
        let last = names.last().unwrap();
        assert_eq!(last, "bc_bwd0");
    }
}
