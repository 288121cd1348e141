//! `pagerank` and `pagerank_spmv` (Pannotia).
//!
//! Pull-based PageRank: every sweep, each vertex gathers its
//! in-neighbors' ranks — a divergent gather over the whole rank array.
//! The `spmv` variant expresses the sweep as CSR sparse
//! matrix–vector multiply, adding a per-edge value stream. Both are
//! the paper's poster children for high translation bandwidth: ranks
//! of power-law neighbors are frequently cache-resident (hubs) while
//! the per-CU TLB thrashes.

use crate::arrays::DevArray;
use crate::gather::{gather_kernel, GatherSpec};
use crate::graphs::Graph;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource};
use gvc_mem::{Asid, OsLite};

const ITERATIONS: u32 = 2;

struct PagerankSource {
    name: &'static str,
    asid: Asid,
    spec: GatherSpec,
    rank_a: DevArray,
    rank_b: DevArray,
    iter: u32,
}

impl KernelSource for PagerankSource {
    fn name(&self) -> &str {
        self.name
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.iter >= ITERATIONS {
            return None;
        }
        // Ping-pong the rank arrays between sweeps.
        let (src, dst) = if self.iter.is_multiple_of(2) {
            (self.rank_a, self.rank_b)
        } else {
            (self.rank_b, self.rank_a)
        };
        let mut spec = self.spec.clone();
        spec.gather.insert(0, src);
        spec.vertex_writes = vec![dst];
        let active: Vec<u32> = (0..spec.graph.n).collect();
        self.iter += 1;
        let name = format!("{}_sweep{}", self.name, self.iter);
        Some(gather_kernel(name, self.asid, spec, active))
    }
}

/// Builds the workload. `spmv` adds the per-edge matrix-value stream.
pub fn build(scale: Scale, seed: u64, spmv: bool, thp: bool) -> Workload {
    let n = scale.apply(32 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let out_deg = DevArray::alloc(&mut os, pid, n as u64, 4);
    let rank_a = DevArray::alloc(&mut os, pid, n as u64, 8);
    let rank_b = DevArray::alloc(&mut os, pid, n as u64, 8);
    let mut spec = GatherSpec::new(graph, offsets, targets);
    spec.vertex_reads = vec![out_deg];
    spec.max_rounds = 16;
    if spmv {
        let vals = DevArray::alloc(&mut os, pid, spec.graph.edges(), 4);
        spec.edge_streams.push(vals);
    }
    Workload {
        os,
        source: Box::new(PagerankSource {
            name: if spmv { "pagerank_spmv" } else { "pagerank" },
            asid: pid.asid(),
            spec,
            rank_a,
            rank_b,
            iter: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_one_kernel_per_sweep() {
        let mut w = build(Scale::test(), 1, false, false);
        let k1 = w.source.next_kernel().expect("sweep 1");
        assert!(k1.name.contains("pagerank_sweep1"));
        assert!(!k1.waves.is_empty());
        assert!(w.source.next_kernel().is_some());
        assert!(w.source.next_kernel().is_none());
    }

    #[test]
    fn spmv_variant_adds_edge_stream() {
        let w_plain = build(Scale::test(), 1, false, false);
        let w_spmv = build(Scale::test(), 1, true, false);
        drop(w_plain);
        assert_eq!(w_spmv.source.name(), "pagerank_spmv");
    }
}
