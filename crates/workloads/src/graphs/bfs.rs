//! `bfs` (Rodinia-style level-synchronous breadth-first search).
//!
//! One kernel per BFS level. Like the Rodinia implementation, every
//! level scans the full vertex-mask array (coalesced, cheap) and the
//! frontier vertices expand their edge lists: divergent gathers of
//! neighbor distances and scattered writes for newly discovered
//! vertices. The real traversal runs host-side, so frontier sizes —
//! and therefore each level's burst shape — are data-exact.

use crate::arrays::DevArray;
use crate::gather::LANES;
use crate::graphs::Graph;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite, VAddr};
use std::sync::Arc;

/// What every level's waves read: the graph, its device arrays and
/// the host-computed level of each vertex. One copy, shared by every
/// wave of every level.
struct BfsGraph {
    graph: Arc<Graph>,
    offsets: DevArray,
    targets: DevArray,
    mask: DevArray,
    dist: DevArray,
    level_of: Vec<u32>,
    max_rounds: u32,
}

impl BfsGraph {
    /// The ops of the wave that sweeps vertices `chunk_base..` (up to
    /// [`LANES`] of them) at level `depth`.
    fn wave_ops(&self, depth: u32, chunk_base: u32) -> Vec<WaveOp> {
        let g = &self.graph;
        let chunk = chunk_base..(chunk_base + LANES).min(g.n);
        // Frontier membership at this depth is exactly
        // `level_of[v] == depth` — no set needed. At most LANES
        // vertices per chunk, so the actives fit on the stack.
        let mut active = [0u32; LANES as usize];
        let mut n_active = 0usize;
        for v in chunk.clone() {
            if self.level_of[v as usize] == depth {
                active[n_active] = v;
                n_active += 1;
            }
        }
        let active = &active[..n_active];
        let rounds = active
            .iter()
            .map(|&v| g.degree(v))
            .max()
            .unwrap_or(0)
            .min(self.max_rounds);
        // Worst case per round: two reads, a write, and every
        // fourth round a compute op.
        let mut ops = Vec::with_capacity(3 + rounds as usize * 3 + rounds as usize / 4);
        ops.push(WaveOp::read(
            chunk.map(|v| self.mask.addr(v as u64)).collect(),
        ));
        if !active.is_empty() {
            ops.push(WaveOp::read(
                active
                    .iter()
                    .map(|&v| self.offsets.addr(v as u64))
                    .collect(),
            ));
            for r in 0..rounds {
                let mut tgt_addrs: Vec<VAddr> = Vec::with_capacity(active.len());
                let mut dist_reads: Vec<VAddr> = Vec::with_capacity(active.len());
                let mut discover_writes: Vec<VAddr> = Vec::new();
                for &v in active {
                    if r < g.degree(v) {
                        let e = g.offsets[v as usize] as u64 + r as u64;
                        let t = g.targets[e as usize];
                        tgt_addrs.push(self.targets.addr(e));
                        dist_reads.push(self.dist.addr(t as u64));
                        // Newly discovered exactly when its level is
                        // depth + 1 (host-computed ground truth).
                        if self.level_of[t as usize] == depth + 1 {
                            discover_writes.push(self.dist.addr(t as u64));
                        }
                    }
                }
                if tgt_addrs.is_empty() {
                    break;
                }
                ops.push(WaveOp::read(tgt_addrs));
                ops.push(WaveOp::read(dist_reads));
                if !discover_writes.is_empty() {
                    ops.push(WaveOp::write(discover_writes));
                }
                if (r + 1) % 4 == 0 {
                    ops.push(WaveOp::compute(6));
                }
            }
        }
        ops.push(WaveOp::compute(2));
        ops
    }
}

struct BfsSource {
    asid: Asid,
    bfs: Arc<BfsGraph>,
    levels: usize,
    next_level: usize,
}

impl KernelSource for BfsSource {
    fn name(&self) -> &str {
        "bfs"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.next_level >= self.levels {
            return None;
        }
        let depth = self.next_level as u32;
        let mut b = Kernel::builder(format!("bfs_level{depth}"), self.asid);
        // Rodinia-style: sweep all vertices; frontier members expand.
        for chunk_base in (0..self.bfs.graph.n).step_by(LANES as usize) {
            let bfs = Arc::clone(&self.bfs);
            b = b.deferred_wave(move || bfs.wave_ops(depth, chunk_base));
        }
        self.next_level += 1;
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, seed: u64, thp: bool) -> Workload {
    let n = scale.apply(64 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let mask = DevArray::alloc(&mut os, pid, n as u64, 4);
    let dist = DevArray::alloc(&mut os, pid, n as u64, 4);
    // Root at the biggest hub so the traversal covers most vertices.
    let (level_of, levels) = graph.bfs_levels(0);
    Workload {
        os,
        source: Box::new(BfsSource {
            asid: pid.asid(),
            bfs: Arc::new(BfsGraph {
                graph,
                offsets,
                targets,
                mask,
                dist,
                level_of,
                max_rounds: 16,
            }),
            levels: levels.len(),
            next_level: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_kernel_per_level() {
        let mut w = build(Scale::test(), 3, false);
        let mut kernels = 0;
        while let Some(k) = w.source.next_kernel() {
            assert!(k.name.starts_with("bfs_level"));
            kernels += 1;
            assert!(kernels < 100, "BFS must terminate");
        }
        assert!(kernels >= 2, "power-law BFS has multiple levels");
    }

    #[test]
    fn discovery_writes_appear() {
        let mut w = build(Scale::test(), 3, false);
        let k = w.source.next_kernel().unwrap();
        let writes: usize = k
            .waves
            .into_iter()
            .flat_map(|p| p.collect::<Vec<_>>())
            .filter(|op| matches!(op, WaveOp::Write(_)))
            .count();
        assert!(writes > 0, "level 0 discovers the hub's neighbors");
    }
}
