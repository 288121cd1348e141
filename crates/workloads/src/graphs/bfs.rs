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
use gvc_mem::{Asid, OsLite, ProcessId, VAddr};
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
    /// Allocates `graph`'s device arrays in `pid` and runs the BFS
    /// host-side; also returns the number of levels.
    fn new(os: &mut OsLite, pid: ProcessId, graph: Arc<Graph>) -> (Self, usize) {
        let n = graph.n as u64;
        let offsets = DevArray::alloc(os, pid, n + 1, 4);
        let targets = DevArray::alloc(os, pid, graph.edges(), 4);
        let mask = DevArray::alloc(os, pid, n, 4);
        let dist = DevArray::alloc(os, pid, n, 4);
        // Root at the biggest hub so the traversal covers most vertices.
        let (level_of, levels) = graph.bfs_levels(0);
        let bfs = BfsGraph {
            graph,
            offsets,
            targets,
            mask,
            dist,
            level_of,
            max_rounds: 16,
        };
        (bfs, levels.len())
    }
}

/// One wave of BFS level `depth` over vertices `chunk_base..` (up to
/// [`LANES`] of them), built one step at a time: the mask and offsets
/// reads, then one step per edge round of the chunk's frontier
/// vertices, then the final compute op.
struct BfsWave {
    bfs: Arc<BfsGraph>,
    depth: u32,
    chunk_base: u32,
    /// The next edge round; `None` before the head step.
    next_round: Option<u32>,
    /// Edge rounds: the frontier's largest degree, capped at
    /// `max_rounds`. Set by the head step.
    rounds: u32,
    /// The chunk's frontier vertices. Set by the head step.
    active: Vec<u32>,
    /// This round's edge numbers, one per frontier lane with an
    /// `r`-th edge. Reused across rounds.
    edges: Vec<u64>,
}

impl BfsWave {
    fn new(bfs: Arc<BfsGraph>, depth: u32, chunk_base: u32) -> Self {
        BfsWave {
            bfs,
            depth,
            chunk_base,
            next_round: None,
            rounds: 0,
            active: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Appends the wave's next step to `ops`; returns whether more
    /// steps follow.
    fn step(&mut self, ops: &mut Vec<WaveOp>) -> bool {
        let bfs = &*self.bfs;
        let g = &bfs.graph;
        let Some(r) = self.next_round else {
            let chunk = self.chunk_base..(self.chunk_base + LANES).min(g.n);
            ops.push(WaveOp::read(
                chunk.clone().map(|v| bfs.mask.addr(v as u64)).collect(),
            ));
            // Frontier membership at this depth is exactly
            // `level_of[v] == depth` — no set needed.
            self.active
                .extend(chunk.filter(|&v| bfs.level_of[v as usize] == self.depth));
            if self.active.is_empty() {
                ops.push(WaveOp::compute(2));
                return false;
            }
            ops.push(WaveOp::read(
                self.active
                    .iter()
                    .map(|&v| bfs.offsets.addr(v as u64))
                    .collect(),
            ));
            self.rounds = self
                .active
                .iter()
                .map(|&v| g.degree(v))
                .max()
                .unwrap_or(0)
                .min(bfs.max_rounds);
            self.next_round = Some(0);
            return true;
        };
        if r == self.rounds {
            ops.push(WaveOp::compute(2));
            return false;
        }
        // `rounds` is at most the frontier's largest degree, so every
        // round has at least one lane.
        self.edges.clear();
        self.edges.extend(
            self.active
                .iter()
                .filter(|&&v| r < g.degree(v))
                .map(|&v| g.offsets[v as usize] as u64 + r as u64),
        );
        let target = |e: &u64| g.targets[*e as usize];
        ops.push(WaveOp::read(
            self.edges.iter().map(|&e| bfs.targets.addr(e)).collect(),
        ));
        ops.push(WaveOp::read(
            self.edges
                .iter()
                .map(|e| bfs.dist.addr(target(e) as u64))
                .collect(),
        ));
        // Newly discovered exactly when its level is depth + 1
        // (host-computed ground truth).
        let discover: Vec<VAddr> = self
            .edges
            .iter()
            .map(target)
            .filter(|&t| bfs.level_of[t as usize] == self.depth + 1)
            .map(|t| bfs.dist.addr(t as u64))
            .collect();
        if !discover.is_empty() {
            ops.push(WaveOp::write(discover));
        }
        if (r + 1) % 4 == 0 {
            ops.push(WaveOp::compute(6));
        }
        self.next_round = Some(r + 1);
        true
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
            let mut wave = BfsWave::new(Arc::clone(&self.bfs), depth, chunk_base);
            b = b.stepped_wave(move |ops| wave.step(ops));
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
    let (bfs, levels) = BfsGraph::new(&mut os, pid, graph);
    Workload {
        os,
        source: Box::new(BfsSource {
            asid: pid.asid(),
            bfs: Arc::new(bfs),
            levels,
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

    #[test]
    fn a_wave_builds_one_round_at_a_time() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let (bfs, _) = BfsGraph::new(&mut os, pid, Graph::power_law_shared(2048, 8, 3));
        let bfs = Arc::new(bfs);
        // Level 0's frontier is the root, vertex 0, the biggest hub.
        let rounds = bfs.max_rounds as usize;
        assert!(bfs.graph.degree(0) >= bfs.max_rounds);
        let mut wave = BfsWave::new(Arc::clone(&bfs), 0, 0);
        let mut steps = Vec::new();
        loop {
            let mut ops = Vec::new();
            let more = wave.step(&mut ops);
            steps.push(ops);
            if !more {
                break;
            }
        }
        assert_eq!(
            steps.len(),
            1 + rounds + 1,
            "head, one step per round, tail"
        );
        // The head: the mask and offsets reads.
        assert_eq!(steps[0].len(), 2);
        // Each round: the targets and distance reads, at most a
        // discovery write and a compute op, nothing of the next round.
        for (r, round) in steps[1..=rounds].iter().enumerate() {
            assert!((2..=4).contains(&round.len()), "round {r}: {round:?}");
            assert!(matches!(round[..2], [WaveOp::Read(_), WaveOp::Read(_)]));
            assert!(
                matches!(round[2], WaveOp::Write(_)),
                "round {r} discovers the root's neighbor"
            );
        }
        assert_eq!(steps[rounds + 1], [WaveOp::compute(2)]);
    }
}
