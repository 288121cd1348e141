//! The common neighbor-gather kernel shape shared by the graph
//! workloads.
//!
//! Pannotia's kernels all follow one template: a thread per vertex
//! reads per-vertex metadata (coalesced when vertex ids are
//! consecutive), then walks its edge list — loading edge targets and
//! *gathering* per-neighbor data. Because 32 lanes walk 32 different
//! edge lists into a power-law vertex set, each gather instruction
//! touches many lines on many pages: the memory divergence behind the
//! paper's Observation 2.

use crate::arrays::DevArray;
use crate::graphs::Graph;
use gvc_gpu::kernel::{Kernel, WaveOp};
use gvc_mem::{Asid, VAddr};
use std::sync::Arc;

/// Lanes per wavefront.
pub const LANES: u32 = 32;

/// The arrays a gather kernel touches.
#[derive(Clone)]
pub struct GatherSpec {
    /// The graph being traversed.
    pub graph: Arc<Graph>,
    /// CSR offsets array (one u32 per vertex).
    pub offsets: DevArray,
    /// CSR targets array (one u32 per edge).
    pub targets: DevArray,
    /// Arrays read per edge, indexed by the *neighbor* id (the
    /// divergent gathers: ranks, colors, priorities...).
    pub gather: Vec<DevArray>,
    /// Arrays read per edge, indexed by the edge number (SpMV matrix
    /// values...).
    pub edge_streams: Vec<DevArray>,
    /// Arrays read once per active vertex at wave start.
    pub vertex_reads: Vec<DevArray>,
    /// Arrays written once per active vertex at wave end.
    pub vertex_writes: Vec<DevArray>,
    /// A scattered write per edge round: to the array, at each
    /// gathered neighbor `t` whose flag `t` is set (MIS removals...).
    pub scatter: Option<(DevArray, Arc<[bool]>)>,
    /// Cap on edge rounds per wave (truncates extreme hubs to bound
    /// kernel length; the locality effect of hubs is preserved).
    pub max_rounds: u32,
    /// Insert an ALU op every this many edge rounds.
    pub compute_every: u32,
}

impl GatherSpec {
    /// A minimal spec over `graph` with the given CSR arrays.
    pub fn new(graph: Arc<Graph>, offsets: DevArray, targets: DevArray) -> Self {
        GatherSpec {
            graph,
            offsets,
            targets,
            gather: Vec::new(),
            edge_streams: Vec::new(),
            vertex_reads: Vec::new(),
            vertex_writes: Vec::new(),
            scatter: None,
            max_rounds: 24,
            compute_every: 4,
        }
    }
}

/// One gather kernel over the `active` vertices, 32 per wave. The
/// waves share `spec` and `active`; each is a `GatherWave` that the
/// simulator steps through as it issues the wave's ops.
pub fn gather_kernel(
    name: impl Into<String>,
    asid: Asid,
    spec: GatherSpec,
    active: Vec<u32>,
) -> Kernel {
    let shared = Arc::new((spec, active));
    let mut b = Kernel::builder(name, asid);
    for start in (0..shared.1.len()).step_by(LANES as usize) {
        let mut wave = GatherWave::new(Arc::clone(&shared), start);
        b = b.stepped_wave(move |ops| wave.step(ops));
    }
    b.build()
}

/// One gather wave over the (at most 32) active vertices
/// `active[start..]`, built one step at a time: the head reads, then
/// one step per edge round, then the tail.
struct GatherWave {
    shared: Arc<(GatherSpec, Vec<u32>)>,
    start: usize,
    /// The next edge round; `None` before the head step.
    next_round: Option<u32>,
    /// Edge rounds: the chunk's largest degree, capped at
    /// [`GatherSpec::max_rounds`]. Set by the head step.
    rounds: u32,
    /// This round's edge numbers and neighbor ids, one per lane whose
    /// vertex has an `r`-th edge. Reused across rounds.
    edges: Vec<u64>,
    neighbors: Vec<u32>,
}

impl GatherWave {
    /// The wave over the chunk of `shared.1` that starts at `start`.
    fn new(shared: Arc<(GatherSpec, Vec<u32>)>, start: usize) -> Self {
        GatherWave {
            shared,
            start,
            next_round: None,
            rounds: 0,
            edges: Vec::new(),
            neighbors: Vec::new(),
        }
    }

    /// Appends the wave's next step to `ops`; returns whether more
    /// steps follow.
    fn step(&mut self, ops: &mut Vec<WaveOp>) -> bool {
        let (spec, active) = &*self.shared;
        let end = (self.start + LANES as usize).min(active.len());
        let chunk = &active[self.start..end];
        let g = &spec.graph;
        let Some(round) = self.next_round else {
            // Per-vertex metadata reads.
            for arr in &spec.vertex_reads {
                ops.push(WaveOp::read(
                    chunk.iter().map(|&v| arr.addr(v as u64)).collect(),
                ));
            }
            // CSR offsets (two loads in real code: off[v] and off[v+1];
            // they share lines, one read models both).
            ops.push(WaveOp::read(
                chunk.iter().map(|&v| spec.offsets.addr(v as u64)).collect(),
            ));
            self.rounds = chunk
                .iter()
                .map(|&v| g.degree(v))
                .max()
                .unwrap_or(0)
                .min(spec.max_rounds);
            self.next_round = Some(0);
            return true;
        };
        if round == self.rounds {
            for arr in &spec.vertex_writes {
                ops.push(WaveOp::write(
                    chunk.iter().map(|&v| arr.addr(v as u64)).collect(),
                ));
            }
            ops.push(WaveOp::compute(4));
            return false;
        }
        // `rounds` is at most the chunk's largest degree, so every
        // round has at least one lane.
        self.edges.clear();
        self.neighbors.clear();
        for &v in chunk {
            if round < g.degree(v) {
                let e = g.offsets[v as usize] as u64 + round as u64;
                self.edges.push(e);
                self.neighbors.push(g.targets[e as usize]);
            }
        }
        ops.push(WaveOp::read(
            self.edges.iter().map(|&e| spec.targets.addr(e)).collect(),
        ));
        for es in &spec.edge_streams {
            ops.push(WaveOp::read(
                self.edges.iter().map(|&e| es.addr(e)).collect(),
            ));
        }
        for ga in &spec.gather {
            ops.push(WaveOp::read(
                self.neighbors.iter().map(|&t| ga.addr(t as u64)).collect(),
            ));
        }
        if let Some((arr, flags)) = &spec.scatter {
            let writes: Vec<VAddr> = self
                .neighbors
                .iter()
                .filter(|&&t| flags[t as usize])
                .map(|&t| arr.addr(t as u64))
                .collect();
            if !writes.is_empty() {
                ops.push(WaveOp::write(writes));
            }
        }
        if spec.compute_every > 0 && (round + 1) % spec.compute_every == 0 {
            ops.push(WaveOp::compute(8));
        }
        self.next_round = Some(round + 1);
        true
    }
}

/// A deterministic per-element hash for data-dependent write
/// decisions (keeps workloads reproducible without threading RNGs
/// through kernels).
pub fn hash_u32(x: u32, salt: u32) -> u32 {
    let mut z = (x as u64) << 32 | salt as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_mem::OsLite;

    fn setup() -> (OsLite, GatherSpec) {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let graph = Arc::new(Graph::uniform(256, 4, 9));
        let offsets = DevArray::alloc(&mut os, pid, graph.n as u64 + 1, 4);
        let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
        let spec = GatherSpec::new(graph, offsets, targets);
        (os, spec)
    }

    /// Every op of the gather wave over `chunk`, all steps in order.
    fn gather_wave(spec: &GatherSpec, chunk: &[u32]) -> Vec<WaveOp> {
        let mut wave = GatherWave::new(Arc::new((spec.clone(), chunk.to_vec())), 0);
        let mut ops = Vec::new();
        while wave.step(&mut ops) {}
        ops
    }

    /// Every op of every wave, in wave order.
    fn drain(kernel: Kernel) -> Vec<Vec<WaveOp>> {
        kernel.waves.into_iter().map(Iterator::collect).collect()
    }

    #[test]
    fn one_wave_per_32_vertices() {
        let (_os, spec) = setup();
        let active: Vec<u32> = (0..100).collect();
        let kernel = gather_kernel("g", Asid(0), spec.clone(), active.clone());
        let waves = drain(kernel);
        assert_eq!(waves.len(), 4);
        // Each wave is exactly its chunk's op list.
        for (wave, chunk) in waves.iter().zip(active.chunks(LANES as usize)) {
            assert_eq!(*wave, gather_wave(&spec, chunk));
        }
    }

    #[test]
    fn gather_arrays_produce_divergent_reads() {
        let (mut os, mut spec) = setup();
        let pid = gvc_mem::ProcessId(0);
        let ranks = DevArray::alloc(&mut os, pid, spec.graph.n as u64, 8);
        spec.gather.push(ranks);
        let active: Vec<u32> = (0..32).collect();
        let wave = gather_wave(&spec, &active);
        // offsets read + per-round (targets + rank gather) + computes + final.
        let reads = wave
            .iter()
            .filter(|op| matches!(op, WaveOp::Read(_)))
            .count();
        assert!(reads > 2 * 4, "4 rounds of (targets, gather) expected");
    }

    #[test]
    fn rounds_are_capped() {
        let (_os, mut spec) = setup();
        spec.max_rounds = 2;
        let active: Vec<u32> = (0..32).collect();
        let wave = gather_wave(&spec, &active);
        let target_reads = wave
            .iter()
            .filter(|op| matches!(op, WaveOp::Read(_)))
            .count();
        // offsets + at most 2 rounds of targets.
        assert!(target_reads <= 3);
    }

    #[test]
    fn target_writes_follow_predicate() {
        let (mut os, spec) = setup();
        let pid = gvc_mem::ProcessId(0);
        let n = spec.graph.n as usize;
        let flags = DevArray::alloc(&mut os, pid, n as u64, 4);
        let active: Vec<u32> = (0..64).collect();
        let writes = |set: bool| {
            let mut spec = spec.clone();
            spec.scatter = Some((flags, vec![set; n].into()));
            drain(gather_kernel("g", Asid(0), spec, active.clone()))
                .iter()
                .flatten()
                .filter(|o| matches!(o, WaveOp::Write(_)))
                .count()
        };
        assert!(writes(true) > 0);
        assert_eq!(writes(false), 0);
    }

    #[test]
    fn a_wave_builds_one_round_at_a_time() {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let graph = Graph::power_law_shared(1024, 8, 9);
        let offsets = DevArray::alloc(&mut os, pid, graph.n as u64 + 1, 4);
        let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
        let n = graph.n as u64;
        let mut spec = GatherSpec::new(Arc::clone(&graph), offsets, targets);
        spec.vertex_reads.push(DevArray::alloc(&mut os, pid, n, 4));
        spec.vertex_writes.push(DevArray::alloc(&mut os, pid, n, 4));
        spec.gather.push(DevArray::alloc(&mut os, pid, n, 8));
        spec.edge_streams
            .push(DevArray::alloc(&mut os, pid, graph.edges(), 4));
        let flags: Arc<[bool]> = (0..n).map(|t| t % 3 == 0).collect();
        spec.scatter = Some((DevArray::alloc(&mut os, pid, n, 4), flags));
        spec.max_rounds = 16;
        // Vertex 0 is the biggest hub.
        let chunk: Vec<u32> = (0..LANES).collect();
        assert!(graph.degree(0) >= spec.max_rounds);
        let mut wave = GatherWave::new(Arc::new((spec.clone(), chunk.clone())), 0);
        let mut steps = Vec::new();
        loop {
            let mut ops = Vec::new();
            let more = wave.step(&mut ops);
            steps.push(ops);
            if !more {
                break;
            }
        }
        let rounds = spec.max_rounds as usize;
        assert_eq!(
            steps.len(),
            1 + rounds + 1,
            "head, one step per round, tail"
        );
        // The head: the vertex read and the offsets read.
        assert_eq!(steps[0].len(), 2);
        // Each round: targets, edge stream, gather, at most a scatter
        // write and a compute op, and nothing of the next round.
        for (r, round) in steps[1..=rounds].iter().enumerate() {
            assert!((3..=5).contains(&round.len()), "round {r}: {round:?}");
            let reads = round
                .iter()
                .filter(|o| matches!(o, WaveOp::Read(_)))
                .count();
            assert_eq!(reads, 3, "round {r} reads once per array");
        }
        // The tail: the vertex write and the final compute op.
        assert_eq!(
            steps[rounds + 1],
            [
                WaveOp::write(
                    chunk
                        .iter()
                        .map(|&v| spec.vertex_writes[0].addr(v as u64))
                        .collect()
                ),
                WaveOp::compute(4)
            ]
        );
        assert_eq!(steps.concat(), gather_wave(&spec, &chunk));
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_u32(5, 1), hash_u32(5, 1));
        assert_ne!(hash_u32(5, 1), hash_u32(5, 2));
        let low = (0..1000)
            .filter(|&x| hash_u32(x, 0).is_multiple_of(2))
            .count();
        assert!((400..600).contains(&low));
    }
}
