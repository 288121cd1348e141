//! Graph inputs and the Pannotia-style graph workloads.
//!
//! Pannotia's inputs are real-world power-law graphs; we generate
//! deterministic synthetic equivalents with heavy-tailed degree
//! distributions, which is what produces the memory divergence (32
//! lanes gathering from 32 different pages) and the hub-reuse (hot
//! vertices resident in the caches while the TLB thrashes) that the
//! paper's observations rest on.

pub mod bc;
pub mod bfs;
pub mod color;
pub mod mis;
pub mod pagerank;

use gvc_engine::SimRng;
use std::cell::RefCell;
use std::sync::Arc;

/// Memo entries keyed by the full power-law recipe `(n, avg_deg,
/// seed)`; the key space in practice is a handful of entries, hence
/// the linear scan.
type GraphMemo = Vec<((u32, u32, u64), Arc<Graph>)>;

thread_local! {
    /// Per-thread memo of power-law graphs. Construction is
    /// deterministic, so a cached graph is bit-identical to a rebuilt
    /// one; sweeps that run many designs over one workload (and
    /// benchmarks that time repeated runs) skip the Zipf-sampling cost
    /// after the first build.
    static POWER_LAW_MEMO: RefCell<GraphMemo> = const { RefCell::new(Vec::new()) };
}

/// A directed graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Vertex count.
    pub n: u32,
    /// CSR row offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// CSR edge targets.
    pub targets: Vec<u32>,
}

impl Graph {
    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Edge count.
    pub fn edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Generates a power-law graph: `n` vertices, about `avg_deg`
    /// edges per vertex, with targets drawn from a Zipf-like
    /// distribution (low vertex ids are hubs). Deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn power_law(n: u32, avg_deg: u32, seed: u64) -> Graph {
        assert!(n > 0, "graph must have vertices");
        let mut rng = SimRng::seeded(seed);
        let m = n as u64 * avg_deg as u64;
        // Degree of each source is itself skewed: hubs also emit more.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for _ in 0..m {
            let src = skewed(&mut rng, n, 1.5);
            let dst = skewed(&mut rng, n, 3.0);
            adj[src as usize].push(dst);
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets = Vec::with_capacity(m as usize);
        offsets.push(0u32);
        for list in &adj {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Graph {
            n,
            offsets,
            targets,
        }
    }

    /// [`Graph::power_law`] through the per-thread memo: returns a
    /// shared handle to the (deterministic, hence bit-identical)
    /// graph, building it only on the first request per thread.
    pub fn power_law_shared(n: u32, avg_deg: u32, seed: u64) -> Arc<Graph> {
        POWER_LAW_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some((_, g)) = memo.iter().find(|(k, _)| *k == (n, avg_deg, seed)) {
                return Arc::clone(g);
            }
            let g = Arc::new(Graph::power_law(n, avg_deg, seed));
            memo.push(((n, avg_deg, seed), Arc::clone(&g)));
            g
        })
    }

    /// Generates a uniform random graph (for contrast in tests).
    pub fn uniform(n: u32, avg_deg: u32, seed: u64) -> Graph {
        assert!(n > 0, "graph must have vertices");
        let mut rng = SimRng::seeded(seed);
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for _ in 0..n {
            for _ in 0..avg_deg {
                targets.push(rng.below(n as u64) as u32);
            }
            offsets.push(targets.len() as u32);
        }
        Graph {
            n,
            offsets,
            targets,
        }
    }

    /// Breadth-first levels from `root`: `levels[v]` is the hop count,
    /// `u32::MAX` if unreachable. Also returns the frontier (vertex
    /// list) of each level.
    pub fn bfs_levels(&self, root: u32) -> (Vec<u32>, Vec<Vec<u32>>) {
        let mut level = vec![u32::MAX; self.n as usize];
        level[root as usize] = 0;
        let mut frontiers = vec![vec![root]];
        loop {
            let cur = frontiers.last().expect("nonempty");
            let depth = frontiers.len() as u32;
            let mut next = Vec::new();
            for &v in cur {
                for &t in self.neighbors(v) {
                    if level[t as usize] == u32::MAX {
                        level[t as usize] = depth;
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontiers.push(next);
        }
        (level, frontiers)
    }
}

/// Draws a vertex id with a Zipf-like skew: larger `alpha` = heavier
/// head (vertex 0 is the biggest hub).
fn skewed(rng: &mut SimRng, n: u32, alpha: f64) -> u32 {
    let u = rng.unit();
    ((n as f64 * u.powf(alpha)) as u32).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_is_deterministic_and_sized() {
        let a = Graph::power_law(1000, 8, 7);
        let b = Graph::power_law(1000, 8, 7);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.edges(), 8000);
        assert_eq!(a.offsets.len(), 1001);
    }

    #[test]
    fn power_law_has_hubs() {
        let g = Graph::power_law(10_000, 8, 3);
        // In-degree of the head must dwarf the average.
        let head_in = g.targets.iter().filter(|&&t| t < 100).count();
        assert!(
            head_in as f64 > 0.2 * g.edges() as f64,
            "first 1% of vertices should attract >20% of edges, got {head_in}"
        );
        let max_deg = (0..g.n).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg > 8 * 4, "hub out-degree should exceed 4x average");
    }

    #[test]
    fn csr_invariants() {
        for g in [Graph::power_law(500, 4, 1), Graph::uniform(500, 4, 1)] {
            assert_eq!(*g.offsets.last().unwrap() as usize, g.targets.len());
            assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
            assert!(g.targets.iter().all(|&t| t < g.n));
            let total: u32 = (0..g.n).map(|v| g.degree(v)).sum();
            assert_eq!(total as u64, g.edges());
        }
    }

    #[test]
    fn bfs_levels_are_consistent() {
        let g = Graph::uniform(2000, 6, 5);
        let (levels, frontiers) = g.bfs_levels(0);
        assert_eq!(levels[0], 0);
        for (d, frontier) in frontiers.iter().enumerate() {
            for &v in frontier {
                assert_eq!(levels[v as usize], d as u32);
            }
        }
        // Every reachable vertex appears in exactly one frontier.
        let covered: usize = frontiers.iter().map(Vec::len).sum();
        let reachable = levels.iter().filter(|&&l| l != u32::MAX).count();
        assert_eq!(covered, reachable);
        assert!(reachable > 1000, "uniform graph should be mostly connected");
    }
}
