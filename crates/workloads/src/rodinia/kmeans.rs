//! `kmeans` — k-means clustering (Rodinia).
//!
//! Streaming: every iteration reads all points' features
//! sequentially, compares against a small hot centroid table (cache
//! resident), and writes assignments. Sequential pages translate
//! well, so `kmeans` is one of the paper's low-translation-bandwidth
//! workloads.

use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite};
use std::sync::Arc;

const FEATURES: u64 = 16; // f32 features per point (64 B)
const CENTROIDS: u64 = 16;
const ITERATIONS: u64 = 3;

/// The arrays every wave reads, shared by all of them.
struct Data {
    points: DevArray,     // n * FEATURES f32
    centroids: DevArray,  // CENTROIDS * FEATURES f32
    assignment: DevArray, // n u32
    n: u64,
}

impl Data {
    /// Appends the wave that assigns points `p0..p0 + 32`.
    fn wave_ops(&self, ops: &mut Vec<WaveOp>, p0: u64) {
        let pts: Vec<u64> = (p0..(p0 + 32).min(self.n)).collect();
        ops.extend([
            // Each lane streams its point's 64 B feature block.
            WaveOp::read(
                pts.iter()
                    .map(|&p| self.points.addr(p * FEATURES))
                    .collect(),
            ),
            // Hot centroid table (fits in the L1).
            WaveOp::read(
                (0..CENTROIDS)
                    .map(|c| self.centroids.addr(c * FEATURES))
                    .collect(),
            ),
            // Distance evaluation: d x k MACs per point, lanes in
            // parallel across points.
            WaveOp::compute((CENTROIDS * FEATURES) as u32),
            WaveOp::write(pts.iter().map(|&p| self.assignment.addr(p)).collect()),
        ]);
    }
}

struct KmeansSource {
    asid: Asid,
    data: Arc<Data>,
    iter: u64,
}

impl KernelSource for KmeansSource {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.iter >= ITERATIONS {
            return None;
        }
        self.iter += 1;
        let mut b = Kernel::builder(format!("kmeans_iter{}", self.iter), self.asid);
        for p0 in (0..self.data.n).step_by(32) {
            let data = Arc::clone(&self.data);
            b = b.stepped_wave(move |ops| {
                data.wave_ops(ops, p0);
                false
            });
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let n = scale.apply(96 * 1024, 4096);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let points = DevArray::alloc(&mut os, pid, n * FEATURES, 4);
    let centroids = DevArray::alloc(&mut os, pid, CENTROIDS * FEATURES, 4);
    let assignment = DevArray::alloc(&mut os, pid, n, 4);
    Workload {
        os,
        source: Box::new(KmeansSource {
            asid: pid.asid(),
            data: Arc::new(Data {
                points,
                centroids,
                assignment,
                n,
            }),
            iter: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_and_shape() {
        let mut w = build(Scale::test(), 0, false);
        let mut kernels = 0;
        while let Some(k) = w.source.next_kernel() {
            kernels += 1;
            assert!(!k.waves.is_empty());
        }
        assert_eq!(kernels, ITERATIONS);
    }
}
