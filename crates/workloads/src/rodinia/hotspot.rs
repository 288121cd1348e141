//! `hotspot` — thermal simulation stencil (Rodinia).
//!
//! A 5-point stencil over a 2-D grid: three coalesced row reads, a
//! power-grid read, and a coalesced write per wave. Near-perfect
//! spatial locality; low translation demand.

use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite, VAddr};
use std::sync::Arc;

const ITERATIONS: u64 = 3;

/// The grid every wave reads, shared by all of them: two ping-pong
/// temperature arrays and the power map, `dim` × `dim` each.
struct Grid {
    temp: [DevArray; 2],
    power: DevArray,
    dim: u64,
}

impl Grid {
    fn row(&self, arr: &DevArray, r: u64, c0: u64) -> Vec<VAddr> {
        (c0..(c0 + 32).min(self.dim))
            .map(|c| arr.addr(r * self.dim + c))
            .collect()
    }

    /// Appends the stencil wave at row `r`, columns `c0..c0 + 32`:
    /// reads `temp[src]` and the power map, writes the other
    /// temperature array.
    fn wave_ops(&self, ops: &mut Vec<WaveOp>, src: usize, r: u64, c0: u64) {
        let (from, to) = (&self.temp[src], &self.temp[1 - src]);
        ops.extend([
            WaveOp::read(self.row(from, r - 1, c0)),
            WaveOp::read(self.row(from, r, c0)),
            WaveOp::read(self.row(from, r + 1, c0)),
            WaveOp::read(self.row(&self.power, r, c0)),
            WaveOp::compute(24),
            WaveOp::write(self.row(to, r, c0)),
        ]);
    }
}

struct HotspotSource {
    asid: Asid,
    grid: Arc<Grid>,
    iter: u64,
}

impl KernelSource for HotspotSource {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.iter >= ITERATIONS {
            return None;
        }
        // Ping-pong the temperature arrays between iterations.
        let src = (self.iter % 2) as usize;
        self.iter += 1;
        let dim = self.grid.dim;
        let mut b = Kernel::builder(format!("hotspot_iter{}", self.iter), self.asid);
        for r in 1..dim - 1 {
            for c0 in (0..dim).step_by(32) {
                let grid = Arc::clone(&self.grid);
                b = b.stepped_wave(move |ops| {
                    grid.wave_ops(ops, src, r, c0);
                    false
                });
            }
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let dim = (scale.apply(512, 96) & !31).max(96);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let temp_a = DevArray::alloc(&mut os, pid, dim * dim, 4);
    let temp_b = DevArray::alloc(&mut os, pid, dim * dim, 4);
    let power = DevArray::alloc(&mut os, pid, dim * dim, 4);
    Workload {
        os,
        source: Box::new(HotspotSource {
            asid: pid.asid(),
            grid: Arc::new(Grid {
                temp: [temp_a, temp_b],
                power,
                dim,
            }),
            iter: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_shape() {
        let mut w = build(Scale::test(), 0, false);
        let k = w.source.next_kernel().unwrap();
        // 96x96 grid: (dim-2) rows x dim/32 col blocks.
        assert_eq!(k.waves.len(), 94 * 3);
        let mut kernels = 1;
        while w.source.next_kernel().is_some() {
            kernels += 1;
        }
        assert_eq!(kernels, ITERATIONS);
    }
}
