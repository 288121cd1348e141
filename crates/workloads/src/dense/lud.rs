//! `lud` — LU decomposition (Rodinia).
//!
//! One kernel per diagonal step: the perimeter waves read the pivot
//! row (coalesced) and pivot column (strided, page-divergent), then
//! the trailing submatrix updates tile by tile, mixing coalesced and
//! strided traffic. Divergence grows with the matrix row size; at
//! this configuration `lud` lands in the paper's
//! high-translation-bandwidth group.

use super::Matrix;
use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite};

struct LudSource {
    asid: Asid,
    m: Matrix,
    steps: u64,
    step_size: u64,
    next_step: u64,
}

impl KernelSource for LudSource {
    fn name(&self) -> &str {
        "lud"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.next_step >= self.steps {
            return None;
        }
        let k = self.next_step * self.step_size;
        self.next_step += 1;
        let n = self.m.n;
        if k + 32 >= n {
            return None;
        }
        let m = self.m;
        let mut b = Kernel::builder(format!("lud_step{}", self.next_step), self.asid);
        // Perimeter: pivot row (coalesced) and pivot column (strided).
        for col0 in (k..n).step_by(32) {
            b = b.stepped_wave(move |ops| {
                ops.extend([
                    m.row_read(k, col0),
                    WaveOp::compute(8),
                    m.row_write(k, col0),
                ]);
                false
            });
        }
        for row0 in (k..n).step_by(32) {
            b = b.stepped_wave(move |ops| {
                ops.extend([
                    m.col_read(row0, k),
                    WaveOp::compute(8),
                    m.col_write(row0, k),
                ]);
                false
            });
        }
        // Trailing submatrix tiles: own block (strided) + pivot row
        // (coalesced) + pivot column (strided).
        for tile_r in ((k + 32)..n).step_by(32) {
            for tile_c in ((k + 32)..n).step_by(32) {
                b = b.stepped_wave(move |ops| {
                    ops.extend([
                        m.col_read(tile_r, tile_c),
                        m.row_read(k, tile_c),
                        m.col_read(tile_r, k),
                        WaveOp::compute(16),
                        m.col_write(tile_r, tile_c),
                    ]);
                    false
                });
            }
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let n = scale.apply(768, 96) & !31;
    let steps = scale.apply(8, 2);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let data = DevArray::alloc(&mut os, pid, n * n, 4);
    // Diagonal steps sample the factorization's progress evenly.
    let step_size = (n / (steps + 1)).max(32) & !31;
    Workload {
        os,
        source: Box::new(LudSource {
            asid: pid.asid(),
            m: Matrix { data, n },
            steps,
            step_size: step_size.max(32),
            next_step: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_submatrix_shrinks() {
        let mut w = build(Scale::test(), 0, false);
        let mut sizes = Vec::new();
        while let Some(k) = w.source.next_kernel() {
            sizes.push(k.waves.len());
        }
        assert!(!sizes.is_empty());
        assert!(
            sizes.windows(2).all(|p| p[1] <= p[0]),
            "later steps touch less: {sizes:?}"
        );
    }
}
