//! `nw` — Needleman–Wunsch sequence alignment (Rodinia).
//!
//! The score matrix is processed in 16×16 tiles along anti-diagonals.
//! Each tile bursts boundary reads from memory (its top row is
//! coalesced but its left column is page-strided), computes entirely
//! in the scratchpad, and bursts the tile back. Per §3.1, this gives
//! `nw` a very high *infinite*-TLB miss ratio (every burst touches
//! fresh pages) yet little performance sensitivity — the scratchpad
//! phase hides the translation latency.

use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite, VAddr};

const TILE: u64 = 16;

#[derive(Clone, Copy)]
struct NwSource {
    asid: Asid,
    score: DevArray,
    reference: DevArray,
    n: u64,
    diagonal: u64,
}

impl NwSource {
    /// Appends the ops of the wave for tile `(tr, tc)`.
    fn tile_ops(&self, ops: &mut Vec<WaveOp>, tr: u64, tc: u64) {
        let r0 = tr * TILE;
        let c0 = tc * TILE;
        let top: Vec<VAddr> = (c0..c0 + TILE)
            .map(|c| self.score.addr(r0.saturating_sub(1) * self.n + c))
            .collect();
        let left: Vec<VAddr> = (r0..r0 + TILE)
            .map(|r| self.score.addr(r * self.n + c0.saturating_sub(1)))
            .collect();
        let refr: Vec<VAddr> = (r0..r0 + TILE)
            .map(|r| self.reference.addr(r * self.n + c0))
            .collect();
        let out: Vec<VAddr> = (r0..r0 + TILE)
            .map(|r| self.score.addr(r * self.n + c0))
            .collect();
        ops.extend([
            WaveOp::read(top),
            WaveOp::read(left),
            WaveOp::read(refr),
            WaveOp::scratch((TILE * TILE) as u32),
            WaveOp::compute((TILE * TILE / 4) as u32),
            WaveOp::write(out),
        ]);
    }
}

impl KernelSource for NwSource {
    fn name(&self) -> &str {
        "nw"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        let tiles = self.n / TILE;
        if self.diagonal >= 2 * tiles - 1 {
            return None;
        }
        let d = self.diagonal;
        self.diagonal += 1;
        let mut b = Kernel::builder(format!("nw_diag{d}"), self.asid);
        for tr in 0..tiles {
            if d >= tr && d - tr < tiles {
                // The wave copies the source: two array handles, a
                // size and a counter it does not read.
                let nw = *self;
                b = b.stepped_wave(move |ops| {
                    nw.tile_ops(ops, tr, d - tr);
                    false
                });
            }
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let n = (scale.apply(1024, 128) / TILE) * TILE;
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let score = DevArray::alloc(&mut os, pid, n * n, 4);
    let reference = DevArray::alloc(&mut os, pid, n * n, 4);
    Workload {
        os,
        source: Box::new(NwSource {
            asid: pid.asid(),
            score,
            reference,
            n,
            diagonal: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anti_diagonal_wavefront_grows_then_shrinks() {
        let mut w = build(Scale::test(), 0, false);
        let mut sizes = Vec::new();
        while let Some(k) = w.source.next_kernel() {
            sizes.push(k.waves.len());
        }
        let tiles = 128 / TILE as usize;
        assert_eq!(sizes.len(), 2 * tiles - 1);
        assert_eq!(*sizes.iter().max().unwrap(), tiles);
        assert_eq!(sizes[0], 1);
        assert_eq!(*sizes.last().unwrap(), 1);
    }

    #[test]
    fn tiles_are_scratchpad_heavy() {
        let mut w = build(Scale::test(), 0, false);
        let k = w.source.next_kernel().unwrap();
        let ops: Vec<_> = k
            .waves
            .into_iter()
            .flat_map(|p| p.collect::<Vec<_>>())
            .collect();
        assert!(ops.iter().any(|o| matches!(o, WaveOp::Scratch(_))));
    }
}
