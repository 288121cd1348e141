//! `pathfinder` — grid dynamic programming (Rodinia).
//!
//! Row-by-row DP over a wide grid: each step streams the previous
//! row's costs (coalesced bursts), iterates several row-steps in the
//! scratchpad, and writes the new row. Like `nw`, bursty at tile
//! boundaries and scratchpad-bound in between: high demand-miss
//! ratio, low performance sensitivity (§3.1).

use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite, VAddr};

/// Rows processed per scratchpad-staged block.
const ROWS_PER_BLOCK: u64 = 8;
/// Columns per wave (staged through the scratchpad).
const COLS_PER_WAVE: u64 = 1024;

struct PathfinderSource {
    asid: Asid,
    grid: DevArray, // rows * cols u32
    result: DevArray,
    rows: u64,
    cols: u64,
    next_block: u64,
}

impl KernelSource for PathfinderSource {
    fn name(&self) -> &str {
        "pathfinder"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.next_block * ROWS_PER_BLOCK >= self.rows {
            return None;
        }
        let r0 = self.next_block * ROWS_PER_BLOCK;
        self.next_block += 1;
        let (grid, result, cols) = (self.grid, self.result, self.cols);
        let mut b = Kernel::builder(format!("pathfinder_block{}", self.next_block), self.asid);
        for c0 in (0..cols).step_by(COLS_PER_WAVE as usize) {
            b = b.stepped_wave(move |ops| {
                let span = (c0..(c0 + COLS_PER_WAVE).min(cols)).step_by(32);
                let seg: Vec<VAddr> = span.clone().map(|c| grid.addr(r0 * cols + c)).collect();
                let out: Vec<VAddr> = span.map(|c| result.addr(c)).collect();
                ops.push(WaveOp::read(seg));
                for _ in 0..ROWS_PER_BLOCK {
                    ops.push(WaveOp::scratch(COLS_PER_WAVE as u32 / 8));
                    ops.push(WaveOp::compute(16));
                }
                ops.push(WaveOp::write(out));
                false
            });
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let cols = scale.apply(64 * 1024, 4096);
    let rows = scale.apply(96, 16);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let grid = DevArray::alloc(&mut os, pid, rows * cols, 4);
    let result = DevArray::alloc(&mut os, pid, cols, 4);
    Workload {
        os,
        source: Box::new(PathfinderSource {
            asid: pid.asid(),
            grid,
            result,
            rows,
            cols,
            next_block: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_all_rows() {
        let mut w = build(Scale::test(), 0, false);
        let mut blocks = 0;
        while let Some(k) = w.source.next_kernel() {
            blocks += 1;
            assert!(!k.waves.is_empty());
        }
        assert_eq!(blocks, 16 / ROWS_PER_BLOCK);
    }

    #[test]
    fn scratch_dominates_ops() {
        let mut w = build(Scale::test(), 0, false);
        let k = w.source.next_kernel().unwrap();
        let ops: Vec<_> = k
            .waves
            .into_iter()
            .flat_map(|p| p.collect::<Vec<_>>())
            .collect();
        let scratch = ops
            .iter()
            .filter(|o| matches!(o, WaveOp::Scratch(_)))
            .count();
        let mem = ops
            .iter()
            .filter(|o| matches!(o, WaveOp::Read(_) | WaveOp::Write(_)))
            .count();
        assert!(
            scratch > mem,
            "scratchpad traffic dominates: {scratch} vs {mem}"
        );
    }
}
