//! `backprop` — neural-network back-propagation (Rodinia).
//!
//! A forward pass (input units × weight rows, semi-coalesced) and a
//! backward weight-update pass. Accumulations target a small hidden
//! layer that stays cache-hot. Regular enough to sit in the paper's
//! low-translation-bandwidth group.

use crate::arrays::DevArray;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite};
use std::sync::Arc;

const HIDDEN: u64 = 16;

/// The network every wave reads, shared by all of them.
struct Net {
    input: DevArray,   // n f32
    weights: DevArray, // n * HIDDEN f32
    hidden: DevArray,  // HIDDEN f32 (hot)
    n: u64,
}

impl Net {
    /// Appends the wave over input units `u0..u0 + 32`, in the forward
    /// or the backward pass.
    fn wave_ops(&self, ops: &mut Vec<WaveOp>, u0: u64, backward: bool) {
        let units: Vec<u64> = (u0..(u0 + 32).min(self.n)).collect();
        ops.extend([
            // Input activations: coalesced.
            WaveOp::read(units.iter().map(|&u| self.input.addr(u)).collect()),
            // Weight rows: each lane reads its unit's 64 B row.
            WaveOp::read(
                units
                    .iter()
                    .map(|&u| self.weights.addr(u * HIDDEN))
                    .collect(),
            ),
            WaveOp::compute(HIDDEN as u32 * 2),
            // Hidden-layer accumulation (hot line).
            WaveOp::read((0..HIDDEN / 8).map(|h| self.hidden.addr(h * 8)).collect()),
        ]);
        if backward {
            // Weight update writes the row back.
            ops.push(WaveOp::write(
                units
                    .iter()
                    .map(|&u| self.weights.addr(u * HIDDEN))
                    .collect(),
            ));
        } else {
            ops.push(WaveOp::write(vec![self.hidden.addr(0)]));
        }
    }
}

struct BackpropSource {
    asid: Asid,
    net: Arc<Net>,
    phase: u32,
}

impl KernelSource for BackpropSource {
    fn name(&self) -> &str {
        "backprop"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.phase >= 2 {
            return None;
        }
        let backward = self.phase == 1;
        self.phase += 1;
        let name = if backward {
            "backprop_bwd"
        } else {
            "backprop_fwd"
        };
        let mut b = Kernel::builder(name, self.asid);
        for u0 in (0..self.net.n).step_by(32) {
            let net = Arc::clone(&self.net);
            b = b.stepped_wave(move |ops| {
                net.wave_ops(ops, u0, backward);
                false
            });
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let n = scale.apply(64 * 1024, 4096);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let input = DevArray::alloc(&mut os, pid, n, 4);
    let weights = DevArray::alloc(&mut os, pid, n * HIDDEN, 4);
    let hidden = DevArray::alloc(&mut os, pid, HIDDEN.max(64), 4);
    Workload {
        os,
        source: Box::new(BackpropSource {
            asid: pid.asid(),
            net: Arc::new(Net {
                input,
                weights,
                hidden,
                n,
            }),
            phase: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phases() {
        let mut w = build(Scale::test(), 0, false);
        assert_eq!(w.source.next_kernel().unwrap().name, "backprop_fwd");
        assert_eq!(w.source.next_kernel().unwrap().name, "backprop_bwd");
        assert!(w.source.next_kernel().is_none());
    }
}
