//! Op-stream pins: what every workload asks the GPU to do, hashed
//! before any simulation.
//!
//! Each case builds one workload at [`Scale::test`], seed 42, drains
//! its kernels and each kernel's waves in wave order, and hashes the
//! stream with 64-bit FNV-1a: kernel names, wave boundaries, op kinds,
//! every lane address, and every scratchpad and compute count. The
//! constants pin op content and order exactly, so a change to *how* a
//! workload generates its ops (eagerly, lazily, in chunks) must leave
//! them untouched; only a change to *what* the workload issues may
//! re-pin them.
//!
//! On a mismatch the test prints every observed hash in table form, so
//! an intentional re-pin is a copy-paste.

use gvc_gpu::kernel::WaveOp;
use gvc_workloads::{Scale, WorkloadId};

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn lane_hash(h: &mut Fnv, lanes: &[gvc_mem::VAddr]) {
    h.u64(lanes.len() as u64);
    for a in lanes {
        h.u64(a.raw());
    }
}

/// Drains `(id, thp)`'s whole op stream into one hash, without
/// simulating it.
fn stream_hash(id: WorkloadId, thp: bool) -> u64 {
    let mut w = gvc_workloads::build_thp(id, Scale::test(), 42, thp);
    let mut h = Fnv::new();
    while let Some(kernel) = w.source.next_kernel() {
        h.bytes(b"K");
        h.bytes(kernel.name.as_bytes());
        h.u64(kernel.asid.0 as u64);
        for wave in kernel.waves {
            h.bytes(b"W");
            for op in wave {
                match op {
                    WaveOp::Read(lanes) => {
                        h.bytes(b"r");
                        lane_hash(&mut h, &lanes);
                    }
                    WaveOp::Write(lanes) => {
                        h.bytes(b"w");
                        lane_hash(&mut h, &lanes);
                    }
                    WaveOp::Scratch(n) => {
                        h.bytes(b"s");
                        h.u64(n as u64);
                    }
                    WaveOp::Compute(c) => {
                        h.bytes(b"c");
                        h.u64(c as u64);
                    }
                }
            }
        }
    }
    h.0
}

/// `(workload, hash with 4 KB placement, hash with THP placement)`.
/// At this scale most arrays are under 2 MB, so the THP placement
/// moves only `kmeans`, `backprop` and `pathfinder`.
const PINS: [(&str, u64, u64); 15] = [
    ("bc", 0x0e6712a65b6ab9eb, 0x0e6712a65b6ab9eb),
    ("color_maxmin", 0x656e8428a27aa818, 0x656e8428a27aa818),
    ("color_max", 0xdac1c5df85307075, 0xdac1c5df85307075),
    ("fw", 0x4fbbc20d52aed125, 0x4fbbc20d52aed125),
    ("fw_block", 0xd5018ce2ca83b994, 0xd5018ce2ca83b994),
    ("mis", 0x20c37d80225dc54a, 0x20c37d80225dc54a),
    ("pagerank", 0x97b9ef9e688bfb05, 0x97b9ef9e688bfb05),
    ("pagerank_spmv", 0xee5d6a2b6d7456d3, 0xee5d6a2b6d7456d3),
    ("kmeans", 0x3208e706349ddc30, 0x13e8a2fe9e6956c8),
    ("backprop", 0xfe32b5a98570601b, 0x0b5095c38dcfd49b),
    ("bfs", 0x29100fba2ed22215, 0x29100fba2ed22215),
    ("hotspot", 0x157b0a5394fc17a6, 0x157b0a5394fc17a6),
    ("lud", 0x233e83835f0e926b, 0x233e83835f0e926b),
    ("nw", 0x4a0aa2c0b22d293f, 0x4a0aa2c0b22d293f),
    ("pathfinder", 0x50fa970f833f0704, 0x60cfb9ddb8426e84),
];

#[test]
fn every_workload_op_stream_is_pinned() {
    let observed: Vec<(&str, u64, u64)> = WorkloadId::all()
        .into_iter()
        .map(|id| (id.name(), stream_hash(id, false), stream_hash(id, true)))
        .collect();
    if observed != PINS {
        let table: String = observed
            .iter()
            .map(|(name, h4k, hthp)| format!("    ({name:?}, {h4k:#018x}, {hthp:#018x}),\n"))
            .collect();
        panic!("op streams differ from the pins; observed:\n{table}");
    }
}

#[test]
fn building_a_workload_twice_gives_the_same_stream() {
    for id in WorkloadId::all() {
        for thp in [false, true] {
            assert_eq!(
                stream_hash(id, thp),
                stream_hash(id, thp),
                "{id} (thp {thp}) is not deterministic in its inputs"
            );
        }
    }
}
