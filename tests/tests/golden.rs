//! Golden-output snapshot tests (ISSUE 6).
//!
//! Each test serializes a figure's JSON for a pinned (scale, seed)
//! and compares a 64-bit FNV-1a hash of the exact bytes against a
//! committed constant. Any byte of drift — a float formatted
//! differently, a map key reordered, one cycle count off — fails the
//! test. This is the safety net that lets the simulator's hot path be
//! rewritten (struct-of-arrays caches, arena event queue, batched
//! coalescer, fast hashers) with proof that results are untouched:
//! the hashes below were pinned on the pre-optimization tree and must
//! survive every rewrite unchanged.
//!
//! To rebaseline after an *intentional* behavior change, run the
//! failing test and copy the printed hash into the constant — the
//! diff then documents that the PR changed results, not just speed.

use gvc::{InjectConfig, SystemConfig};
use gvc_bench::figures::{fig11, fig12, fig9};
use gvc_bench::Runner;
use gvc_gpu::service::{run_service, ServiceConfig};
use gvc_gpu::{SoakConfig, SoakSim};
use gvc_workloads::Scale;

/// 64-bit FNV-1a over the serialized bytes. Not cryptographic — just
/// a stable, dependency-free content fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints the pretty JSON of `figure`, after checking that
/// serializing it directly and serializing its `Value` tree give the
/// same text.
fn fingerprint<T: serde::Serialize>(figure: &T) -> u64 {
    let json = serde_json::to_string_pretty(figure).expect("serialize");
    let via_tree = serde_json::to_string_pretty(&figure.to_value()).expect("serialize");
    assert!(
        json == via_tree,
        "direct and Value-tree JSON differ ({} vs {} bytes)",
        json.len(),
        via_tree.len()
    );
    fnv1a(json.as_bytes())
}

/// Asserts a figure's fingerprint, printing the observed hash on
/// mismatch so intentional rebaselines are a copy-paste.
fn assert_golden(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: golden output drifted — got {got:#018x}, pinned {want:#018x}. \
         If this change is intentional, update the constant; if not, the \
         hot path just changed simulation results."
    );
}

// Pinned fingerprints (test scale, seed 42 unless noted). These bytes
// were produced by the pre-optimization simulator; every hot-path
// rewrite must reproduce them exactly.
const FIG9_TEST_S42: u64 = 0xdac3_24dd_deeb_0c11;
const FIG9_TEST_S7: u64 = 0x74de_6274_1b5a_bb67;
const FIG11_TEST_S42: u64 = 0x289c_82bc_936c_1cdb;
const FIG12_TEST_S42: u64 = 0xd6b5_00fd_3ab0_19bd;
const SERVICE_BASELINE: u64 = 0xec3c_540b_fac9_d0e4;
const SERVICE_BASELINE_INJECT: u64 = 0xf1a1_1b1f_e867_0830;
const SERVICE_VC: u64 = 0x729e_2e70_832d_8c20;
const SERVICE_VC_INJECT: u64 = 0xf7b6_5dd9_3e3c_0f49;
const SERVICE_VC_NO_CHURN: u64 = 0xa1c2_45b9_d7b4_bc74;
const SERVICE_BASELINE_QUANTUM_1: u64 = 0xbe21_5952_40b4_bf11;
const SOAK_VC_INJECT_REPORT: u64 = 0x6bf4_9c01_4f45_d507;
const SOAK_VC_INJECT_CKPT_E2: u64 = 0xcd6a_3fcc_9c22_c09f;

#[test]
fn fig9_speedup_matrix_is_byte_stable() {
    // Figure 9 covers the widest design x workload matrix (baseline
    // 512/16K, VC with/without OPT, IDEAL MMU x all 15 workloads), so
    // it fingerprints the whole simulation spine.
    assert_golden(
        "fig9/test/42",
        fingerprint(&fig9::collect(&Runner::new(), Scale::test(), 42)),
        FIG9_TEST_S42,
    );
}

#[test]
fn fig9_speedup_matrix_is_byte_stable_at_seed_7() {
    // A second seed pins the seed-sensitivity of workload generation:
    // an optimization that accidentally froze or reused a seed would
    // pass seed 42 and fail here.
    assert_golden(
        "fig9/test/7",
        fingerprint(&fig9::collect(&Runner::new(), Scale::test(), 7)),
        FIG9_TEST_S7,
    );
}

#[test]
fn fig11_l1only_designs_are_byte_stable() {
    // Figure 11 exercises the L1-only virtual designs (per-CU TLB
    // sizing + large IOMMU TLB) that fig9 does not.
    assert_golden(
        "fig11/test/42",
        fingerprint(&fig11::collect(&Runner::new(), Scale::test(), 42)),
        FIG11_TEST_S42,
    );
}

#[test]
fn fig12_lifetime_cdfs_are_byte_stable() {
    // Figure 12's lifetime CDFs flow through the Cdf/lifetime-tracker
    // float pipeline — the part of the output most sensitive to
    // accidental reordering (it sorts samples with total_cmp).
    assert_golden(
        "fig12/test/42",
        fingerprint(&fig12::collect(&Runner::new(), Scale::test(), 42)),
        FIG12_TEST_S42,
    );
}

/// A service small enough for debug-build tests that still churns
/// (evictions fire at this period) and context-switches.
fn small_service() -> ServiceConfig {
    ServiceConfig {
        tenants: 4,
        quantum: 256,
        kernels_per_tenant: 3,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 3,
        mean_arrival_gap: 500,
        ..ServiceConfig::default()
    }
}

fn paranoid_inject(sys: SystemConfig) -> SystemConfig {
    sys.with_paranoid()
        .with_inject(InjectConfig::uniform(5_000, 9))
}

#[test]
fn service_reports_are_byte_stable() {
    // The multi-tenant service (DESIGN.md §11) under both translation
    // designs, plain and under paranoid fault injection, plus the two
    // scheduler corners: churn switched off and a one-cycle quantum.
    let sc = small_service();
    let (base, vc) = (SystemConfig::baseline_512(), SystemConfig::vc_with_opt());
    let no_churn = ServiceConfig {
        churn_period: 0,
        ..sc
    };
    let quantum_1 = ServiceConfig { quantum: 1, ..sc };
    let cells = [
        (sc, base, SERVICE_BASELINE),
        (sc, paranoid_inject(base), SERVICE_BASELINE_INJECT),
        (sc, vc, SERVICE_VC),
        (sc, paranoid_inject(vc), SERVICE_VC_INJECT),
        (no_churn, vc, SERVICE_VC_NO_CHURN),
        (quantum_1, base, SERVICE_BASELINE_QUANTUM_1),
    ];
    for (i, (sc, sys, want)) in cells.into_iter().enumerate() {
        let name = format!("service cell {i} ({})", sys.label());
        assert_golden(&name, fingerprint(&run_service(&sc, sys)), want);
    }
}

#[test]
fn soak_report_and_checkpoint_are_byte_stable() {
    // The epoch-windowed soak (DESIGN.md §12) under fault injection:
    // pins the checkpoint taken after epoch 2 (every field of the
    // live state) and the final report (histogram p99s, epoch curve).
    let cfg = SoakConfig {
        tenants: 3,
        quantum: 256,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 5,
        mean_arrival_gap: 800,
        epoch_cycles: 20_000,
        horizon_epochs: 4,
        ..SoakConfig::default()
    };
    let mut sim = SoakSim::new(&cfg, paranoid_inject(SystemConfig::vc_with_opt()));
    sim.run_epoch();
    sim.run_epoch();
    assert_golden(
        "soak/vc/inject/checkpoint-e2",
        fingerprint(&sim.snapshot()),
        SOAK_VC_INJECT_CKPT_E2,
    );
    while !sim.done() {
        sim.run_epoch();
    }
    assert_golden(
        "soak/vc/inject/report",
        fingerprint(&sim.finish()),
        SOAK_VC_INJECT_REPORT,
    );
}

#[test]
fn fingerprint_detects_a_deliberate_ordering_perturbation() {
    // Demonstration that the net actually catches drift (ISSUE 6
    // acceptance): take a real figure tree, swap two adjacent entries
    // of the first map we find — the kind of "harmless" reordering a
    // struct-of-arrays rewrite could introduce by iterating sets in a
    // different order — and check the fingerprint moves.
    let value = serde::Serialize::to_value(&fig12::collect(&Runner::new(), Scale::test(), 42));
    let clean = fnv1a(
        serde_json::to_string_pretty(&value)
            .expect("serialize")
            .as_bytes(),
    );
    let mut perturbed = value.clone();
    match &mut perturbed {
        serde::Value::Map(entries) => {
            assert!(entries.len() >= 2, "figure tree has at least two fields");
            entries.swap(0, 1);
        }
        other => panic!("figure serializes as a map, got {other:?}"),
    }
    let swapped = fnv1a(
        serde_json::to_string_pretty(&perturbed)
            .expect("serialize")
            .as_bytes(),
    );
    assert_ne!(
        clean, swapped,
        "swapping two map entries must change the fingerprint"
    );
    // And the perturbed tree no longer matches the pinned constant.
    assert_ne!(swapped, FIG12_TEST_S42);
}
