//! Workspace-level properties of the multi-tenant service sweep
//! (`repro tenants`): worker-count invariance and stall-cycle
//! conservation, plus a deterministic paranoid smoke run.
//!
//! The sweep bypasses the runner's memo cache entirely (cells come
//! back from `par_map_ordered` in cell order), so the only
//! way worker count could leak into the output is a real determinism
//! bug — exactly what these properties hunt for across the
//! (tenant count × quantum × seed) space.

use gvc_bench::figures::tenants::{collect, TenantsSpec};
use gvc_gpu::service::{run_service, ServiceConfig};
use gvc_workloads::Scale;
use proptest::prelude::*;

fn spec(tenants: usize, quantum: u64, jobs: usize) -> TenantsSpec {
    TenantsSpec {
        tenant_counts: vec![tenants],
        quantum,
        designs: vec!["baseline".into(), "vc".into()],
        // Paranoid wires the invariant checker *and* the stall-cycle
        // conservation law into every cell.
        paranoid: true,
        jobs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sweep is byte-identical for 1 vs 4 workers across the
    /// whole (tenants × quantum × seed) space, and every cell
    /// conserves stall cycles and accesses tenant-by-tenant.
    #[test]
    fn sweep_is_worker_count_invariant(
        tenants in 2usize..10,
        quantum in 64u64..2048,
        seed in 0u64..1000,
    ) {
        let scale = Scale::test();
        let serial = collect(&spec(tenants, quantum, 1), scale, seed);
        let pooled = collect(&spec(tenants, quantum, 4), scale, seed);
        prop_assert_eq!(&serial, &pooled, "worker count leaked into the sweep");
        // Byte-level, not just structural: the JSON the CLI writes
        // must be identical too.
        let a = serde_json::to_string(&serial).expect("serialize");
        let b = serde_json::to_string(&pooled).expect("serialize");
        prop_assert_eq!(a, b, "serialized sweeps differ");
        for cell in &serial.cells {
            cell.check_stall_conservation();
            let per_tenant: u64 = cell.per_tenant.iter().map(|t| t.accesses).sum();
            prop_assert_eq!(per_tenant, cell.accesses, "per-tenant accesses must sum up");
        }
    }

    /// A single service run replays byte-identically from its seed,
    /// independent of everything else proptest mutates.
    #[test]
    fn service_run_replays_from_seed(
        tenants in 2usize..8,
        quantum in 32u64..512,
        seed in 0u64..1000,
    ) {
        let sc = ServiceConfig {
            tenants,
            quantum,
            kernels_per_tenant: 2,
            waves_per_kernel: 2,
            accesses_per_wave: 12,
            pages_per_tenant: 5,
            churn_period: 5,
            seed,
            ..ServiceConfig::default()
        };
        let sys = gvc::SystemConfig::vc_with_opt().with_paranoid();
        let a = run_service(&sc, sys);
        let b = run_service(&sc, sys);
        prop_assert_eq!(a, b, "service run is not a pure function of its seed");
    }
}

/// Deterministic smoke: the default sweep shape at test scale, under
/// paranoia, produces per-tenant tail latencies and conserves work.
#[test]
fn paranoid_smoke_produces_tail_latencies() {
    let fig = collect(&spec(6, 256, 2), Scale::test(), 42);
    assert_eq!(fig.cells.len(), 2);
    for cell in &fig.cells {
        assert_eq!(cell.per_tenant.len(), 6);
        assert!(cell.accesses > 0, "service ran no work");
        assert!(cell.throughput > 0.0);
        assert!(cell.fairness > 0.0 && cell.fairness <= 1.0 + 1e-9);
        assert!(
            cell.per_tenant.iter().all(|t| t.p99_stall >= 0.0),
            "per-tenant p99 must be defined"
        );
        cell.check_stall_conservation();
    }
}
