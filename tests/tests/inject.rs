//! Determinism and safety of the fault-injection layer at sweep
//! granularity.
//!
//! The headline guarantees:
//!
//! * `repro --inject` output is byte-identical for any `--jobs` value
//!   and replayable from the seed — injection rides inside the
//!   [`RunKey`] (the [`gvc::InjectConfig`] is part of
//!   [`SystemConfig`]), so the memo-cache machinery gives the same
//!   worker-count invariance as clean runs;
//! * the paranoid invariant checker stays green across every Table 2
//!   preset while storms, probe bursts, FBT pressure, and page remaps
//!   are being injected.
//!
//! Every test builds its own [`Runner`], so they can run concurrently.

use gvc::{InjectConfig, SystemConfig};
use gvc_bench::runner::{keys_for, Runner};
use gvc_workloads::{Scale, WorkloadId};

/// A workload slice big enough to exercise every injector, small
/// enough for paranoid mode.
fn workloads() -> [WorkloadId; 4] {
    [
        WorkloadId::Bfs,
        WorkloadId::Pagerank,
        WorkloadId::Backprop,
        WorkloadId::Pathfinder,
    ]
}

/// Table 2's five designs.
fn presets() -> [SystemConfig; 5] {
    [
        SystemConfig::ideal_mmu(),
        SystemConfig::baseline_512(),
        SystemConfig::baseline_16k(),
        SystemConfig::vc_without_opt(),
        SystemConfig::vc_with_opt(),
    ]
}

/// Serializes an injected + paranoid sweep to canonical JSON, exactly
/// the way `repro --inject --paranoid --json` would emit it.
fn injected_sweep_json(workers: usize, inject_seed: u64) -> String {
    let runner = Runner::with_jobs(workers);
    let scale = Scale::test();
    let config = SystemConfig::vc_with_opt()
        .with_paranoid()
        .with_inject(InjectConfig::uniform(20_000, inject_seed));
    runner.prefetch(&keys_for(&workloads(), &[config], scale, 42));
    let reports: Vec<_> = workloads()
        .into_iter()
        .map(|id| runner.run(id, config, scale, 42))
        .collect();
    for rep in &reports {
        let inj = rep.injected.expect("injection was armed");
        assert!(
            inj.storms + inj.probe_bursts + inj.pressure_windows + inj.remaps + inj.remaps_failed
                > 0,
            "injection armed but nothing fired: {inj:?}"
        );
    }
    serde_json::to_string_pretty(&reports).expect("reports serialize")
}

#[test]
fn injected_sweep_is_byte_identical_across_worker_counts() {
    let serial = injected_sweep_json(1, 9);
    let parallel = injected_sweep_json(4, 9);
    assert_eq!(serial, parallel, "worker count changed an injected run");
}

#[test]
fn injection_replays_from_the_seed_and_diverges_across_seeds() {
    let first = injected_sweep_json(2, 11);
    let second = injected_sweep_json(2, 11);
    assert_eq!(first, second, "same inject seed diverged");
    let other = injected_sweep_json(2, 12);
    assert_ne!(other, first, "inject seed does not reach the run");
}

#[test]
fn paranoid_stays_green_across_all_presets_under_injection() {
    // Success criterion: the paranoid checker panics on any violated
    // invariant, so merely completing every run is the assertion.
    let runner = Runner::new();
    let scale = Scale::test();
    for preset in presets() {
        let config = preset
            .with_paranoid()
            .with_inject(InjectConfig::uniform(20_000, 1234));
        let rep = runner.run(WorkloadId::Bfs, config, scale, 42);
        assert!(rep.cycles > 0);
        assert!(rep.injected.is_some());
        // Walker-level injection must also have been live, and its
        // invariant (injected faults happen inside walks) must hold.
        assert!(rep.mem.iommu.faults.get() <= rep.mem.iommu.walks.get());
    }
}

/// Seeded injection soak for CI (`ci.sh` runs it with
/// `--include-ignored`): 2 presets x 3 workloads under paranoid
/// checking and a fixed injection schedule.
#[test]
#[ignore = "soak: minutes of paranoid-mode simulation; ci.sh opts in"]
fn seeded_injection_soak() {
    let runner = Runner::new();
    let scale = Scale::test();
    let inject = InjectConfig::uniform(30_000, 42);
    for preset in [SystemConfig::vc_with_opt(), SystemConfig::vc_without_opt()] {
        for workload in [WorkloadId::Bfs, WorkloadId::Kmeans, WorkloadId::Lud] {
            let config = preset.with_paranoid().with_inject(inject);
            let rep = runner.run(workload, config, scale, 42);
            let inj = rep.injected.expect("armed");
            assert!(
                inj.storms + inj.probe_bursts + inj.pressure_windows + inj.remaps > 0,
                "{workload}: soak fired nothing: {inj:?}"
            );
        }
    }
}
