//! The parallel sweep executor's headline guarantee: results are
//! independent of the worker count. `repro --jobs N` must be
//! byte-identical to `--jobs 1`, which reduces to every `RunReport`
//! being identical whether it was computed serially or by a worker
//! pool.
//!
//! Every test builds its own [`Runner`], so each starts from an empty
//! memo cache and no test can see another's cache or settings.

use gvc::SystemConfig;
use gvc_bench::runner::{keys_for, RunKey, Runner};
use gvc_gpu::Truncation;
use gvc_workloads::{Scale, WorkloadId};
use std::sync::Barrier;

/// Serializes a full sweep to canonical JSON for byte-comparison
/// (RunReport has no PartialEq; JSON is the same representation
/// `repro --json` writes).
fn sweep_json(config: SystemConfig, workers: usize, seed: u64) -> String {
    let runner = Runner::with_jobs(workers);
    let scale = Scale::test();
    runner.prefetch(&keys_for(&WorkloadId::all(), &[config], scale, seed));
    let reports: Vec<_> = WorkloadId::all()
        .into_iter()
        .map(|id| runner.run(id, config, scale, seed))
        .collect();
    serde_json::to_string_pretty(&reports).expect("reports serialize")
}

#[test]
fn one_worker_and_four_workers_produce_identical_reports() {
    let config = SystemConfig::baseline_512();
    let serial = sweep_json(config, 1, 42);
    let parallel = sweep_json(config, 4, 42);
    assert_eq!(serial, parallel, "worker count changed a RunReport");
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let config = SystemConfig::vc_with_opt();
    let first = sweep_json(config, 4, 7);
    let second = sweep_json(config, 4, 7);
    assert_eq!(first, second, "same-seed rerun diverged");
}

#[test]
fn different_seeds_differ() {
    let config = SystemConfig::baseline_512();
    let a = sweep_json(config, 2, 1);
    let b = sweep_json(config, 2, 2);
    assert_ne!(a, b, "seed is not reaching the workloads");
}

#[test]
fn prefetch_covers_every_workload() {
    let runner = Runner::with_jobs(4);
    let keys = keys_for(
        &WorkloadId::all(),
        &[SystemConfig::ideal_mmu()],
        Scale::test(),
        3,
    );
    runner.prefetch(&keys);
    assert_eq!(runner.cache_len(), WorkloadId::all().len());
}

#[test]
fn run_all_is_worker_count_invariant_per_workload() {
    let scale = Scale::test();
    let config = SystemConfig::baseline_16k();
    let serial = Runner::with_jobs(1).run_all(config, scale, 11);
    let parallel = Runner::with_jobs(4).run_all(config, scale, 11);

    assert_eq!(serial.len(), parallel.len());
    for ((id_a, rep_a), (id_b, rep_b)) in serial.iter().zip(&parallel) {
        assert_eq!(id_a, id_b);
        let a = serde_json::to_string(rep_a).expect("serializes");
        let b = serde_json::to_string(rep_b).expect("serializes");
        assert_eq!(a, b, "workload {id_a} differs between 1 and 4 workers");
    }
}

/// Two runners driven from two threads at once share nothing: one
/// runs under a cycle watchdog while the other repeatedly clears and
/// refills its own cache, and each sees only its own cache length and
/// its own truncation setting. (With process-global run state, the
/// clearing thread used to empty the other's cache mid-assertion.)
#[test]
fn concurrent_runners_keep_their_own_cache_and_settings() {
    let scale = Scale::test();
    let config = SystemConfig::baseline_512();
    let workloads = [WorkloadId::Pathfinder, WorkloadId::Backprop, WorkloadId::Nw];
    let keys: Vec<RunKey> = keys_for(&workloads, &[config], scale, 5);
    let rounds = 3;
    let barrier = Barrier::new(2);

    std::thread::scope(|scope| {
        let capped = scope.spawn(|| {
            let mut runner = Runner::with_jobs(2);
            runner.max_cycles = Some(2_000);
            barrier.wait();
            for round in 0..rounds {
                for (i, key) in keys.iter().enumerate() {
                    let rep = runner.run(key.workload, key.config, key.scale, key.seed);
                    assert_eq!(
                        rep.truncated,
                        Some(Truncation::MaxCycles),
                        "round {round}: the capped runner lost its watchdog"
                    );
                    assert_eq!(
                        runner.cache_len(),
                        if round == 0 { i + 1 } else { keys.len() }
                    );
                }
            }
        });
        let clearing = scope.spawn(|| {
            let runner = Runner::with_jobs(2);
            barrier.wait();
            for round in 0..rounds {
                runner.clear();
                assert_eq!(runner.cache_len(), 0, "round {round}: clear left entries");
                runner.prefetch(&keys);
                assert_eq!(runner.cache_len(), keys.len(), "round {round}");
                for key in &keys {
                    let rep = runner.run(key.workload, key.config, key.scale, key.seed);
                    assert_eq!(
                        rep.truncated, None,
                        "round {round}: the other runner's watchdog leaked in"
                    );
                }
            }
        });
        capped.join().expect("capped runner thread");
        clearing.join().expect("clearing runner thread");
    });
}
