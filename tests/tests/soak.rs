//! End-to-end tests for the long-horizon soak harness: the supervisor
//! recovery contract (kill-and-resume is byte-identical to an
//! uninterrupted run, at any checkpoint cadence and worker count), the
//! graceful-shutdown signal path, and the bounded-memory streaming
//! stats contract over a >1e9-simulated-cycle horizon.
//!
//! The signal latch is process-global, so every test that touches it
//! lives in ONE test function (`signal_truncation_paths`); the other
//! tests never arm or trigger it.

use gvc::{InjectConfig, SystemConfig};
use gvc_bench::figures::tenants::{self, TenantsSpec};
use gvc_bench::{runner, signals, soak};
use gvc_gpu::{SoakCheckpoint, SoakConfig, SoakSim};
use gvc_workloads::Scale;
use serde::{Deserialize, Serialize, Value};
use soak::{FaultSpec, SoakOutcome, SoakSpec};

fn small_cfg() -> SoakConfig {
    SoakConfig {
        tenants: 2,
        quantum: 256,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 5,
        mean_arrival_gap: 800,
        epoch_cycles: 20_000,
        horizon_epochs: 5,
        ..SoakConfig::default()
    }
}

fn spec(designs: &[&str], dir: Option<String>) -> SoakSpec {
    SoakSpec {
        designs: designs.iter().map(|s| s.to_string()).collect(),
        cfg: small_cfg(),
        paranoid: true,
        state_dir: dir,
        ..SoakSpec::default()
    }
}

fn tmp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("gvc_soak_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8 temp dir").to_string()
}

/// The non-finite guard fires on a real checkpoint: a NaN in the
/// state panics naming its `$` path, and nothing reaches the disk —
/// neither the checkpoint nor its `.tmp` staging file.
#[test]
fn save_checkpoint_refuses_non_finite_numbers() {
    let dir = tmp_dir("nan");
    std::fs::create_dir_all(&dir).expect("create state dir");
    let path = soak::checkpoint_path(&dir, "vc");
    let mut ckpt = SoakSim::new(&small_cfg(), SystemConfig::vc_with_opt()).snapshot();
    ckpt.cfg.write_fraction = f64::NAN;
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        soak::save_checkpoint(&path, &ckpt)
    }))
    .expect_err("a NaN checkpoint must not be saved");
    let msg = panic
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.starts_with("soak checkpoint: non-finite number NaN at $.cfg.write_fraction "),
        "{msg}"
    );
    assert!(!std::path::Path::new(&path).exists(), "checkpoint written");
    assert!(
        !std::path::Path::new(&format!("{path}.tmp")).exists(),
        "staging file written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dotted JSON path `mem.srt[0].config` inside a checkpoint tree.
fn at<'v>(mut v: &'v mut Value, path: &str) -> &'v mut Value {
    for part in path.split('.') {
        let (key, index) = match part.split_once('[') {
            Some((k, i)) => (
                k,
                Some(i.trim_end_matches(']').parse::<usize>().expect("index")),
            ),
            None => (part, None),
        };
        v = match v {
            Value::Map(m) => &mut m.iter_mut().find(|(k, _)| k == key).expect(path).1,
            _ => panic!("{path}: `{key}` is not in a map"),
        };
        if let Some(i) = index {
            v = match v {
                Value::Seq(s) => &mut s[i],
                _ => panic!("{path}: `{key}` is not a list"),
            };
        }
    }
    v
}

fn first_uint(v: &mut Value) -> Option<&mut u64> {
    match v {
        Value::UInt(n) => Some(n),
        Value::Map(m) => m.iter_mut().find_map(|(_, v)| first_uint(v)),
        Value::Seq(s) => s.iter_mut().find_map(first_uint),
        _ => None,
    }
}

/// Increments the first integer under `v` (a config's first field).
fn bump(v: &mut Value) {
    *first_uint(v).expect("an integer to bump") += 1;
}

fn drop_last(v: &mut Value) {
    match v {
        Value::Seq(s) => assert!(s.pop().is_some(), "nothing to drop"),
        _ => panic!("not a list"),
    }
}

/// Fills one occupied PWC set past its associativity.
fn overflow_pwc_set(pwc: &mut Value) {
    let Value::UInt(ways) = *at(pwc, "config.ways") else {
        panic!("PWC ways is not an integer")
    };
    let Value::Seq(sets) = at(pwc, "sets") else {
        panic!("PWC sets is not a list")
    };
    let set = sets
        .iter_mut()
        .find_map(|s| match s {
            Value::Seq(slots) if !slots.is_empty() => Some(slots),
            _ => None,
        })
        .expect("a resident PWC slot");
    while set.len() as u64 <= ways {
        set.push(set[0].clone());
    }
}

/// Sets the first integer field named `key` under `v` to `to`.
fn set_first(v: &mut Value, key: &str, to: u64) {
    fn set(v: &mut Value, key: &str, to: u64) -> bool {
        match v {
            Value::Map(m) => m.iter_mut().any(|(k, x)| match x {
                Value::UInt(n) if k == key => {
                    *n = to;
                    true
                }
                _ => set(x, key, to),
            }),
            Value::Seq(s) => s.iter_mut().any(|x| set(x, key, to)),
            _ => false,
        }
    }
    assert!(set(v, key, to), "no `{key}` to set");
}

/// Sets the first integer field named `key` under `v` to 2^48, one past
/// the index bits a packed cache, TLB or MSHR key holds.
fn widen(v: &mut Value, key: &str) {
    set_first(v, key, 1 << 48);
}

/// Adds an in-flight translation fill whose VPN is 2^48 to the first
/// CU's list. The virtual hierarchy has no per-CU TLBs, so its lists
/// start empty.
fn wide_tlb_fill(v: &mut Value) {
    let Value::Seq(cus) = v else {
        panic!("tlb_inflight is not a list")
    };
    let Value::Seq(fills) = &mut cus[0] else {
        panic!("a CU's fills are not a list")
    };
    let key = Value::Map(vec![
        ("asid".into(), Value::UInt(0)),
        ("vpn".into(), Value::UInt(1 << 48)),
    ]);
    fills.push(Value::Seq(vec![key, Value::UInt(1)]));
}

/// Repeats a list's first entry at its end.
fn dup_first(v: &mut Value) {
    let Value::Seq(s) = v else {
        panic!("not a list")
    };
    let first = s.first().expect("an entry to repeat").clone();
    s.push(first);
}

/// Each check on a checkpoint's components still fires: one real
/// checkpoint, mutated at one JSON path per case, must fail with that
/// component's message. A check on a component's own shape (a packed
/// key's width, a repeated map key) fails the decode, with an error
/// that names the mutated path; a check against the simulation being
/// restored into makes `SoakSim::restore` panic.
#[test]
fn restore_rejects_each_mismatched_component() {
    type Mutation = fn(&mut Value);
    let cfg = small_cfg();
    let sys = SystemConfig::vc_with_opt().with_inject(InjectConfig::uniform(5_000, 9));
    let mut sim = SoakSim::new(&cfg, sys);
    sim.run_epoch();
    sim.run_epoch();
    let base = sim.snapshot().to_value();
    let cases: [(&str, Mutation, &str); 15] = [
        ("mem.dram.config", bump, "DRAM snapshot config mismatch"),
        (
            "mem.dir.lookup_latency",
            bump,
            "directory snapshot latency mismatch",
        ),
        (
            "mem.iommu.walkers.next_free",
            drop_last,
            "walker pool snapshot size mismatch",
        ),
        ("mem.iommu.pwc.config", bump, "PWC snapshot config mismatch"),
        (
            "mem.iommu.pwc",
            overflow_pwc_set,
            "PWC snapshot overflows set",
        ),
        (
            "mem.srt[0].config",
            bump,
            "remap table snapshot config mismatch",
        ),
        ("plan.cfg", bump, "inject plan snapshot config mismatch"),
        ("mem.srt", drop_last, "snapshot CU count mismatch in srt"),
        ("mem.tlbs", drop_last, "snapshot CU count mismatch in tlbs"),
        (
            "mem.l2.banks[0].sets",
            |v| widen(v, "line"),
            "cache snapshot line index exceeds 48 bits",
        ),
        (
            "mem.l2_mshr.inflight",
            |v| widen(v, "line"),
            "MSHR snapshot line index exceeds 48 bits",
        ),
        (
            "mem.iommu.tlb.sets",
            |v| widen(v, "vpn"),
            "TLB snapshot VPN exceeds 48 bits",
        ),
        (
            "mem.tlb_inflight",
            wide_tlb_fill,
            "in-flight TLB fill snapshot VPN exceeds 48 bits",
        ),
        (
            "mem.filters[0].counters",
            dup_first,
            "repeats an earlier key",
        ),
        (
            "mem.fbt.usable_ways",
            |v| *v = Value::UInt(99),
            "FBT snapshot usable ways outside 1..=",
        ),
    ];
    SoakSim::new(&cfg, sys).restore(&SoakCheckpoint::from_value(&base).expect("checkpoint"));
    for (path, mutate, expected) in cases {
        let mut value = base.clone();
        mutate(at(&mut value, path));
        let msg = match SoakCheckpoint::from_value(&value) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(&format!("$.{path}")), "{path}: {msg}");
                msg
            }
            Ok(ckpt) => {
                let mut fresh = SoakSim::new(&cfg, sys);
                let panic =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fresh.restore(&ckpt)))
                        .expect_err(path);
                runner::panic_message(&*panic)
            }
        };
        assert!(msg.contains(expected), "{path}: {msg}");
    }
}

/// Every preset's checkpoint decodes, so every TLB, cache and FBT a
/// preset builds fits under the slot cap a decode checks first.
#[test]
fn every_preset_fits_the_slot_cap() {
    for name in gvc_bench::trace::DESIGN_NAMES {
        let sys = gvc_bench::trace::design_by_name(name).expect("a preset");
        let text =
            serde_json::to_string(&SoakSim::new(&small_cfg(), sys).snapshot()).expect("serialize");
        if let Err(e) = serde_json::from_str::<SoakCheckpoint>(&text) {
            panic!("{name}: {e}");
        }
    }
}

/// A TLB, cache or FBT config whose size, read from the file, asks for
/// 2^40 slots fails the decode with a named error before anything is
/// allocated.
#[test]
fn decode_refuses_a_config_past_the_slot_cap() {
    let mut sim = SoakSim::new(&small_cfg(), SystemConfig::vc_with_opt());
    sim.run_epoch();
    let base = sim.snapshot().to_value();
    let cases: [(&str, &str, u64, &str); 4] = [
        ("mem.tlbs[0]", "entries", 1 << 40, "TLB snapshot asks for"),
        ("mem.iommu.tlb", "entries", 1 << 40, "TLB snapshot asks for"),
        ("mem.l1[0]", "bytes", 64 << 40, "cache snapshot asks for"),
        ("mem.fbt", "entries", 1 << 40, "FBT snapshot asks for"),
    ];
    for (path, key, to, expected) in cases {
        let mut value = base.clone();
        set_first(at(&mut value, &format!("{path}.config")), key, to);
        let msg = SoakCheckpoint::from_value(&value)
            .expect_err(path)
            .to_string();
        assert!(msg.starts_with(&format!("$.{path}: ")), "{path}: {msg}");
        assert!(
            msg.contains(expected) && msg.contains("over the cap"),
            "{path}: {msg}"
        );
    }
}

/// Kill-and-resume across checkpoint cadences AND worker counts: the
/// figure a resumed 4-worker run assembles must be byte-identical to a
/// single-worker run that never stopped.
#[test]
fn kill_resume_is_byte_identical_across_cadences_and_jobs() {
    let designs = ["baseline", "vc", "vc-without-opt", "ideal"];
    let clean_serial = soak::collect(&spec(&designs, None)).expect("clean serial soak");
    assert_eq!(clean_serial.outcome, SoakOutcome::Completed);

    let mut parallel = spec(&designs, None);
    parallel.jobs = 4;
    let clean_parallel = soak::collect(&parallel).expect("clean parallel soak");
    assert_eq!(
        clean_parallel.figure, clean_serial.figure,
        "worker count leaked into the soak figure"
    );

    for cadence in [1u64, 3] {
        let dir = tmp_dir(&format!("cadence{cadence}"));
        let mut drill = spec(&designs, Some(dir.clone()));
        drill.checkpoint_every = cadence;
        drill.kill_after = Some(2);
        drill.jobs = 4;
        let killed = soak::collect(&drill).expect("crash drill");
        assert_eq!(killed.outcome, SoakOutcome::Killed { at_epoch: 2 });
        for d in &designs {
            assert!(
                std::path::Path::new(&soak::checkpoint_path(&dir, d)).exists(),
                "drill must leave a checkpoint for {d}"
            );
        }

        let mut resume = spec(&designs, Some(dir.clone()));
        resume.checkpoint_every = cadence;
        resume.jobs = 4;
        let resumed = soak::collect(&resume).expect("resume");
        assert_eq!(resumed.outcome, SoakOutcome::Completed);
        assert_eq!(
            resumed.figure, clean_serial.figure,
            "kill-and-resume at cadence {cadence} with 4 workers must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash and hang recovery: a run whose epochs panic or wedge (and are
/// restored from checkpoints with seeded backoff) ends with the exact
/// report of a fault-free run.
#[test]
fn fault_recovery_is_invisible_in_the_report() {
    let clean = soak::collect(&spec(&["vc"], None)).expect("clean soak");

    let mut crashy = spec(&["vc"], None);
    crashy.fault = Some(FaultSpec {
        epoch: 4,
        kills: 2,
        hang: false,
    });
    crashy.retries = 3;
    let recovered = soak::collect(&crashy).expect("crash recovery");
    assert_eq!(recovered.recoveries, 2);
    assert_eq!(
        recovered.figure, clean.figure,
        "crash recovery must be invisible"
    );

    // A hung epoch: the wall watchdog flags the overrun, the epoch is
    // discarded and re-run from the last checkpoint.
    let mut hung = spec(&["vc"], None);
    hung.fault = Some(FaultSpec {
        epoch: 2,
        kills: 1,
        hang: true,
    });
    // Generous budget: a real (debug-build, paranoid) epoch must fit
    // comfortably, or the retry would be flagged hung as well.
    hung.epoch_wall_ms = Some(2_000);
    let recovered = soak::collect(&hung).expect("hang recovery");
    assert_eq!(recovered.recoveries, 1);
    assert_eq!(
        recovered.figure, clean.figure,
        "hang recovery must be invisible"
    );
}

/// Everything that arms or trips the process-global signal latch, in
/// one function: latch mechanics, soak truncation (final checkpoint +
/// partial report + resume), and the tenants sweep's truncated prefix.
#[test]
fn signal_truncation_paths() {
    signals::reset();
    signals::install();
    assert!(!signals::triggered(), "latch must start clear");
    signals::trigger_for_test();
    assert!(signals::triggered(), "latch must latch");
    signals::reset();

    // A signal before the first epoch boundary: the soak stops at the
    // next boundary with a truncated partial report and a resumable
    // checkpoint on disk.
    let clean = soak::collect(&spec(&["vc"], None)).expect("clean soak");
    let dir = tmp_dir("signal");
    signals::trigger_for_test();
    let cut = soak::collect(&spec(&["vc"], Some(dir.clone()))).expect("truncated soak");
    signals::reset();
    assert_eq!(cut.outcome, SoakOutcome::Truncated);
    let fig = cut.figure.expect("truncated runs still emit a figure");
    assert!(fig.truncated);
    assert_eq!(fig.cells.len(), 1);
    assert!(fig.cells[0].truncated, "the cell itself is flagged");
    assert!(
        fig.cells[0].epochs < small_cfg().horizon_epochs,
        "a cut run reports fewer epochs than the horizon"
    );
    fig.cells[0].check_conservation();
    let ckpt_text = std::fs::read_to_string(soak::checkpoint_path(&dir, "vc"))
        .expect("final checkpoint written on truncation");
    // The serializer would turn NaN/inf into `null`, but the save path
    // guards the value tree first; the bare tokens must never appear.
    // (`inf` itself would collide with the `inflight` field names.)
    assert!(!ckpt_text.contains("NaN") && !ckpt_text.contains("Infinity"));
    // And the file must re-validate as a current-version checkpoint.
    assert!(soak::load_checkpoint(&soak::checkpoint_path(&dir, "vc"))
        .expect("valid checkpoint")
        .is_some());

    // Resuming the truncated run completes it byte-identically.
    let resumed = soak::collect(&spec(&["vc"], Some(dir.clone()))).expect("resume");
    assert_eq!(resumed.outcome, SoakOutcome::Completed);
    assert_eq!(
        resumed.figure, clean.figure,
        "signal-truncate-then-resume must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The tenants sweep: a signal between cells yields the completed
    // prefix, flagged truncated, cell-for-cell identical to the full
    // sweep.
    let spec2 = TenantsSpec {
        tenant_counts: vec![2, 3],
        quantum: 128,
        designs: vec!["baseline".into(), "vc".into()],
        paranoid: false,
        jobs: 1,
    };
    let full = tenants::collect(&spec2, Scale::test(), 7);
    assert!(!full.truncated);
    assert_eq!(full.cells.len(), 4);
    signals::trigger_for_test();
    let cut = tenants::collect(&spec2, Scale::test(), 7);
    signals::reset();
    assert!(cut.truncated, "latched signal must truncate the sweep");
    assert!(cut.cells.len() < full.cells.len());
    assert_eq!(
        cut.cells[..],
        full.cells[..cut.cells.len()],
        "the truncated sweep is a byte-identical prefix"
    );
}

/// The headline robustness claim: a soak past 1e9 simulated cycles
/// under continuous fault injection, with paranoid sweeps at every
/// epoch boundary, finishing with bounded resident stats and exact
/// sample conservation through ~12 epoch spills.
#[test]
fn billion_cycle_injection_soak_stays_bounded_and_conserves() {
    let cfg = SoakConfig {
        tenants: 3,
        quantum: 512,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 9,
        mean_arrival_gap: 500_000,
        epoch_cycles: 100_000_000,
        horizon_epochs: 12,
        ..SoakConfig::default()
    };
    let sys = SystemConfig::vc_with_opt()
        .with_paranoid()
        .with_inject(gvc::InjectConfig::uniform(2_000, 13));
    let mut sim = SoakSim::new(&cfg, sys);

    // One epoch's worth of resident stats, plus slack for the partial
    // tail interval: the bound must not depend on how far we've run.
    let interval_bound = 2 * (cfg.epoch_cycles / 700 + 2) as usize;
    let mut max_resident_intervals = 0usize;
    while !sim.done() {
        sim.run_epoch(); // paranoid sweep at every boundary
        assert_eq!(
            sim.resident_epoch_samples(),
            0,
            "per-access samples must drain at every epoch boundary"
        );
        max_resident_intervals = max_resident_intervals.max(sim.resident_iommu_rate_intervals());
        // Checkpoints stay valid at every boundary of the long run.
        let ckpt = sim.snapshot();
        assert_eq!(ckpt.epoch, sim.epoch());
    }
    assert!(
        max_resident_intervals <= interval_bound,
        "resident IOMMU intervals grew with the horizon: {max_resident_intervals} > {interval_bound}"
    );

    let report = sim.finish();
    assert!(
        report.cycles >= 1_000_000_000,
        "horizon fell short: {} cycles",
        report.cycles
    );
    assert_eq!(report.epochs, 12);
    assert_eq!(report.epoch_curve.len(), 12, "one curve point per spill");
    assert!(report.accesses > 0);
    let injected = report.injected.as_ref().expect("injection was armed");
    assert!(
        injected.storms + injected.probe_bursts + injected.remaps > 0,
        "a billion-cycle storm must actually inject"
    );
    report.check_conservation();
}
