//! The hardened sweep runner: a sweep containing a run that panics and
//! a run that trips the cycle watchdog still completes, reporting both
//! as structured [`RunError`]s while every healthy key gets its full
//! report.

use gvc::SystemConfig;
use gvc_bench::runner::{self, RunError, RunKey, Runner};
use gvc_gpu::Truncation;
use gvc_workloads::{Scale, WorkloadId};

#[test]
fn sweep_survives_panics_and_timeouts_with_structured_errors() {
    let scale = Scale::test();
    let mk = |workload| RunKey {
        workload,
        config: SystemConfig::baseline_512(),
        scale,
        seed: 1,
    };
    let a = mk(WorkloadId::Pathfinder);
    let b = mk(WorkloadId::Backprop);

    // Measure both runs un-watchdogged, then pick a cycle budget that
    // lets the faster one finish and cuts the slower one.
    let unlimited = Runner::new();
    let a_cycles = unlimited.run(a.workload, a.config, a.scale, a.seed).cycles;
    let b_cycles = unlimited.run(b.workload, b.config, b.scale, b.seed).cycles;
    assert_ne!(a_cycles, b_cycles, "need distinct run lengths to split");
    let (fast, slow) = if a_cycles < b_cycles { (a, b) } else { (b, a) };
    let (fast_cycles, slow_cycles) = (a_cycles.min(b_cycles), a_cycles.max(b_cycles));

    // A config whose FBT geometry panics the constructor (`ways` must
    // divide `entries`) — in every design, deterministically.
    let mut bad_config = SystemConfig::baseline_512();
    bad_config.fbt.ways = 3;
    let bad = RunKey {
        config: bad_config,
        ..fast
    };

    let mut capped = Runner::with_jobs(3);
    capped.max_cycles = Some(fast_cycles);
    let sweep = capped.sweep(&[fast, bad, slow]);

    assert_eq!(sweep.results.len(), 3, "sweep must report every key");
    assert_eq!(sweep.ok_count(), 1);
    assert_eq!(sweep.err_count(), 2);

    let (key0, healthy) = &sweep.results[0];
    assert_eq!(*key0, fast);
    let healthy = healthy.as_ref().expect("healthy run completes");
    assert_eq!(healthy.cycles, fast_cycles, "watchdog must not skew it");
    assert_eq!(healthy.truncated, None);

    let (key1, panicked) = &sweep.results[1];
    assert_eq!(*key1, bad);
    match panicked {
        Err(RunError::Panicked {
            message,
            attempts,
            retry_budget,
            backoff_ms,
        }) => {
            assert!(
                message.contains("divide"),
                "panic payload should survive: {message:?}"
            );
            assert_eq!(*attempts, 2, "1 retry = 2 attempts");
            assert_eq!(*retry_budget, 1, "the retry budget is surfaced");
            // One retry slept one deterministic backoff: the attempt-1
            // schedule is base 4 ms jittered into [2, 6) ms.
            let expected = runner::seeded_backoff_ms(&bad, 1);
            assert_eq!(*backoff_ms, expected, "backoff must be the seeded delay");
            assert!((2..6).contains(backoff_ms), "attempt-1 jitter window");
            let shown = format!("{}", panicked.as_ref().unwrap_err());
            assert!(shown.contains("panicked"), "Display: {shown}");
            assert!(shown.contains("retry budget 1"), "Display: {shown}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    let (key2, timed_out) = &sweep.results[2];
    assert_eq!(*key2, slow);
    match timed_out {
        Err(RunError::Timeout {
            truncation,
            partial,
        }) => {
            assert_eq!(*truncation, Truncation::MaxCycles);
            assert!(
                partial.mem_instructions > 0,
                "partial stats must be carried"
            );
            assert!(
                partial.cycles < slow_cycles,
                "cut run must stop before its natural end"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }

    // The cut state must not leak: a runner without the watchdog runs
    // the same slow key to completion.
    let clean = Runner::new()
        .try_run(slow.workload, slow.config, slow.scale, slow.seed)
        .expect("watchdog off: runs to completion");
    assert_eq!(clean.cycles, slow_cycles);
}

mod retry_backoff {
    use super::*;

    fn key(seed: u64) -> RunKey {
        RunKey {
            workload: WorkloadId::Bfs,
            config: SystemConfig::baseline_512(),
            scale: Scale::test(),
            seed,
        }
    }

    #[test]
    fn backoff_is_deterministic_per_key_and_attempt() {
        for attempt in 1..=8 {
            assert_eq!(
                runner::seeded_backoff_ms(&key(1), attempt),
                runner::seeded_backoff_ms(&key(1), attempt),
                "same key + attempt must produce the same delay"
            );
        }
        let first: Vec<u64> = (1..=6)
            .map(|a| runner::seeded_backoff_ms(&key(1), a))
            .collect();
        let other: Vec<u64> = (1..=6)
            .map(|a| runner::seeded_backoff_ms(&key(2), a))
            .collect();
        assert_ne!(first, other, "distinct keys must decorrelate the schedule");
    }

    #[test]
    fn backoff_is_exponential_with_bounded_jitter() {
        for attempt in 1..=12u32 {
            let base = (4u64 << (attempt - 1).min(6)).min(256);
            let d = runner::seeded_backoff_ms(&key(3), attempt);
            assert!(
                d >= base / 2 && d < base + base / 2,
                "attempt {attempt}: delay {d} outside [{}, {})",
                base / 2,
                base + base / 2
            );
        }
        // The cap: arbitrarily late attempts never sleep longer than
        // 3/2 × 256 ms.
        assert!(runner::seeded_backoff_ms(&key(3), 1_000) < 384);
    }
}

mod cli_validation {
    use gvc_bench::cli::{self, CliError};

    fn parse(args: &[&str]) -> Result<cli::CliOptions, CliError> {
        cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn expect_invalid(args: &[&str], flag: &str, needle: &str) {
        match parse(args) {
            Err(CliError::Invalid { flag: f, message }) => {
                assert_eq!(f, flag, "wrong flag blamed for {args:?}");
                assert!(
                    message.contains(needle),
                    "message for {args:?} should mention {needle:?}: {message:?}"
                );
            }
            other => panic!("{args:?} should be rejected as Invalid, got {other:?}"),
        }
    }

    #[test]
    fn jobs_zero_is_a_structured_error_not_usage() {
        expect_invalid(&["fig2", "--jobs", "0"], "--jobs", "at least 1");
        assert!(parse(&["fig2", "--jobs", "4"]).is_ok());
    }

    #[test]
    fn inject_rate_must_be_a_finite_probability() {
        expect_invalid(&["fig2", "--inject", "1.5"], "--inject", "[0, 1]");
        expect_invalid(&["fig2", "--inject", "-0.1"], "--inject", "[0, 1]");
        expect_invalid(&["fig2", "--inject", "NaN"], "--inject", "[0, 1]");
        expect_invalid(&["fig2", "--inject", "inf"], "--inject", "[0, 1]");
        expect_invalid(&["fig2", "--inject", "zzz"], "--inject", "number");
        let ok = parse(&["fig2", "--inject", "0.02"]).unwrap();
        assert_eq!(ok.inject_rate, Some(0.02));
    }

    #[test]
    fn max_cycles_zero_is_rejected_as_watchdog_disarm() {
        expect_invalid(&["fig2", "--max-cycles", "0"], "--max-cycles", "watchdog");
        assert_eq!(
            parse(&["fig2", "--max-cycles", "5000"]).unwrap().max_cycles,
            Some(5000)
        );
    }

    #[test]
    fn unknown_flags_and_targets_name_the_offender() {
        expect_invalid(&["--frobnicate"], "--frobnicate", "unknown flag");
        expect_invalid(&["fig99"], "fig99", "unknown target");
    }

    #[test]
    fn trace_subcommand_validates_design_and_workload() {
        let ok = parse(&["trace", "vc", "bfs"]).unwrap();
        let spec = ok.trace.unwrap();
        assert_eq!(spec.design, "vc");
        assert_eq!(spec.workload.name(), "bfs");
        expect_invalid(&["trace", "warp-drive", "bfs"], "trace", "unknown design");
        expect_invalid(&["trace", "vc", "no-such-wl"], "trace", "unknown workload");
        expect_invalid(&["trace", "vc"], "trace", "missing workload");
        expect_invalid(&["trace"], "trace", "trace <design> <workload>");
    }

    #[test]
    fn bench_is_an_unknown_target() {
        expect_invalid(&["bench"], "bench", "unknown target");
    }

    #[test]
    fn empty_command_line_and_help_are_usage() {
        assert!(matches!(parse(&[]), Err(CliError::Usage)));
        assert!(matches!(parse(&["--help"]), Err(CliError::Usage)));
        assert!(matches!(parse(&["fig2", "-h"]), Err(CliError::Usage)));
    }
}
