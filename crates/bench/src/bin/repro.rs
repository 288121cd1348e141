//! Regenerates the paper's tables and figures, and exports
//! cycle-attributed traces.
//!
//! ```text
//! cargo run --release -p gvc-bench --bin repro -- all
//! cargo run --release -p gvc-bench --bin repro -- fig9 --scale quick
//! cargo run --release -p gvc-bench --bin repro -- fig2 fig8 --json out/
//! cargo run --release -p gvc-bench --bin repro -- all --jobs 4
//! cargo run --release -p gvc-bench --bin repro -- fig4 --inject 0.02 --paranoid
//! cargo run --release -p gvc-bench --bin repro -- trace vc bfs --scale quick
//! ```
//!
//! Output is byte-identical for every `--jobs` value: workers only
//! warm the memo cache, and each figure assembles its output serially
//! from that cache. That also holds under `--inject`: fault injection
//! is seeded (`--seed` reaches the injectors too), so an injected run
//! is just as replayable as a clean one. `--max-cycles` arms a
//! deterministic per-run watchdog; a cut run reports partial stats.
//!
//! `trace <design> <workload>` runs one simulation with the
//! `gvc_engine::trace` sink attached and writes a Chrome/Perfetto
//! trace-event JSON plus a per-interval metrics JSON next to the
//! figure output (`--json DIR`, default `results/`). The export is
//! validated (balanced begin/end pairs, non-negative durations) and
//! deterministic for a given (design, workload, scale, seed).

use gvc_bench::cli::{self, CliError, CliOptions};
use gvc_bench::figures::*;
use gvc_bench::{signals, soak, to_json_pretty_checked, trace, Runner};
use std::fmt::Display;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro [{targets}]... \
         [trace <design> <workload>] \
         [tenants [--tenants N] [--quantum N] [--design NAME]...] \
         [soak [--epochs N] [--epoch-cycles N] [--checkpoint-every N] [--state DIR] \
         [--kill-after N] [--fault-epoch E:K[:hang]] [--retries N] [--epoch-wall-ms N]] \
         [--scale paper|quick|test] [--seed N] [--json DIR] [--jobs N] [--paranoid] \
         [--inject RATE] [--max-cycles N]\n\
         trace/tenants/soak designs: {designs}\n\
         soak exit codes: 0 done, {trunc} signal-truncated (resume by rerunning), \
         {killed} --kill-after drill",
        targets = cli::TARGETS.join("|"),
        designs = trace::DESIGN_NAMES.join("|"),
        trunc = signals::EXIT_TRUNCATED,
        killed = signals::EXIT_KILLED,
    );
    std::process::exit(2);
}

/// Renders one figure/table: checks its JSON for non-finite numbers,
/// prints the text form, and (with `--json`) writes the pretty JSON.
fn emit<T: serde::Serialize + Display>(name: &str, d: &T, json_dir: &Option<String>) {
    let json = to_json_pretty_checked(name, d);
    println!("{d}");
    println!("{}", "-".repeat(72));
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        std::fs::write(format!("{dir}/{name}.json"), json).expect("write json");
    }
}

fn run_trace(opts: &CliOptions) {
    let spec = opts.trace.as_ref().expect("trace spec");
    let mut config = trace::design_by_name(&spec.design).expect("validated design");
    if opts.paranoid {
        config = config.with_paranoid();
    }
    if let Some(rate) = opts.inject_rate {
        let ppm = (rate * 1e6).round() as u32;
        config = config.with_inject(gvc::InjectConfig::uniform(ppm, opts.seed));
    }
    let t0 = Instant::now();
    let art = trace::collect(
        config,
        spec.workload,
        opts.scale,
        opts.seed,
        opts.max_cycles,
    );
    match trace::validate_perfetto(&art.perfetto) {
        Ok(check) => eprintln!(
            "[trace {} {}: {} events, {} spans, {} tracks, {} cycles, took {:.1?}]",
            spec.design,
            spec.workload.name(),
            check.events,
            check.spans,
            check.tracks,
            art.report.cycles,
            t0.elapsed(),
        ),
        Err(e) => {
            eprintln!("repro: invalid trace export: {e}");
            std::process::exit(1);
        }
    }
    let perfetto = to_json_pretty_checked("trace", &art.perfetto);
    let metrics = to_json_pretty_checked("trace metrics", &art.metrics);
    let dir = opts.json_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir).expect("create output dir");
    let stem = format!("{dir}/trace_{}_{}", spec.design, spec.workload.name());
    std::fs::write(format!("{stem}.json"), perfetto).expect("write trace json");
    std::fs::write(format!("{stem}_metrics.json"), metrics).expect("write metrics json");
    println!("trace written to {stem}.json (+ _metrics.json)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(CliError::Usage) => usage(),
        Err(e @ CliError::Invalid { .. }) => {
            eprintln!("repro: error: {e}");
            std::process::exit(2);
        }
    };
    let mut runner = Runner::new();
    if let Some(jobs) = opts.jobs {
        runner.jobs = jobs.get();
    }
    runner.paranoid = opts.paranoid;
    runner.max_cycles = opts.max_cycles;
    runner.inject = opts.inject_rate.map(|rate| {
        let ppm = (rate * 1e6).round() as u32;
        gvc::InjectConfig::uniform(ppm, opts.seed)
    });

    let mut targets = opts.targets.clone();
    if targets.iter().any(|t| t == "all") {
        targets = cli::TARGETS
            .iter()
            .filter(|t| **t != "all")
            .map(|s| s.to_string())
            .collect();
    }

    let (r, scale, seed, json_dir) = (&runner, opts.scale, opts.seed, opts.json_dir.clone());
    for t in &targets {
        let t0 = Instant::now();
        match t.as_str() {
            "table1" => emit(t, &table1::collect(), &json_dir),
            "table2" => emit(t, &table2::collect(), &json_dir),
            "fig2" => emit(t, &fig2::collect(r, scale, seed), &json_dir),
            "fig3" => emit(t, &fig3::collect(r, scale, seed), &json_dir),
            "fig4" => emit(t, &fig4::collect(r, scale, seed), &json_dir),
            "fig5" => emit(t, &fig5::collect(r, scale, seed), &json_dir),
            "fig8" => emit(t, &fig8::collect(r, scale, seed), &json_dir),
            "fig9" => emit(t, &fig9::collect(r, scale, seed), &json_dir),
            "fig10" => emit(t, &fig10::collect(r, scale, seed), &json_dir),
            "fig11" => emit(t, &fig11::collect(r, scale, seed), &json_dir),
            "fig12" => emit(t, &fig12::collect(r, scale, seed), &json_dir),
            "ablations" => emit(t, &ablations::collect(r, scale, seed), &json_dir),
            "energy" => emit(t, &energy::collect(r, scale, seed), &json_dir),
            "reach" => emit(t, &reach::collect(r, scale, seed), &json_dir),
            _ => unreachable!("cli::parse validated targets"),
        }
        eprintln!("[{t} took {:.1?}]", t0.elapsed());
    }

    if opts.trace.is_some() {
        run_trace(&opts);
    }

    // Long-running, resumable subcommands trap SIGINT/SIGTERM and
    // shut down gracefully at the next epoch/cell boundary.
    if opts.tenants || opts.soak {
        signals::install();
    }

    if opts.tenants {
        run_tenants(&opts, runner.jobs);
    }

    if opts.soak {
        run_soak(&opts, runner.jobs);
    }
}

/// Runs the multi-tenant service sweep (`repro tenants`): emits the
/// tenants × designs curves like a figure (text + `--json
/// DIR/tenants.json`). The sweep bypasses the runner's memo cache and
/// assembles serially, so output is byte-identical for any `--jobs`.
fn run_tenants(opts: &CliOptions, jobs: usize) {
    let mut spec = tenants::TenantsSpec {
        paranoid: opts.paranoid,
        jobs,
        ..tenants::TenantsSpec::default()
    };
    if let Some(n) = opts.tenant_count {
        spec.tenant_counts = vec![n.get()];
    }
    if let Some(q) = opts.quantum {
        spec.quantum = q;
    }
    if !opts.designs.is_empty() {
        spec.designs = opts.designs.clone();
    }
    let t0 = Instant::now();
    let fig = tenants::collect(&spec, opts.scale, opts.seed);
    let truncated = fig.truncated;
    emit("tenants", &fig, &opts.json_dir);
    eprintln!("[tenants took {:.1?}]", t0.elapsed());
    if truncated {
        eprintln!("repro: tenants sweep truncated by signal; partial figure emitted");
        std::process::exit(signals::EXIT_TRUNCATED);
    }
}

/// Runs the long-horizon soak (`repro soak`): one supervised,
/// checkpointed [`gvc_gpu::SoakSim`] per design. Emits the figure
/// like the others unless the `--kill-after` crash drill stopped the
/// run, in which case the on-disk checkpoints are the output and the
/// process exits with [`signals::EXIT_KILLED`].
fn run_soak(opts: &CliOptions, jobs: usize) {
    let mut cfg = gvc_gpu::SoakConfig {
        seed: opts.seed,
        ..gvc_gpu::SoakConfig::default()
    };
    if let Some(n) = opts.tenant_count {
        cfg.tenants = n.get();
    }
    if let Some(q) = opts.quantum {
        cfg.quantum = q;
    }
    if let Some(e) = opts.soak_epochs {
        cfg.horizon_epochs = e;
    }
    if let Some(c) = opts.soak_epoch_cycles {
        cfg.epoch_cycles = c;
    }
    let spec = soak::SoakSpec {
        designs: if opts.designs.is_empty() {
            soak::DEFAULT_SOAK_DESIGNS
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            opts.designs.clone()
        },
        cfg,
        paranoid: opts.paranoid,
        inject_rate: opts.inject_rate,
        jobs,
        checkpoint_every: opts.checkpoint_every.unwrap_or(1),
        state_dir: opts.state_dir.clone(),
        retries: opts.soak_retries.unwrap_or(1),
        kill_after: opts.kill_after,
        fault: opts.fault,
        epoch_wall_ms: opts.epoch_wall_ms,
    };
    let t0 = Instant::now();
    let run = match soak::collect(&spec) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("repro: soak: {e}");
            std::process::exit(1);
        }
    };
    if run.recoveries > 0 {
        eprintln!(
            "[soak recovered {} crashed/hung epoch(s) from checkpoints]",
            run.recoveries
        );
    }
    match run.outcome {
        soak::SoakOutcome::Killed { at_epoch } => {
            eprintln!(
                "[soak crash drill: killed at epoch {at_epoch} after {:.1?}; \
                 checkpoints in {}; rerun without --kill-after to resume]",
                t0.elapsed(),
                spec.state_dir.as_deref().unwrap_or("--state"),
            );
            std::process::exit(signals::EXIT_KILLED);
        }
        soak::SoakOutcome::Truncated => {
            emit(
                "soak",
                &run.figure.expect("truncated runs carry a figure"),
                &opts.json_dir,
            );
            eprintln!(
                "[soak truncated by signal after {:.1?}; final checkpoint written, \
                 rerun to resume]",
                t0.elapsed()
            );
            std::process::exit(signals::EXIT_TRUNCATED);
        }
        soak::SoakOutcome::Completed => {
            emit(
                "soak",
                &run.figure.expect("completed runs carry a figure"),
                &opts.json_dir,
            );
            eprintln!("[soak took {:.1?}]", t0.elapsed());
        }
    }
}
