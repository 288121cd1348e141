//! The `service` workload: a 16-tenant `vc` soak that writes a
//! checkpoint after every epoch (the `repro soak` default cadence),
//! restores from its final checkpoint, and then the default tenants
//! sweep. This is the write and invalidate side of the memory system:
//! tenant churn, shootdowns, ASID recycling and stores, plus
//! checkpoint serialization. It never builds a workload or touches the
//! `GpuSim` front end.

use crate::probe::LineRec;
use crate::record::{fnv1a, json_of, ratio, Book, Budget, LayerSamples, Metric, OpTimes, Traced};
use crate::replay::{self, per_op};
use crate::spans::Spans;
use crate::{host, stats, Opts};
use gvc::SystemConfig;
use gvc_bench::figures::tenants::{self, TenantsSpec};
use gvc_bench::soak::{checkpoint_path, load_checkpoint, save_checkpoint};
use gvc_engine::SimRng;
use gvc_gpu::{SoakConfig, SoakSim};
use gvc_mem::{OsLite, Perms, LINE_BYTES, PAGE_BYTES};
use gvc_workloads::Scale;
use serde::Serialize;
use std::time::Instant;

/// The size of one pass.
struct Shape {
    soak: SoakConfig,
    restores: usize,
    sweep: TenantsSpec,
    scale: Scale,
}

fn shape(opts: &Opts) -> Shape {
    if opts.smoke {
        Shape {
            soak: SoakConfig {
                tenants: 4,
                epoch_cycles: 20_000,
                horizon_epochs: 3,
                seed: opts.seed,
                ..SoakConfig::default()
            },
            restores: 1,
            sweep: TenantsSpec {
                tenant_counts: vec![2, 4],
                designs: vec!["baseline-512".into(), "vc".into()],
                ..TenantsSpec::default()
            },
            scale: Scale::test(),
        }
    } else {
        // 50 epochs of 100k cycles: long enough for the caches, and so
        // the checkpoint, to fill; short enough for several passes a
        // run.
        Shape {
            soak: SoakConfig {
                tenants: 16,
                epoch_cycles: 100_000,
                horizon_epochs: 50,
                seed: opts.seed,
                ..SoakConfig::default()
            },
            restores: 5,
            sweep: TenantsSpec::default(),
            scale: Scale::paper(),
        }
    }
}

fn design() -> SystemConfig {
    SystemConfig::vc_with_opt()
}

/// One epoch's calls, each timed on its own (seconds).
struct EpochCalls {
    start: Instant,
    run: f64,
    snapshot: f64,
    to_value: f64,
    text: f64,
    save: f64,
    accesses: u64,
}

/// One restore's calls: `load_checkpoint`, then `SoakSim::new` +
/// `restore` (seconds).
struct RestoreCalls {
    start: Instant,
    load: f64,
    restore: f64,
}

/// Every call one pass makes, for the traced run.
#[derive(Default)]
struct Calls {
    new_s: f64,
    epochs: Vec<EpochCalls>,
    restores: Vec<RestoreCalls>,
    sweep: Option<(Instant, f64)>,
    ckpt_bytes: u64,
    accesses: u64,
    cycles: u64,
}

/// One pass: soak with a checkpoint per epoch, restores, sweep. Each
/// operation's time goes into `times`; with `calls`, the pass also
/// times every call on its own (which re-serializes each checkpoint,
/// so only the traced run does it).
fn pass(
    shape: &Shape,
    opts: &Opts,
    book: &mut Book,
    times: &mut OpTimes,
    mut calls: Option<&mut Calls>,
) -> f64 {
    let scratch = host::Scratch::new("service");
    let path = checkpoint_path(&scratch.0.to_string_lossy(), "vc");
    let mut total = 0.0;

    let t = Instant::now();
    let mut sim = SoakSim::new(&shape.soak, design());
    if let Some(c) = calls.as_deref_mut() {
        c.new_s = t.elapsed().as_secs_f64();
    }
    let mut accesses = 0u64;
    for e in 0..shape.soak.horizon_epochs {
        let op = format!("epoch{e:03}");
        let t0 = Instant::now();
        let step = host::catch(|| {
            sim.run_epoch();
            let t1 = Instant::now();
            let ckpt = sim.snapshot();
            let t2 = Instant::now();
            save_checkpoint(&path, &ckpt).map(|()| (t1, t2, ckpt))
        });
        let secs = t0.elapsed().as_secs_f64();
        match step {
            Ok(Ok((t1, t2, ckpt))) => {
                book.ok();
                times.push(&op, secs);
                total += secs;
                if let Some(c) = calls.as_deref_mut() {
                    let t3 = Instant::now();
                    let value = ckpt.to_value();
                    let t4 = Instant::now();
                    let text = serde_json::to_string_pretty(&value).expect("in-memory JSON");
                    let t5 = Instant::now();
                    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
                    c.epochs.push(EpochCalls {
                        start: t0,
                        run: s(t0, t1),
                        snapshot: s(t1, t2),
                        to_value: s(t3, t4),
                        text: s(t4, t5),
                        save: secs - s(t0, t2),
                        accesses: ckpt.total_accesses - accesses,
                    });
                    accesses = ckpt.total_accesses;
                    c.ckpt_bytes = text.len() as u64;
                }
            }
            Ok(Err(why)) | Err(why) => {
                book.fail(&op, why);
                return total;
            }
        }
    }
    match host::catch(|| {
        let report = sim.finish();
        report.check_conservation();
        report
    }) {
        Ok(report) => {
            if let Some(c) = calls.as_deref_mut() {
                c.accesses = report.accesses;
                c.cycles = report.cycles;
            }
            book.output("soak_report", fnv1a(json_of(&report).as_bytes()));
        }
        Err(why) => book.fail("soak_report", why),
    }

    let saved = std::fs::read(&path).map(|b| fnv1a(&b)).unwrap_or(0);
    for r in 0..shape.restores {
        let op = format!("restore{r}");
        let t0 = Instant::now();
        let step = host::catch(|| {
            let ckpt = load_checkpoint(&path)?.ok_or_else(|| format!("{path}: missing"))?;
            let t1 = Instant::now();
            let mut restored = SoakSim::new(&shape.soak, design());
            restored.restore(&ckpt);
            Ok::<_, String>((t1, restored))
        });
        let secs = t0.elapsed().as_secs_f64();
        match step {
            Ok(Ok((t1, restored))) => {
                times.push(&op, secs);
                total += secs;
                // A restore is right when the restored state snapshots
                // back to the very bytes that were saved.
                let back = fnv1a(json_of(&restored.snapshot()).as_bytes());
                if back == saved {
                    book.output("restore", back);
                } else {
                    book.fail(
                        &op,
                        "the restored state does not snapshot back to the saved checkpoint",
                    );
                }
                if let Some(c) = calls.as_deref_mut() {
                    let load = (t1 - t0).as_secs_f64();
                    c.restores.push(RestoreCalls {
                        start: t0,
                        load,
                        restore: secs - load,
                    });
                }
            }
            Ok(Err(why)) | Err(why) => book.fail(&op, why),
        }
    }

    let t0 = Instant::now();
    match host::catch(|| tenants::collect(&shape.sweep, shape.scale, opts.seed)) {
        Ok(fig) => {
            let secs = t0.elapsed().as_secs_f64();
            times.push("sweep", secs);
            total += secs;
            if let Some(c) = calls {
                c.sweep = Some((t0, secs));
            }
            if fig.truncated || fig.cells.iter().any(|c| c.faults > 0) {
                book.fail("tenants", "the sweep was cut short or faulted");
            } else {
                book.output("tenants", fnv1a(json_of(&fig).as_bytes()));
            }
        }
        Err(why) => book.fail("tenants", why),
    }
    total
}

/// One cold set-up (run by `gvc-benchmark setup` in a fresh process):
/// `SoakSim::new`, which builds every tenant's address space and the
/// memory system. Returns seconds.
pub fn setup_once(opts: &Opts) -> f64 {
    let shape = shape(opts);
    let t = Instant::now();
    let sim = SoakSim::new(&shape.soak, design());
    let secs = t.elapsed().as_secs_f64();
    drop(sim);
    secs
}

pub fn run(opts: &Opts, book: &mut Book) -> (Vec<Metric>, Vec<Metric>) {
    let shape = shape(opts);
    let setup_once = || host::setup_process("service", opts);
    let mut setup = host::Setup::default();
    setup.take(book, opts, 3, setup_once);
    if !opts.smoke {
        pass(&shape, opts, book, &mut OpTimes::default(), None);
    }
    let mut times = OpTimes::default();
    let mut passes = Vec::new();
    let mut budget = Budget::new(opts.seconds, if opts.smoke { 1 } else { 3 });
    while budget.more() {
        let secs = pass(&shape, opts, book, &mut times, None);
        passes.push(secs);
        budget.done(secs);
        setup.take(book, opts, 3, setup_once);
    }
    let epoch_ms: Vec<f64> = times.pooled("epoch").iter().map(|s| s * 1e3).collect();
    let restore_ms: Vec<f64> = times.pooled("restore").iter().map(|s| s * 1e3).collect();
    let metrics = vec![
        Metric::new("wall_s", "s", times.sum_of_minima(), passes),
        Metric::exact(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mib(None).unwrap_or(0.0),
        ),
        Metric::median("setup_s", "s", setup.samples),
    ];
    let detail = vec![
        Metric::median("epoch_ms", "ms", epoch_ms),
        Metric::median("restore_ms", "ms", restore_ms),
        Metric::median("sweep_s", "s", times.pooled("sweep")),
    ];
    (metrics, detail)
}

/// A line stream drawn the way the soak draws its own (a uniformly
/// random line of the active tenant's working set, a random CU, the
/// soak's write share), with tenants taking turns in runs of 64
/// accesses, over a fresh OS holding the same tenant address spaces.
/// The soak does not expose its stream, so the replays use this one.
fn soak_like_stream(cfg: &SoakConfig, n: usize) -> (OsLite, Vec<LineRec>) {
    let frames = cfg.tenants as u64 * (cfg.pages_per_tenant + 16) * 4 + 4096;
    let mut os = OsLite::new(frames * PAGE_BYTES);
    let regions: Vec<_> = (0..cfg.tenants)
        .map(|_| {
            let pid = os.create_process();
            let region = os
                .mmap(pid, cfg.pages_per_tenant * PAGE_BYTES, Perms::READ_WRITE)
                .expect("physical memory sized for every tenant");
            (pid.asid(), region)
        })
        .collect();
    let mut rng = SimRng::seeded(cfg.seed);
    let n_cus = design().n_cus as u64;
    let stream = (0..n)
        .map(|i| {
            let (asid, region) = regions[(i / 64) % regions.len()];
            let line = rng.below(region.bytes() / LINE_BYTES);
            LineRec {
                wave: rng.below(n_cus) as u32,
                asid,
                line: region.addr_at(line * LINE_BYTES),
                write: rng.chance(cfg.write_fraction),
            }
        })
        .collect();
    (os, stream)
}

pub fn trace(opts: &Opts, book: &mut Book, spans: &mut Spans) -> Traced {
    let shape = shape(opts);
    let mut s = LayerSamples::default();
    let mut epoch_ms = Vec::new();
    let (mut accesses, mut cycles, mut ckpt_mb) = (0u64, 0u64, 0.0);
    let mut budget = Budget::new(opts.seconds, 1);
    while budget.more() {
        let t0 = Instant::now();
        let mut c = Calls::default();
        pass(&shape, opts, book, &mut OpTimes::default(), Some(&mut c));
        let epoch = |f: fn(&EpochCalls) -> f64| {
            stats::median(&c.epochs.iter().map(f).collect::<Vec<_>>()) * 1e3
        };
        let restore = |f: fn(&RestoreCalls) -> f64| {
            stats::median(&c.restores.iter().map(f).collect::<Vec<_>>()) * 1e3
        };
        let run_s: f64 = c.epochs.iter().map(|e| e.run).sum();
        let epoch_accesses: u64 = c.epochs.iter().map(|e| e.accesses).sum();
        let per_req = ratio(run_s * 1e9, epoch_accesses as f64);
        s.push("sim.build_ms", "ms", c.new_s * 1e3);
        s.push("sim.run_ns_per_req", "ns", per_req);
        s.push("gpu.mem_ns_per_req", "ns", per_req);
        s.push("serde.json_ms", "ms", epoch(|e| e.to_value + e.text));
        s.push("gpu.soak_epoch_ms", "ms", epoch(|e| e.run));
        s.push("gpu.snapshot_ms", "ms", epoch(|e| e.snapshot));
        s.push("serde.to_value_ms", "ms", epoch(|e| e.to_value));
        s.push("serde.json_text_ms", "ms", epoch(|e| e.text));
        s.push("bench.save_ms", "ms", epoch(|e| e.save));
        s.push("bench.load_ms", "ms", restore(|r| r.load));
        s.push("gpu.restore_ms", "ms", restore(|r| r.restore));
        let sweep_s = c.sweep.map_or(0.0, |(_, secs)| secs);
        s.push("gpu.service_ms", "ms", sweep_s * 1e3);
        epoch_ms.extend(c.epochs.iter().map(|e| (e.run + e.snapshot + e.save) * 1e3));
        (accesses, cycles, ckpt_mb) =
            (c.accesses, c.cycles, c.ckpt_bytes as f64 / (1 << 20) as f64);
        if budget.passes == 0 {
            for (i, e) in c.epochs.iter().enumerate() {
                let mut at = spans.us(e.start);
                let total = (e.run + e.snapshot + e.save) * 1e6;
                let id = spans.push_us(&format!("epoch{i:03}"), None, at, total);
                for (name, secs) in [
                    ("run_epoch", e.run),
                    ("snapshot", e.snapshot),
                    ("save", e.save),
                ] {
                    spans.push_us(name, Some(id), at, secs * 1e6);
                    at += secs * 1e6;
                }
            }
            for (i, r) in c.restores.iter().enumerate() {
                let at = spans.us(r.start);
                let id =
                    spans.push_us(&format!("restore{i}"), None, at, (r.load + r.restore) * 1e6);
                spans.push_us("load", Some(id), at, r.load * 1e6);
                spans.push_us("restore", Some(id), at + r.load * 1e6, r.restore * 1e6);
            }
            if let Some((start, secs)) = c.sweep {
                spans.push_us("sweep", None, spans.us(start), secs * 1e6);
            }
        }
        budget.done(t0.elapsed().as_secs_f64());
    }

    let n = if opts.smoke { 1 << 14 } else { 1 << 18 };
    let (os, stream) = soak_like_stream(&shape.soak, n);
    let r = replay::replay(&stream, design(), &os);
    let metrics = vec![
        s.take("sim.build_ms"),
        s.take("sim.run_ns_per_req"),
        s.take("gpu.mem_ns_per_req"),
        Metric::exact("core.access_ns", "ns", per_op(r.core)),
        Metric::exact("tlb.per_cu_ns", "ns", per_op(r.tlb)),
        Metric::exact("tlb.iommu_ns", "ns", per_op(r.iommu)),
        Metric::exact("cache.l1_ns", "ns", per_op(r.l1)),
        Metric::exact("cache.l2_ns", "ns", per_op(r.l2)),
        s.take("serde.json_ms"),
        Metric::exact("sim.line_requests", "count", accesses as f64),
        Metric::exact("sim.cycles", "count", cycles as f64),
    ];
    let mut detail = s.rest();
    // run_epoch + snapshot + save: the table shows its tail percentile.
    detail.push(Metric::median("epoch_ms", "ms", epoch_ms));
    detail.push(Metric::exact("ckpt.mb", "MiB", ckpt_mb));
    (metrics, detail, Vec::new())
}
