//! Simulation cells: one workload kernel on one design, built with
//! `gvc_workloads::build_thp` and run through `GpuSim::run`. The
//! `irregular` and `streaming` workloads are sets of cells; the
//! `figures` workload's traced run profiles a set of them in-process.

use crate::probe::{self, Mode, Profile};
use crate::record::{fnv1a, json_of, ratio, Book, Budget, LayerSamples, Metric, OpTimes, Traced};
use crate::replay::{self, per_op, Replays};
use crate::spans::Spans;
use crate::{host, Opts};
use gvc::SystemConfig;
use gvc_gpu::{GpuConfig, GpuSim, RunReport};
use gvc_mem::OsLite;
use gvc_workloads::{Scale, WorkloadId};
use std::time::{Duration, Instant};

/// One kernel on one design.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub kernel: WorkloadId,
    pub design: &'static str,
    pub config: SystemConfig,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}/{}", self.kernel.name(), self.design)
    }
}

/// A workload made of cells, all at one scale.
pub struct CellSet {
    pub cells: Vec<Cell>,
    pub scale: Scale,
}

/// The paper's baseline, its proposal, and 2 MB pages: the designs on
/// which translation filtering and translation reach differ most.
fn designs() -> [(&'static str, SystemConfig); 3] {
    [
        ("baseline_512", SystemConfig::baseline_512()),
        ("vc_with_opt", SystemConfig::vc_with_opt()),
        ("huge", SystemConfig::huge()),
    ]
}

fn grid(kernels: &[WorkloadId], designs: &[(&'static str, SystemConfig)]) -> Vec<Cell> {
    kernels
        .iter()
        .flat_map(|&kernel| {
            designs.iter().map(move |&(design, config)| Cell {
                kernel,
                design,
                config,
            })
        })
        .collect()
}

impl CellSet {
    /// High-translation-bandwidth graph kernels at paper scale.
    pub fn irregular(smoke: bool) -> Self {
        use WorkloadId::*;
        CellSet {
            cells: grid(&[Bfs, Bc, PagerankSpmv, Mis], &designs()),
            scale: if smoke { Scale::test() } else { Scale::paper() },
        }
    }

    /// The paper's low-bandwidth Rodinia class at paper scale.
    pub fn streaming(smoke: bool) -> Self {
        use WorkloadId::*;
        CellSet {
            cells: grid(&[Kmeans, Backprop, Hotspot, Nw, Pathfinder], &designs()),
            scale: if smoke { Scale::test() } else { Scale::paper() },
        }
    }

    /// All fifteen kernels on the baseline at the figure sweep's quick
    /// scale: the cells whose layer profile stands for `repro all`.
    pub fn figures_profile(smoke: bool) -> Self {
        CellSet {
            cells: grid(
                &WorkloadId::all(),
                &[("baseline_512", SystemConfig::baseline_512())],
            ),
            scale: if smoke { Scale::test() } else { Scale::quick() },
        }
    }
}

/// One executed cell.
struct Exec {
    start: Instant,
    build_s: f64,
    run_s: f64,
    json_s: f64,
    report: RunReport,
    profile: Option<Profile>,
    os: OsLite,
}

fn exec(cell: &Cell, scale: Scale, seed: u64, mode: Option<Mode>) -> (Exec, u64) {
    let start = Instant::now();
    let mut w =
        gvc_workloads::build_thp(cell.kernel, scale, seed, cell.config.transparent_huge_pages);
    let sim = GpuSim::new(GpuConfig::default(), cell.config);
    let built = Instant::now();
    let (report, profile) = match mode {
        None => (sim.run(&mut *w.source, &mut w.os), None),
        Some(mode) => {
            let (report, profile) = probe::run_probed(sim, &mut *w.source, &mut w.os, mode);
            (report, Some(profile))
        }
    };
    let ran = Instant::now();
    let json = json_of(&report);
    let json_s = ran.elapsed().as_secs_f64();
    let exec = Exec {
        start,
        build_s: (built - start).as_secs_f64(),
        run_s: (ran - built).as_secs_f64(),
        json_s,
        report,
        profile,
        os: w.os,
    };
    (exec, fnv1a(json.as_bytes()))
}

fn invalid(r: &RunReport) -> Option<String> {
    if let Some(t) = r.truncated {
        Some(format!("truncated by the {t:?} watchdog"))
    } else if r.faults > 0 {
        Some(format!("{} faulting accesses", r.faults))
    } else if r.line_requests == 0 {
        Some("no line requests".to_string())
    } else {
        None
    }
}

/// Runs `cell` once and books its outcome; `None` if it failed.
fn attempt(
    book: &mut Book,
    set: &CellSet,
    cell: &Cell,
    seed: u64,
    mode: Option<Mode>,
) -> Option<Exec> {
    let name = cell.name();
    match host::catch(|| exec(cell, set.scale, seed, mode)) {
        Err(why) => {
            book.fail(&name, why);
            None
        }
        Ok((e, fp)) => match invalid(&e.report) {
            Some(why) => {
                book.fail(&name, why);
                None
            }
            None => {
                book.output(&name, fp);
                Some(e)
            }
        },
    }
}

/// One cold set-up (run by `gvc-benchmark setup` in a fresh process):
/// `build_thp` of every (kernel, THP) pair the set uses, each on a
/// fresh thread so the per-thread graph memo starts empty. Returns the
/// summed build time in seconds.
pub fn setup_once(set: &CellSet, seed: u64) -> f64 {
    let mut pairs: Vec<(WorkloadId, bool)> = Vec::new();
    for c in &set.cells {
        let pair = (c.kernel, c.config.transparent_huge_pages);
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    let scale = set.scale;
    pairs
        .into_iter()
        .map(|(kernel, thp)| {
            let build = std::thread::spawn(move || {
                let t = Instant::now();
                let w = gvc_workloads::build_thp(kernel, scale, seed, thp);
                let secs = t.elapsed().as_secs_f64();
                drop(w);
                secs
            });
            build.join().expect("build_thp panicked")
        })
        .sum()
}

/// One pass of warm-up: fills the host caches and the allocator, and
/// fixes each cell's first output. Returns the profiles of a timed
/// pass.
fn warm_up(book: &mut Book, set: &CellSet, seed: u64, mode: Option<Mode>) -> Vec<Profile> {
    set.cells
        .iter()
        .filter_map(|cell| attempt(book, set, cell, seed, mode)?.profile)
        .collect()
}

/// The end-to-end run: set-up, one warm-up pass, then timed passes for
/// the budget. A cell's time covers `build_thp`, `GpuSim::new` and
/// `run`.
pub fn run(set: &CellSet, opts: &Opts, book: &mut Book) -> (Vec<Metric>, Vec<Metric>) {
    let name = book.workload().to_string();
    let setup_once = || host::setup_process(&name, opts);
    let mut setup = host::Setup::default();
    setup.take(book, opts, 2, setup_once);
    let mut detail = Vec::new();
    // The gate's self-test: calibrate on a timed warm-up pass, then
    // spin after every memory op for the given share of its time.
    let delay = match opts.inject_pct {
        Some(pct) => {
            let (ns, ops) = warm_up(book, set, opts.seed, Some(Mode::Time))
                .iter()
                .fold((0, 0), |(ns, ops), p| (ns + p.mem_ns, ops + p.mem_ops));
            let per_op = ns as f64 / ops.max(1) as f64 * pct / 100.0;
            detail.push(Metric::exact("inject.gpu_mem_ns_per_op", "ns", per_op));
            Some(Mode::Delay(Duration::from_nanos(per_op.round() as u64)))
        }
        None if opts.smoke => None,
        None => {
            warm_up(book, set, opts.seed, None);
            None
        }
    };

    let mut times = OpTimes::default();
    let mut passes = Vec::new();
    let mut requests = 0u64;
    let mut budget = Budget::new(opts.seconds, if opts.smoke { 1 } else { 3 });
    while budget.more() {
        let mut total = 0.0;
        for cell in &set.cells {
            if let Some(e) = attempt(book, set, cell, opts.seed, delay) {
                let secs = e.build_s + e.run_s;
                times.push(&cell.name(), secs);
                total += secs;
                if budget.passes == 0 {
                    requests += e.report.line_requests;
                }
            }
        }
        passes.push(total);
        budget.done(total);
        setup.take(book, opts, 1, setup_once);
    }
    let wall = times.sum_of_minima();
    detail.push(Metric::exact(
        "kreq_per_s",
        "kreq/s",
        requests as f64 / wall / 1e3,
    ));
    detail.push(Metric::exact("passes", "count", passes.len() as f64));
    let metrics = vec![
        Metric::new("wall_s", "s", wall, passes),
        Metric::exact(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mib(None).unwrap_or(0.0),
        ),
        Metric::median("setup_s", "s", setup.samples),
    ];
    (metrics, detail)
}

/// The traced run: a warm-up pass, then untraced and traced passes in
/// turn for the budget (the traced ones with the [`probe`] wrappers
/// attributing `GpuSim::run`'s time), then one pass recording each
/// cell's line stream and replaying it through the layers. Spans of
/// the first traced pass go under `parent`.
pub fn trace(
    set: &CellSet,
    opts: &Opts,
    book: &mut Book,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Traced {
    if !opts.smoke {
        warm_up(book, set, opts.seed, None);
    }
    let mut s = LayerSamples::default();
    let (mut untraced_run, mut traced_run) = (OpTimes::default(), OpTimes::default());
    let mut counters: Vec<(String, u64, u64)> = Vec::new();
    let mut first: Option<Vec<RunReport>> = None;
    let mut budget = Budget::new(opts.seconds, 1);
    while budget.more() {
        let t0 = Instant::now();
        let (mut build_s, mut run_s, mut json_s, mut n) = (0.0, 0.0, 0.0, 0.0);
        let mut requests = 0u64;
        let mut reports = Vec::new();
        for cell in &set.cells {
            let Some(e) = attempt(book, set, cell, opts.seed, None) else {
                continue;
            };
            (build_s, run_s, json_s, n) = (
                build_s + e.build_s,
                run_s + e.run_s,
                json_s + e.json_s,
                n + 1.0,
            );
            requests += e.report.line_requests;
            untraced_run.push(&cell.name(), e.run_s);
            reports.push(e.report);
        }
        s.push("sim.build_ms", "ms", ratio(build_s, n) * 1e3);
        s.push(
            "sim.run_ns_per_req",
            "ns",
            ratio(run_s * 1e9, requests as f64),
        );
        s.push("serde.json_ms", "ms", ratio(json_s, n) * 1e3);
        first.get_or_insert(reports);

        let mut p = Profile::default();
        let mut requests = 0u64;
        for cell in &set.cells {
            let Some(e) = attempt(book, set, cell, opts.seed, Some(Mode::Time)) else {
                continue;
            };
            let prof = e.profile.expect("traced runs carry a profile");
            traced_run.push(&cell.name(), prof.run_ns as f64 / 1e9);
            requests += e.report.line_requests;
            if budget.passes == 0 {
                let end = e.start + Duration::from_secs_f64(e.build_s + e.run_s);
                let id = spans.push(&cell.name(), parent, e.start, end);
                let built = e.start + Duration::from_secs_f64(e.build_s);
                spans.push("build", Some(id), e.start, built);
                let run = spans.push("run", Some(id), built, end);
                let run_us = spans.us(built);
                for (name, a, b) in &prof.spans {
                    spans.push_us(
                        name,
                        Some(run),
                        run_us + *a as f64 / 1e3,
                        (*b - *a) as f64 / 1e3,
                    );
                }
                for (name, gaps, ns) in &prof.kernels {
                    counters.push((format!("{}/{name}", cell.name()), *gaps, *ns));
                }
            }
            p.run_ns += prof.run_ns;
            p.start_ns += prof.start_ns;
            p.kernel_ns += prof.kernel_ns;
            p.gen_ns += prof.gen_ns;
            p.gen_calls += prof.gen_calls;
            p.mem_ns += prof.mem_ns;
            p.mem_ops += prof.mem_ops;
            p.sched_ns += prof.sched_ns;
            p.sched_ops += prof.sched_ops;
            p.finish_ns += prof.finish_ns;
        }
        let run = p.run_ns as f64;
        let share = |ns: u64| ratio(ns as f64, run);
        s.push(
            "gpu.mem_ns_per_req",
            "ns",
            ratio(p.mem_ns as f64, requests as f64),
        );
        s.push("gpu.mem_share", "fraction", share(p.mem_ns));
        s.push(
            "gpu.sched_ns_per_op",
            "ns",
            ratio(p.sched_ns as f64, p.sched_ops as f64),
        );
        s.push("gpu.sched_share", "fraction", share(p.sched_ns));
        s.push("gpu.finish_ms", "ms", p.finish_ns as f64 / 1e6);
        s.push("gpu.start_share", "fraction", share(p.start_ns));
        s.push("workloads.kernel_ms", "ms", p.kernel_ns as f64 / 1e6);
        s.push(
            "workloads.gen_ns_per_op",
            "ns",
            ratio(p.gen_ns as f64, p.gen_calls as f64),
        );
        s.push("workloads.share", "fraction", share(p.kernel_ns + p.gen_ns));
        let covered = p.kernel_ns + p.gen_ns + p.mem_ns + p.sched_ns + p.finish_ns;
        s.push("gpu.covered_share", "fraction", share(covered));
        budget.done(t0.elapsed().as_secs_f64());
    }

    let mut total = Replays::default();
    let mut by_design: Vec<(&str, Replays)> = Vec::new();
    for cell in &set.cells {
        let Some(e) = attempt(book, set, cell, opts.seed, Some(Mode::Record)) else {
            continue;
        };
        let stream = e.profile.expect("recording runs carry a profile").stream;
        let r = replay::replay(&stream, cell.config, &e.os);
        total.add(&r);
        match by_design.iter_mut().find(|(d, _)| *d == cell.design) {
            Some((_, acc)) => acc.add(&r),
            None => by_design.push((cell.design, r)),
        }
    }

    let reports = first.unwrap_or_default();
    let count = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let metrics = vec![
        s.take("sim.build_ms"),
        s.take("sim.run_ns_per_req"),
        s.take("gpu.mem_ns_per_req"),
        Metric::exact("core.access_ns", "ns", per_op(total.core)),
        Metric::exact("tlb.per_cu_ns", "ns", per_op(total.tlb)),
        Metric::exact("tlb.iommu_ns", "ns", per_op(total.iommu)),
        Metric::exact("cache.l1_ns", "ns", per_op(total.l1)),
        Metric::exact("cache.l2_ns", "ns", per_op(total.l2)),
        s.take("serde.json_ms"),
        Metric::exact("sim.line_requests", "count", count(|r| r.line_requests)),
        Metric::exact("sim.cycles", "count", count(|r| r.cycles)),
    ];
    let overhead = ratio(traced_run.sum_of_minima(), untraced_run.sum_of_minima()) - 1.0;
    let mut detail = s.rest();
    detail.push(Metric::exact("trace.overhead_pct", "%", overhead * 100.0));
    for (design, r) in &by_design {
        detail.push(Metric::exact(
            &format!("core.access_ns.{design}"),
            "ns",
            per_op(r.core),
        ));
    }
    detail.extend([
        Metric::exact(
            "sim.per_cu_tlb_misses",
            "count",
            count(|r| r.mem.per_cu_tlb.misses.get()),
        ),
        Metric::exact(
            "sim.iommu_requests",
            "count",
            count(|r| r.mem.iommu.requests.get()),
        ),
        Metric::exact("sim.walks", "count", count(|r| r.mem.iommu.walks.get())),
        Metric::exact("sim.l2_misses", "count", count(|r| r.mem.l2.misses.get())),
        Metric::exact(
            "sim.l2_evictions",
            "count",
            count(|r| r.mem.l2.evictions.get()),
        ),
        Metric::exact("sim.dram_reads", "count", count(|r| r.mem.dram_reads)),
        Metric::exact(
            "sim.fbt_lookups",
            "count",
            count(|r| {
                r.mem
                    .fbt
                    .map_or(0, |f| f.bt_lookups.get() + f.ft_lookups.get())
            }),
        ),
    ]);
    (metrics, detail, counters)
}
