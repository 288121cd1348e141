//! Long-horizon soak supervisor (`repro soak`): drives one
//! [`SoakSim`] per design for billions of simulated cycles, writing
//! versioned checkpoints at a configurable epoch cadence and
//! recovering from crashed or hung epochs by restoring the last good
//! checkpoint.
//!
//! The recovery contract, enforced by `tests/tests/soak.rs` and the CI
//! smoke: a run that is killed (crash drill via `--kill-after`, a real
//! signal, or an injected `--fault-epoch` panic) and then resumed from
//! its on-disk checkpoint produces a final report **byte-identical**
//! to an uninterrupted run — at any checkpoint cadence and for any
//! `--jobs` value. That works because every epoch is a pure function
//! of the checkpoint before it: the simulation spills its streaming
//! stats at *every* epoch boundary regardless of cadence, so the
//! accumulation order never depends on where the run was cut.
//!
//! Supervision model (per design cell):
//!
//! 1. Load `soak_<design>.ckpt.json` from `--state DIR` if present
//!    (schema version and config validated), else start at cycle 0.
//!    Every design's checkpoint is loaded and checked before any cell
//!    runs, so one bad file stops the run before it costs another
//!    design its progress.
//! 2. Run one epoch inside `catch_unwind`, under an optional per-epoch
//!    wall-clock watchdog (`--epoch-wall-ms`).
//! 3. On a panic or a watchdog overrun: restore the last good
//!    checkpoint into a freshly built simulation and retry after a
//!    deterministic seeded backoff, up to `--retries` attempts per
//!    epoch. Backoff telemetry goes to stderr only — never into the
//!    report, which must stay byte-identical to a fault-free run.
//! 4. On success: snapshot (the new recovery point) and persist it at
//!    the `--checkpoint-every` cadence.
//! 5. Poll the [`crate::signals`] latch at every boundary: a
//!    SIGINT/SIGTERM writes a final checkpoint plus a partial report
//!    flagged `truncated`.
//! 6. A cell that reaches its horizon keeps its checkpoint until the
//!    caller has written the report and calls
//!    [`SoakRun::remove_finished_checkpoints`].
//!
//! Cells are computed on the same worker pool as the figures and the
//! tenants sweep ([`par_map_ordered`]) and assembled in design order.

use crate::runner::{panic_message, par_map_ordered, seeded_backoff_ms};
use crate::signals;
use gvc::SystemConfig;
use gvc_gpu::{SoakCheckpoint, SoakConfig, SoakReport, SoakSim, SOAK_CHECKPOINT_VERSION};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Default designs for the soak: the paper's baseline and the full
/// virtual-cache point, the two ends of the translation-bandwidth
/// spectrum.
pub const DEFAULT_SOAK_DESIGNS: [&str; 2] = ["baseline-512", "vc"];

/// A deliberate fault for crash-recovery drills
/// (`--fault-epoch E:K[:hang]`): the `E`-th epoch (1-based) fails its
/// first `K` attempts — by panicking, or by overrunning the wall
/// watchdog when `hang` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which epoch to sabotage (1-based: `1` is the first epoch run).
    pub epoch: u64,
    /// How many attempts of that epoch to kill.
    pub kills: u32,
    /// Hang (sleep past the wall budget) instead of panicking.
    pub hang: bool,
}

impl FaultSpec {
    /// Parses `E:K` or `E:K:hang`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("expected EPOCH:KILLS[:hang], got {s:?}"));
        }
        let epoch: u64 = parts[0]
            .parse()
            .map_err(|_| format!("epoch must be an unsigned integer, got {:?}", parts[0]))?;
        if epoch == 0 {
            return Err("epoch is 1-based; there is no epoch 0 to sabotage".into());
        }
        let kills: u32 = parts[1]
            .parse()
            .map_err(|_| format!("kill count must be an unsigned integer, got {:?}", parts[1]))?;
        if kills == 0 {
            return Err("a zero kill count injects nothing (omit the flag)".into());
        }
        let hang = match parts.get(2) {
            None => false,
            Some(&"hang") => true,
            Some(other) => {
                return Err(format!("expected `hang` as the third field, got {other:?}"))
            }
        };
        Ok(FaultSpec { epoch, kills, hang })
    }
}

/// What to soak (CLI-shaped).
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Design names, one cell each (validated by the CLI).
    pub designs: Vec<String>,
    /// The per-cell simulation shape (tenants, epoch length, horizon,
    /// seed, ...).
    pub cfg: SoakConfig,
    /// Run under the paranoid invariant checker (swept at every epoch
    /// boundary regardless; this also arms the per-access checks).
    pub paranoid: bool,
    /// TLB-miss fault-injection rate in [0, 1] (`--inject`).
    pub inject_rate: Option<f64>,
    /// Worker count for the cell pool.
    pub jobs: usize,
    /// Persist a checkpoint every this many epochs (`>= 1`).
    pub checkpoint_every: u64,
    /// Checkpoint directory; `None` keeps recovery points in memory
    /// only (no resume across processes).
    pub state_dir: Option<String>,
    /// Per-epoch retry budget for crash recovery.
    pub retries: u32,
    /// Crash drill: checkpoint and stop after this many epochs with
    /// [`signals::EXIT_KILLED`]; requires `state_dir`.
    pub kill_after: Option<u64>,
    /// Deliberate fault injection for recovery drills.
    pub fault: Option<FaultSpec>,
    /// Per-epoch wall-clock budget in ms; an overrunning epoch is
    /// treated as hung, discarded, and retried from the last
    /// checkpoint. (In-process supervision detects the overrun when
    /// the epoch returns; it cannot preempt a truly wedged one.)
    pub epoch_wall_ms: Option<u64>,
}

impl Default for SoakSpec {
    fn default() -> Self {
        SoakSpec {
            designs: DEFAULT_SOAK_DESIGNS.iter().map(|s| s.to_string()).collect(),
            cfg: SoakConfig::default(),
            paranoid: false,
            inject_rate: None,
            jobs: 1,
            checkpoint_every: 1,
            state_dir: None,
            retries: 1,
            kill_after: None,
            fault: None,
            epoch_wall_ms: None,
        }
    }
}

/// How the soak ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakOutcome {
    /// Every cell reached its horizon.
    Completed,
    /// A shutdown signal arrived; the figure is a truncated partial.
    Truncated,
    /// The `--kill-after` crash drill stopped the run; no figure, the
    /// checkpoints on disk are the output.
    Killed {
        /// The epoch the drill stopped at.
        at_epoch: u64,
    },
}

/// The figure: one [`SoakReport`] per design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Soak {
    /// Master seed.
    pub seed: u64,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// Requested horizon in epochs.
    pub horizon_epochs: u64,
    /// Set when a signal cut the run short (partial cells).
    pub truncated: bool,
    /// One report per design, in request order.
    pub cells: Vec<SoakReport>,
}

/// Result of a whole soak invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRun {
    /// The figure; `None` for a `--kill-after` crash drill (the
    /// checkpoints are the output).
    pub figure: Option<Soak>,
    /// How the run ended.
    pub outcome: SoakOutcome,
    /// Epochs re-run after a crash or hang across all cells (recovery
    /// telemetry; never part of the figure).
    pub recoveries: u32,
    /// Checkpoints of the cells that reached their horizon, left on disk
    /// until the report is written.
    pub finished: Vec<String>,
}

impl SoakRun {
    /// Deletes the finished cells' checkpoints. Call it once the report
    /// is written: a finished cell must not leave a resume point, or a
    /// later fresh run would silently skip to the horizon, but until the
    /// report exists that checkpoint is the cell's only record.
    pub fn remove_finished_checkpoints(&self) -> Result<(), String> {
        for path in &self.finished {
            match std::fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{path}: {e}"))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The checkpoint file for one design cell.
pub fn checkpoint_path(state_dir: &str, design: &str) -> String {
    format!("{state_dir}/soak_{design}.ckpt.json")
}

/// Writes a checkpoint atomically (tmp + rename), streaming the text
/// so a soak that checkpoints every epoch never holds a whole
/// checkpoint's text. A non-finite number in the state panics, naming
/// its path, and leaves neither the checkpoint nor its `.tmp` file.
pub fn save_checkpoint(path: &str, ckpt: &SoakCheckpoint) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    crate::write_json_pretty_checked("soak checkpoint", ckpt, &tmp)?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))
}

/// Loads a checkpoint if the file exists, validating the schema
/// version *before* decoding the rest (a future-versioned file must be
/// rejected with its version named, not a field soup). The text is
/// decoded straight into the checkpoint, with no tree in between.
pub fn load_checkpoint(path: &str) -> Result<Option<SoakCheckpoint>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    // The version is the first key; read it alone before the rest.
    let mut head = serde::JsonReader::new(&text);
    match head.open_map().and_then(|()| head.field::<u64>("version")) {
        Err(_) => return Err(format!("{path}: not a soak checkpoint (no version field)")),
        Ok(v) if v != u64::from(SOAK_CHECKPOINT_VERSION) => {
            return Err(format!(
                "{path}: checkpoint schema version {v} (this binary writes \
                 {SOAK_CHECKPOINT_VERSION}); refusing to guess"
            ))
        }
        Ok(_) => {}
    }
    let ckpt =
        serde_json::from_str(&text).map_err(|e| format!("{path}: malformed checkpoint: {e}"))?;
    Ok(Some(ckpt))
}

/// Builds the memory-system config for one cell.
fn sys_for(spec: &SoakSpec, design: &str) -> SystemConfig {
    let mut sys = crate::trace::design_by_name(design)
        .unwrap_or_else(|| panic!("unknown design {design:?} (validated at the CLI)"));
    if spec.paranoid {
        sys = sys.with_paranoid();
    }
    if let Some(rate) = spec.inject_rate {
        let ppm = (rate * 1e6).round() as u32;
        sys = sys.with_inject(gvc::InjectConfig::uniform(ppm, spec.cfg.seed));
    }
    sys
}

/// Loads `design`'s checkpoint from the state directory, if there is
/// one, and checks that it was taken with this run's configuration.
fn load_resume_point(spec: &SoakSpec, design: &str) -> Result<Option<SoakCheckpoint>, String> {
    let Some(dir) = &spec.state_dir else {
        return Ok(None);
    };
    let path = checkpoint_path(dir, design);
    let ckpt = load_checkpoint(&path)?;
    if ckpt.as_ref().is_some_and(|c| c.cfg != spec.cfg) {
        return Err(format!(
            "{path}: checkpoint was taken with a different soak configuration; \
             resume with the original flags or remove the state file"
        ));
    }
    Ok(ckpt)
}

/// One cell's supervision outcome.
struct CellResult {
    /// `None` when the crash drill stopped the cell before its horizon.
    report: Option<SoakReport>,
    recoveries: u32,
    killed_at: Option<u64>,
    truncated: bool,
}

/// Supervises one design cell (see [module docs](self)).
fn run_cell(spec: &SoakSpec, design: &str) -> Result<CellResult, String> {
    let cfg = spec.cfg;
    let path = spec
        .state_dir
        .as_deref()
        .map(|dir| checkpoint_path(dir, design));
    let mut sim = SoakSim::new(&cfg, sys_for(spec, design));
    let mut last: SoakCheckpoint = match load_resume_point(spec, design)? {
        Some(ckpt) => {
            eprintln!(
                "soak[{design}]: resuming from epoch-{} checkpoint",
                ckpt.epoch
            );
            sim.restore(&ckpt);
            ckpt
        }
        // The epoch-0 snapshot: recovery of a first-epoch crash
        // restarts from cycle 0, like any other epoch.
        None => sim.snapshot(),
    };

    let mut recoveries = 0u32;
    let mut fault_kills_left = spec.fault.map_or(0, |f| f.kills);
    loop {
        if sim.done() {
            // The horizon checkpoint stays until the report is written
            // (`SoakRun::remove_finished_checkpoints`).
            return Ok(CellResult {
                report: Some(sim.finish()),
                recoveries,
                killed_at: None,
                truncated: false,
            });
        }
        if signals::triggered() {
            let ckpt = sim.snapshot();
            if let Some(p) = &path {
                save_checkpoint(p, &ckpt)?;
            }
            return Ok(CellResult {
                report: Some(sim.finish_truncated()),
                recoveries,
                killed_at: None,
                truncated: true,
            });
        }
        if let Some(k) = spec.kill_after {
            if sim.epoch() >= k {
                let ckpt = sim.snapshot();
                let p = path
                    .as_ref()
                    .expect("validated: --kill-after requires --state");
                save_checkpoint(p, &ckpt)?;
                return Ok(CellResult {
                    report: None,
                    recoveries,
                    killed_at: Some(sim.epoch()),
                    truncated: false,
                });
            }
        }

        let next = sim.epoch() + 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let injected = match spec.fault {
                Some(f) if f.epoch == next && fault_kills_left > 0 => {
                    fault_kills_left -= 1;
                    Some(f.hang)
                }
                _ => None,
            };
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                match injected {
                    Some(true) => {
                        // Simulate a wedged epoch: return long after
                        // the wall budget so the watchdog fires.
                        let budget = spec
                            .epoch_wall_ms
                            .expect("validated: hang faults need --epoch-wall-ms");
                        std::thread::sleep(Duration::from_millis(budget + 50));
                    }
                    Some(false) => panic!("injected soak fault: epoch {next} (crash drill)"),
                    None => {}
                }
                sim.run_epoch();
            }));
            let hung = spec
                .epoch_wall_ms
                .is_some_and(|ms| t0.elapsed().as_millis() as u64 > ms);
            match outcome {
                Ok(()) if !hung => break,
                bad => {
                    let why = match &bad {
                        Ok(()) => "wall watchdog: epoch overran its budget".to_string(),
                        Err(p) => format!("epoch panicked: {}", panic_message(p.as_ref())),
                    };
                    if attempt > spec.retries {
                        return Err(format!(
                            "soak[{design}]: epoch {next} failed after {attempt} attempt(s) \
                             (retry budget {}): {why}",
                            spec.retries
                        ));
                    }
                    // Seeded by (design, seed, epoch) so every cell and
                    // epoch gets its own replayable schedule.
                    let delay = seeded_backoff_ms(&(design, cfg.seed, next), attempt);
                    eprintln!(
                        "soak[{design}]: epoch {next} attempt {attempt} failed ({why}); \
                         restoring epoch-{} checkpoint, retrying in {delay} ms",
                        last.epoch
                    );
                    std::thread::sleep(Duration::from_millis(delay));
                    // The panicked simulation may be mid-epoch and is
                    // unusable; rebuild from scratch and restore.
                    sim = SoakSim::new(&cfg, sys_for(spec, design));
                    sim.restore(&last);
                    recoveries += 1;
                }
            }
        }

        // The epoch closed cleanly: advance the in-memory recovery
        // point, and persist it at the cadence (and at the horizon, so
        // a crash inside `finish` or before the report is written
        // still resumes).
        last = sim.snapshot();
        if let Some(p) = &path {
            if next.is_multiple_of(spec.checkpoint_every) || sim.done() {
                save_checkpoint(p, &last)?;
            }
        }
    }
}

/// Runs the soak: one supervised cell per design, computed on
/// [`par_map_ordered`] and assembled in design order (byte-identical
/// for any `jobs`).
pub fn collect(spec: &SoakSpec) -> Result<SoakRun, String> {
    if spec.checkpoint_every == 0 {
        return Err("checkpoint cadence must be at least 1 epoch".into());
    }
    if spec.kill_after.is_some() && spec.state_dir.is_none() {
        return Err("--kill-after requires --state DIR (resume needs a checkpoint on disk)".into());
    }
    if spec.fault.is_some_and(|f| f.hang) && spec.epoch_wall_ms.is_none() {
        return Err("a hang fault needs --epoch-wall-ms to be detectable".into());
    }
    if let Some(dir) = &spec.state_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }

    // Every resume point is loaded and checked before any cell runs: a
    // bad checkpoint for one design must fail the run before another
    // design's cell can reach its horizon. A checkpoint cannot cross
    // threads (the memory system may hold a trace handle), so each
    // cell decodes its own again on its worker; one at a time here
    // keeps a single decoded checkpoint resident.
    for design in &spec.designs {
        load_resume_point(spec, design)?;
    }
    let results = par_map_ordered(spec.jobs, &spec.designs, |design| run_cell(spec, design));

    let mut cells = Vec::new();
    let mut finished = Vec::new();
    let mut recoveries = 0u32;
    let mut truncated = false;
    let mut killed_at = None;
    for (cell, design) in results.into_iter().zip(&spec.designs) {
        let cell = cell?;
        recoveries += cell.recoveries;
        truncated |= cell.truncated;
        if let Some(e) = cell.killed_at {
            killed_at = Some(e);
        }
        if let Some(report) = cell.report {
            if let (false, Some(dir)) = (cell.truncated, &spec.state_dir) {
                finished.push(checkpoint_path(dir, design));
            }
            cells.push(report);
        }
    }
    if let Some(at_epoch) = killed_at {
        return Ok(SoakRun {
            figure: None,
            outcome: SoakOutcome::Killed { at_epoch },
            recoveries,
            finished: Vec::new(),
        });
    }
    let outcome = if truncated {
        SoakOutcome::Truncated
    } else {
        SoakOutcome::Completed
    };
    Ok(SoakRun {
        figure: Some(Soak {
            seed: spec.cfg.seed,
            epoch_cycles: spec.cfg.epoch_cycles,
            horizon_epochs: spec.cfg.horizon_epochs,
            truncated,
            cells,
        }),
        outcome,
        recoveries,
        finished,
    })
}

impl fmt::Display for Soak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Long-horizon soak ({} epochs x {} cycles, seed {}){}",
            self.horizon_epochs,
            self.epoch_cycles,
            self.seed,
            if self.truncated {
                " [TRUNCATED by signal - partial]"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "{:<16} {:>7} {:>12} {:>10} {:>10} {:>9} {:>7} {:>8}",
            "design", "epochs", "cycles", "thr/kcyc", "p99stall", "fairness", "evict", "faults"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<16} {:>7} {:>12} {:>10.2} {:>10.0} {:>9.3} {:>7} {:>8}",
                c.design,
                c.epochs,
                c.cycles,
                c.throughput,
                c.p99_stall,
                c.fairness,
                c.evictions,
                c.faults
            )?;
        }
        for c in &self.cells {
            writeln!(f, "{} long-horizon curve (per-epoch):", c.design)?;
            // At most 16 rows: stride through long curves.
            let stride = (c.epoch_curve.len().div_ceil(16)).max(1);
            for p in c.epoch_curve.iter().step_by(stride) {
                writeln!(
                    f,
                    "  epoch {:>6}  acc {:>10}  p99 {:>7.0}  evict {:>5}",
                    p.epoch, p.accesses, p.p99_stall, p.evictions
                )?;
            }
        }
        write!(
            f,
            "thr/kcyc = aggregate line accesses per 1000 cycles; stats stream through \
             bounded per-epoch spills"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    // NOTE: nothing here may touch the crate::signals latch — these
    // run in the same process as the tenants sweep tests, which poll
    // it. Signal-path coverage lives in tests/tests/soak.rs.

    fn tiny_spec(dir: Option<String>) -> SoakSpec {
        SoakSpec {
            designs: vec!["vc".into()],
            cfg: SoakConfig {
                tenants: 2,
                quantum: 256,
                waves_per_kernel: 2,
                accesses_per_wave: 16,
                pages_per_tenant: 8,
                churn_period: 5,
                mean_arrival_gap: 800,
                epoch_cycles: 20_000,
                horizon_epochs: 4,
                ..SoakConfig::default()
            },
            paranoid: true,
            state_dir: dir,
            ..SoakSpec::default()
        }
    }

    #[test]
    fn fault_spec_parses_and_rejects() {
        assert_eq!(
            FaultSpec::parse("3:2").unwrap(),
            FaultSpec {
                epoch: 3,
                kills: 2,
                hang: false
            }
        );
        assert_eq!(
            FaultSpec::parse("1:1:hang").unwrap(),
            FaultSpec {
                epoch: 1,
                kills: 1,
                hang: true
            }
        );
        assert!(FaultSpec::parse("0:1").is_err(), "epoch 0 is not runnable");
        assert!(FaultSpec::parse("1:0").is_err(), "zero kills is a no-op");
        assert!(FaultSpec::parse("1").is_err());
        assert!(FaultSpec::parse("1:1:boom").is_err());
        assert!(FaultSpec::parse("x:1").is_err());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=10u32 {
            let base = (4u64 << (attempt - 1).min(6)).min(256);
            let d = seeded_backoff_ms(&("vc", 42u64, 3u64), attempt);
            assert_eq!(d, seeded_backoff_ms(&("vc", 42u64, 3u64), attempt));
            assert!(d >= base / 2 && d < base + base / 2);
            // The tuple hashes to the same stream as hashing its fields
            // one after another, so the schedule equals the one the
            // supervisor has always slept.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            "vc".hash(&mut h);
            42u64.hash(&mut h);
            3u64.hash(&mut h);
            let mut rng = gvc_engine::SimRng::seeded(h.finish() ^ u64::from(attempt));
            assert_eq!(d, rng.range(base / 2, base + base / 2));
        }
        assert_ne!(
            (1..=6)
                .map(|a| seeded_backoff_ms(&("vc", 42u64, 3u64), a))
                .collect::<Vec<_>>(),
            (1..=6)
                .map(|a| seeded_backoff_ms(&("baseline-512", 42u64, 3u64), a))
                .collect::<Vec<_>>(),
            "distinct designs must decorrelate the schedule"
        );
    }

    #[test]
    fn crash_recovery_run_equals_clean_run() {
        let clean = collect(&tiny_spec(None)).expect("clean soak");
        assert_eq!(clean.outcome, SoakOutcome::Completed);
        assert_eq!(clean.recoveries, 0);

        // Kill epoch 3 twice; the supervisor restores and retries.
        let mut spec = tiny_spec(None);
        spec.fault = Some(FaultSpec {
            epoch: 3,
            kills: 2,
            hang: false,
        });
        spec.retries = 3;
        let recovered = collect(&spec).expect("recovered soak");
        assert_eq!(recovered.recoveries, 2, "both kills were recovered");
        assert_eq!(
            recovered.figure, clean.figure,
            "recovery must not perturb the report"
        );

        // Exhausting the budget surfaces a structured error.
        let mut spec = tiny_spec(None);
        spec.fault = Some(FaultSpec {
            epoch: 2,
            kills: 5,
            hang: false,
        });
        spec.retries = 1;
        let err = collect(&spec).expect_err("budget exhausted");
        assert!(err.contains("retry budget 1"), "got: {err}");
        assert!(err.contains("epoch 2"), "got: {err}");
    }

    #[test]
    fn checkpoint_files_round_trip_and_validate() {
        let dir = std::env::temp_dir().join(format!("gvc_soak_ckpt_{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 temp dir").to_string();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let spec = tiny_spec(None);
        let mut sim = SoakSim::new(&spec.cfg, sys_for(&spec, "vc"));
        sim.run_epoch();
        let ckpt = sim.snapshot();
        let path = checkpoint_path(&dir, "vc");
        save_checkpoint(&path, &ckpt).unwrap();
        let loaded = load_checkpoint(&path).unwrap().expect("file exists");
        assert_eq!(loaded, ckpt, "JSON round-trip must be lossless");
        assert!(
            load_checkpoint(&checkpoint_path(&dir, "missing"))
                .unwrap()
                .is_none(),
            "a missing file is a fresh start, not an error"
        );

        // A future schema version is refused by name.
        let mut future = ckpt.clone();
        future.version = SOAK_CHECKPOINT_VERSION + 1;
        save_checkpoint(&path, &future).unwrap();
        let err = load_checkpoint(&path).expect_err("future version");
        assert!(err.contains("schema version"), "got: {err}");

        // Garbage is a parse error, not a panic.
        std::fs::write(&path, "{not json").unwrap();
        assert!(load_checkpoint(&path).is_err());
        std::fs::write(&path, "[1, 2]").unwrap();
        let err = load_checkpoint(&path).expect_err("no version field");
        assert!(err.contains("version"), "got: {err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_disk_matches_uninterrupted_at_both_cadences() {
        let clean = collect(&tiny_spec(None)).expect("clean soak");
        for cadence in [1u64, 2] {
            let dir = std::env::temp_dir().join(format!(
                "gvc_soak_resume_{}_{}",
                cadence,
                std::process::id()
            ));
            let dir = dir.to_str().expect("utf-8 temp dir").to_string();
            let _ = std::fs::remove_dir_all(&dir);

            let mut drill = tiny_spec(Some(dir.clone()));
            drill.checkpoint_every = cadence;
            drill.kill_after = Some(2);
            let killed = collect(&drill).expect("crash drill");
            assert_eq!(killed.outcome, SoakOutcome::Killed { at_epoch: 2 });
            assert!(killed.figure.is_none(), "a drill leaves only checkpoints");

            let mut resume = tiny_spec(Some(dir.clone()));
            resume.checkpoint_every = cadence;
            let resumed = collect(&resume).expect("resume");
            assert_eq!(resumed.outcome, SoakOutcome::Completed);
            assert_eq!(
                resumed.figure, clean.figure,
                "kill-and-resume at cadence {cadence} must be byte-identical"
            );
            let ckpt = checkpoint_path(&dir, "vc");
            assert_eq!(resumed.finished, std::slice::from_ref(&ckpt));
            assert!(
                std::path::Path::new(&ckpt).exists(),
                "the resume point stays until the report is written"
            );
            resumed.remove_finished_checkpoints().unwrap();
            assert!(
                !std::path::Path::new(&ckpt).exists(),
                "a completed cell must clean up its resume point"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_bad_checkpoint_fails_the_run_before_any_cell_runs() {
        let dir = std::env::temp_dir().join(format!("gvc_soak_bad_{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 temp dir").to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let mut drill = tiny_spec(Some(dir.clone()));
        drill.designs = vec!["baseline".into(), "vc".into()];
        drill.kill_after = Some(2);
        let killed = collect(&drill).expect("crash drill");
        assert_eq!(killed.outcome, SoakOutcome::Killed { at_epoch: 2 });
        assert!(killed.finished.is_empty());
        let resume = SoakSpec {
            kill_after: None,
            ..drill
        };
        let baseline = checkpoint_path(&dir, "baseline");
        let baseline_bytes = std::fs::read(&baseline).unwrap();
        let unchanged = || std::fs::read(&baseline).unwrap() == baseline_bytes;

        // A truncated vc checkpoint fails the run by name, and the
        // baseline cell, first in order, never runs: its resume point
        // is still the epoch-2 checkpoint.
        let vc = checkpoint_path(&dir, "vc");
        let vc_bytes = std::fs::read(&vc).unwrap();
        std::fs::write(&vc, &vc_bytes[..vc_bytes.len() / 2]).unwrap();
        let err = collect(&resume).expect_err("truncated checkpoint");
        assert!(
            err.contains(&vc) && err.contains("malformed checkpoint"),
            "{err}"
        );
        assert!(
            unchanged(),
            "a bad vc checkpoint cost baseline its progress"
        );

        // A checkpoint from another configuration is refused the same way.
        std::fs::write(&vc, &vc_bytes).unwrap();
        let mut reseeded = resume.clone();
        reseeded.cfg.seed += 1;
        let err = collect(&reseeded).expect_err("other configuration");
        assert!(err.contains("different soak configuration"), "{err}");
        assert!(unchanged());

        // With the good file back, both cells resume and finish, and
        // their checkpoints stay until the report is written.
        let run = collect(&resume).expect("resume");
        assert_eq!(run.outcome, SoakOutcome::Completed);
        assert_eq!(run.finished, [baseline.clone(), vc.clone()]);
        run.remove_finished_checkpoints().unwrap();
        assert!(!std::path::Path::new(&baseline).exists());
        assert!(!std::path::Path::new(&vc).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
