//! Argument parsing for the `repro` binary, split out as a pure
//! function so input validation is unit-testable without spawning the
//! binary.
//!
//! Every flag is validated here with a structured [`CliError`] instead
//! of a panic or a bare usage dump: `--jobs 0` (a zero worker pool
//! would deadlock the sweep), out-of-range `--inject` rates (the ppm
//! conversion would silently saturate), and `--max-cycles 0` (a zero
//! watchdog would cut every run before its first instruction) are all
//! rejected with messages naming the flag and the offending value.

use gvc_workloads::{Scale, WorkloadId};
use std::fmt;
use std::num::NonZeroUsize;

/// Figure/table targets the `repro` binary understands.
pub const TARGETS: [&str; 15] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "energy",
    "reach",
    "all",
];

/// A validated `repro trace <design> <workload>` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Canonical design name (validated against
    /// [`crate::trace::design_by_name`]).
    pub design: String,
    /// The workload to trace.
    pub workload: WorkloadId,
}

/// Fully parsed and validated command line.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Figure/table targets, in request order.
    pub targets: Vec<String>,
    /// A `trace` subcommand, when requested.
    pub trace: Option<TraceSpec>,
    /// A `tenants` subcommand: run the multi-tenant service sweep.
    pub tenants: bool,
    /// A `soak` subcommand: run the long-horizon checkpointed soak.
    pub soak: bool,
    /// `--tenants N`: replace the default tenant-count sweep with the
    /// single count `N` (validated nonzero).
    pub tenant_count: Option<NonZeroUsize>,
    /// `--quantum N`: scheduler quantum override (validated nonzero).
    pub quantum: Option<u64>,
    /// `--design NAME` (repeatable): designs for the tenants/soak
    /// sweeps, in request order (validated against
    /// [`crate::trace::design_by_name`]).
    pub designs: Vec<String>,
    /// `--epochs N`: soak horizon in epochs (validated nonzero).
    pub soak_epochs: Option<u64>,
    /// `--epoch-cycles N`: soak epoch length (validated nonzero).
    pub soak_epoch_cycles: Option<u64>,
    /// `--checkpoint-every N`: epochs between persisted checkpoints
    /// (validated nonzero).
    pub checkpoint_every: Option<u64>,
    /// `--state DIR`: soak checkpoint directory.
    pub state_dir: Option<String>,
    /// `--kill-after N`: crash drill — checkpoint and stop after `N`
    /// epochs (validated nonzero; requires `--state`).
    pub kill_after: Option<u64>,
    /// `--fault-epoch E:K[:hang]`: sabotage epoch `E` for its first
    /// `K` attempts (recovery drill).
    pub fault: Option<crate::soak::FaultSpec>,
    /// `--retries N`: per-epoch crash-recovery budget (0 = fail fast).
    pub soak_retries: Option<u32>,
    /// `--epoch-wall-ms N`: per-epoch wall watchdog (validated
    /// nonzero).
    pub epoch_wall_ms: Option<u64>,
    /// Simulation scale (`--scale`, default paper).
    pub scale: Scale,
    /// Base seed (`--seed`, default 42).
    pub seed: u64,
    /// JSON output directory (`--json`).
    pub json_dir: Option<String>,
    /// Worker count override (`--jobs`, validated nonzero).
    pub jobs: Option<NonZeroUsize>,
    /// Run every simulation under the paranoid invariant checker.
    pub paranoid: bool,
    /// Fault-injection rate in [0, 1] (`--inject`).
    pub inject_rate: Option<f64>,
    /// Cycle watchdog (`--max-cycles`, validated nonzero).
    pub max_cycles: Option<u64>,
}

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h`/`--help`, or nothing to do: show usage.
    Usage,
    /// A flag or positional argument failed validation.
    Invalid {
        /// The flag (or token) at fault, e.g. `--jobs`.
        flag: String,
        /// What was wrong and what would be accepted.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => write!(f, "nothing to do (see --help)"),
            CliError::Invalid { flag, message } => write!(f, "{flag}: {message}"),
        }
    }
}

fn invalid(flag: &str, message: impl Into<String>) -> CliError {
    CliError::Invalid {
        flag: flag.to_string(),
        message: message.into(),
    }
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next().ok_or_else(|| invalid(flag, "missing value"))
}

/// Parses a flag value as a positive integer, rejecting 0 with a
/// flag-specific explanation of what a zero would silently do.
fn nonzero_u64(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    why_not_zero: &str,
) -> Result<u64, CliError> {
    let v = value(it, flag)?;
    let n: u64 = v
        .parse()
        .map_err(|_| invalid(flag, format!("expected an unsigned integer, got {v:?}")))?;
    if n == 0 {
        return Err(invalid(
            flag,
            format!("must be at least 1 — {why_not_zero}"),
        ));
    }
    Ok(n)
}

/// Parses and validates `repro` arguments (everything after argv[0]).
pub fn parse(args: &[String]) -> Result<CliOptions, CliError> {
    let mut o = CliOptions {
        targets: Vec::new(),
        trace: None,
        tenants: false,
        soak: false,
        tenant_count: None,
        quantum: None,
        designs: Vec::new(),
        soak_epochs: None,
        soak_epoch_cycles: None,
        checkpoint_every: None,
        state_dir: None,
        kill_after: None,
        fault: None,
        soak_retries: None,
        epoch_wall_ms: None,
        scale: Scale::paper(),
        seed: 42,
        json_dir: None,
        jobs: None,
        paranoid: false,
        inject_rate: None,
        max_cycles: None,
    };
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match value(&mut it, "--scale")?.as_str() {
                "paper" => o.scale = Scale::paper(),
                "quick" => o.scale = Scale::quick(),
                "test" => o.scale = Scale::test(),
                other => {
                    return Err(invalid(
                        "--scale",
                        format!("expected paper|quick|test, got {other:?}"),
                    ))
                }
            },
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                o.seed = v.parse().map_err(|_| {
                    invalid("--seed", format!("expected an unsigned integer, got {v:?}"))
                })?;
            }
            "--json" => o.json_dir = Some(value(&mut it, "--json")?),
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                let n: usize = v.parse().map_err(|_| {
                    invalid("--jobs", format!("expected an unsigned integer, got {v:?}"))
                })?;
                o.jobs = Some(NonZeroUsize::new(n).ok_or_else(|| {
                    invalid(
                        "--jobs",
                        "must be at least 1 (a zero-worker pool would hang)",
                    )
                })?);
            }
            "--paranoid" => o.paranoid = true,
            "--inject" => {
                let v = value(&mut it, "--inject")?;
                let rate: f64 = v
                    .parse()
                    .map_err(|_| invalid("--inject", format!("expected a number, got {v:?}")))?;
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(invalid(
                        "--inject",
                        format!("rate must be a finite probability in [0, 1], got {v}"),
                    ));
                }
                o.inject_rate = Some(rate);
            }
            "--max-cycles" => {
                let v = value(&mut it, "--max-cycles")?;
                let n: u64 = v.parse().map_err(|_| {
                    invalid(
                        "--max-cycles",
                        format!("expected an unsigned integer, got {v:?}"),
                    )
                })?;
                if n == 0 {
                    return Err(invalid(
                        "--max-cycles",
                        "must be at least 1 — a zero watchdog would cut every run \
                         before its first instruction (omit the flag for an unbounded run)",
                    ));
                }
                o.max_cycles = Some(n);
            }
            "--help" | "-h" => return Err(CliError::Usage),
            "tenants" => o.tenants = true,
            "soak" => o.soak = true,
            "--epochs" => {
                o.soak_epochs = Some(nonzero_u64(
                    &mut it,
                    "--epochs",
                    "a zero-epoch soak does nothing",
                )?)
            }
            "--epoch-cycles" => {
                o.soak_epoch_cycles = Some(nonzero_u64(
                    &mut it,
                    "--epoch-cycles",
                    "a zero-length epoch would never close",
                )?)
            }
            "--checkpoint-every" => {
                o.checkpoint_every = Some(nonzero_u64(
                    &mut it,
                    "--checkpoint-every",
                    "a zero cadence would never checkpoint",
                )?)
            }
            "--state" => o.state_dir = Some(value(&mut it, "--state")?),
            "--kill-after" => {
                o.kill_after = Some(nonzero_u64(
                    &mut it,
                    "--kill-after",
                    "killing before the first epoch would checkpoint nothing new",
                )?)
            }
            "--fault-epoch" => {
                let v = value(&mut it, "--fault-epoch")?;
                o.fault = Some(
                    crate::soak::FaultSpec::parse(&v).map_err(|m| invalid("--fault-epoch", m))?,
                );
            }
            "--retries" => {
                let v = value(&mut it, "--retries")?;
                o.soak_retries = Some(v.parse().map_err(|_| {
                    invalid(
                        "--retries",
                        format!("expected an unsigned integer, got {v:?}"),
                    )
                })?);
            }
            "--epoch-wall-ms" => {
                o.epoch_wall_ms = Some(nonzero_u64(
                    &mut it,
                    "--epoch-wall-ms",
                    "a zero wall budget would declare every epoch hung",
                )?)
            }
            "--tenants" => {
                let v = value(&mut it, "--tenants")?;
                let n: usize = v.parse().map_err(|_| {
                    invalid(
                        "--tenants",
                        format!("expected an unsigned integer, got {v:?}"),
                    )
                })?;
                o.tenant_count = Some(NonZeroUsize::new(n).ok_or_else(|| {
                    invalid("--tenants", "must be at least 1 (a service needs a tenant)")
                })?);
            }
            "--quantum" => {
                let v = value(&mut it, "--quantum")?;
                let n: u64 = v.parse().map_err(|_| {
                    invalid(
                        "--quantum",
                        format!("expected an unsigned integer, got {v:?}"),
                    )
                })?;
                if n == 0 {
                    return Err(invalid(
                        "--quantum",
                        "must be at least 1 cycle — a zero quantum would never \
                         let the active tenant issue",
                    ));
                }
                o.quantum = Some(n);
            }
            "--design" => {
                let name = value(&mut it, "--design")?;
                if crate::trace::design_by_name(&name).is_none() {
                    return Err(invalid(
                        "--design",
                        format!(
                            "unknown design {name:?}; expected one of {}",
                            crate::trace::DESIGN_NAMES.join("|")
                        ),
                    ));
                }
                o.designs.push(name);
            }
            "trace" => {
                let design = value(&mut it, "trace").map_err(|_| {
                    invalid(
                        "trace",
                        format!(
                            "expected `trace <design> <workload>`; designs: {}",
                            crate::trace::DESIGN_NAMES.join("|")
                        ),
                    )
                })?;
                if crate::trace::design_by_name(&design).is_none() {
                    return Err(invalid(
                        "trace",
                        format!(
                            "unknown design {design:?}; expected one of {}",
                            crate::trace::DESIGN_NAMES.join("|")
                        ),
                    ));
                }
                let wname = value(&mut it, "trace").map_err(|_| {
                    invalid("trace", "missing workload: `trace <design> <workload>`")
                })?;
                let workload = WorkloadId::from_name(&wname).ok_or_else(|| {
                    invalid(
                        "trace",
                        format!(
                            "unknown workload {wname:?}; expected one of {}",
                            WorkloadId::all()
                                .iter()
                                .map(|w| w.name())
                                .collect::<Vec<_>>()
                                .join("|")
                        ),
                    )
                })?;
                o.trace = Some(TraceSpec { design, workload });
            }
            other if other.starts_with('-') => return Err(invalid(other, "unknown flag")),
            other => {
                if TARGETS.contains(&other) {
                    o.targets.push(other.to_string());
                } else {
                    return Err(invalid(
                        other,
                        format!("unknown target; expected one of {}", TARGETS.join("|")),
                    ));
                }
            }
        }
    }
    if (o.tenant_count.is_some() || o.quantum.is_some() || !o.designs.is_empty())
        && !o.tenants
        && !o.soak
    {
        let flag = if o.tenant_count.is_some() {
            "--tenants"
        } else if o.quantum.is_some() {
            "--quantum"
        } else {
            "--design"
        };
        return Err(invalid(
            flag,
            "only meaningful with the `tenants` or `soak` subcommands",
        ));
    }
    if !o.soak {
        let soak_flag = [
            ("--epochs", o.soak_epochs.is_some()),
            ("--epoch-cycles", o.soak_epoch_cycles.is_some()),
            ("--checkpoint-every", o.checkpoint_every.is_some()),
            ("--state", o.state_dir.is_some()),
            ("--kill-after", o.kill_after.is_some()),
            ("--fault-epoch", o.fault.is_some()),
            ("--retries", o.soak_retries.is_some()),
            ("--epoch-wall-ms", o.epoch_wall_ms.is_some()),
        ]
        .into_iter()
        .find(|(_, set)| *set);
        if let Some((flag, _)) = soak_flag {
            return Err(invalid(flag, "only meaningful with the `soak` subcommand"));
        }
    }
    if o.kill_after.is_some() && o.state_dir.is_none() {
        return Err(invalid(
            "--kill-after",
            "requires --state DIR — resuming the drill needs a checkpoint on disk",
        ));
    }
    if o.fault.is_some_and(|f| f.hang) && o.epoch_wall_ms.is_none() {
        return Err(invalid(
            "--fault-epoch",
            "a `hang` fault needs --epoch-wall-ms, or the watchdog can never detect it",
        ));
    }
    if o.targets.is_empty() && o.trace.is_none() && !o.tenants && !o.soak {
        return Err(CliError::Usage);
    }
    Ok(o)
}
