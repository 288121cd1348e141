//! Multi-tenant service curves (`repro tenants`): tenants × designs →
//! aggregate throughput, per-tenant fairness, and p99 translation-stall
//! latency.
//!
//! These are figures the paper never produced: its evaluation runs one
//! kernel in one or two address spaces, while the shared-service regime
//! (SPARTA, Mosaic — see PAPERS.md) churns hundreds of ASIDs through
//! the TLBs, the virtual caches, and the FBT. Every cell is an
//! independent [`run_service`] simulation, fully determined by
//! `(tenants, design, quantum, scale, seed)`.
//!
//! Cells are computed on [`par_map_ordered`], which returns them in
//! cell-index order, so output is byte-identical for any `--jobs`
//! value. The sweep deliberately bypasses the runner's memo cache
//! (service runs are not keyed by `RunKey` and must never collide with
//! the figure sweeps).

use crate::runner::par_map_ordered;
use gvc_gpu::service::{run_service, ServiceConfig, ServiceReport};
use gvc_workloads::Scale;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default tenant counts for the sweep (the acceptance curve tops out
/// at 256 live ASIDs).
pub const DEFAULT_TENANT_COUNTS: [usize; 4] = [4, 16, 64, 256];

/// Default designs: the ideal reference, the paper's baseline, and the
/// two virtual-cache points.
pub const DEFAULT_DESIGNS: [&str; 4] = ["ideal", "baseline-512", "vc-without-opt", "vc"];

/// What to sweep (CLI-shaped; validated design names).
#[derive(Debug, Clone)]
pub struct TenantsSpec {
    /// Tenant counts, one service run per (count × design).
    pub tenant_counts: Vec<usize>,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Design names (must resolve via [`crate::trace::design_by_name`]).
    pub designs: Vec<String>,
    /// Run every cell under the paranoid checker (including the
    /// cross-tenant isolation check after each eviction).
    pub paranoid: bool,
    /// Worker count for the cell pool.
    pub jobs: usize,
}

impl Default for TenantsSpec {
    fn default() -> Self {
        TenantsSpec {
            tenant_counts: DEFAULT_TENANT_COUNTS.to_vec(),
            quantum: 512,
            designs: DEFAULT_DESIGNS.iter().map(|s| s.to_string()).collect(),
            paranoid: false,
            jobs: 1,
        }
    }
}

/// The whole tenants × designs sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tenants {
    /// Scheduler quantum used for every cell.
    pub quantum: u64,
    /// Master seed.
    pub seed: u64,
    /// Set when a shutdown signal cut the sweep short: `cells` is the
    /// completed prefix (still byte-identical cell-for-cell to an
    /// uninterrupted sweep). Always `false` unless the binary armed
    /// the [`crate::signals`] latch.
    pub truncated: bool,
    /// One service report per (tenant count × design), tenant counts
    /// outermost, designs in request order within each count.
    pub cells: Vec<ServiceReport>,
}

/// Scales a paper-scale knob by the `--scale` factor, keeping at
/// least 1.
fn scaled(paper: u64, scale: Scale) -> u64 {
    ((paper as f64 * scale.factor).round() as u64).max(1)
}

/// Builds the per-cell service shape for one tenant count.
fn cell_config(tenants: usize, quantum: u64, scale: Scale, seed: u64) -> ServiceConfig {
    ServiceConfig {
        tenants,
        quantum,
        kernels_per_tenant: scaled(3, scale),
        waves_per_kernel: scaled(4, scale),
        accesses_per_wave: scaled(32, scale),
        pages_per_tenant: scaled(24, scale),
        seed,
        ..ServiceConfig::default()
    }
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if a design name does not resolve (the CLI validates names
/// before calling), or on a paranoid-mode invariant violation.
pub fn collect(spec: &TenantsSpec, scale: Scale, seed: u64) -> Tenants {
    let cells: Vec<(usize, String)> = spec
        .tenant_counts
        .iter()
        .flat_map(|&n| spec.designs.iter().map(move |d| (n, d.clone())))
        .collect();
    // A SIGINT/SIGTERM stops the sweep at a cell boundary: cells not
    // yet started come back `None`, and the cells before the first
    // skipped one become a partial figure (cell-for-cell identical to
    // an uninterrupted sweep).
    let results = par_map_ordered(spec.jobs, &cells, |(n, design)| {
        if crate::signals::triggered() {
            return None;
        }
        let mut sys = crate::trace::design_by_name(design)
            .unwrap_or_else(|| panic!("unknown design {design:?} (validated at the CLI)"));
        if spec.paranoid {
            sys = sys.with_paranoid();
        }
        Some(run_service(
            &cell_config(*n, spec.quantum, scale, seed),
            sys,
        ))
    });
    let done: Vec<ServiceReport> = results.into_iter().map_while(|r| r).collect();
    Tenants {
        quantum: spec.quantum,
        seed,
        truncated: done.len() < cells.len(),
        cells: done,
    }
}

impl fmt::Display for Tenants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Multi-tenant service curves (quantum {} cycles, seed {}; paper extension){}",
            self.quantum,
            self.seed,
            if self.truncated {
                " [TRUNCATED by signal - partial]"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "{:<8} {:<16} {:>10} {:>10} {:>9} {:>7} {:>9} {:>8}",
            "tenants", "design", "thr/kcyc", "p99stall", "fairness", "evict", "ctxsw", "faults"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<8} {:<16} {:>10.2} {:>10.0} {:>9.3} {:>7} {:>9} {:>8}",
                c.tenants,
                c.design,
                c.throughput,
                c.p99_stall,
                c.fairness,
                c.evictions,
                c.context_switches,
                c.faults
            )?;
        }
        writeln!(
            f,
            "thr/kcyc = aggregate line accesses per 1000 cycles; p99stall = p99 \
             per-access stall (cycles);"
        )?;
        write!(
            f,
            "fairness = Jain's index over per-tenant service rates (1.0 = fair)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(jobs: usize) -> TenantsSpec {
        TenantsSpec {
            tenant_counts: vec![2, 5],
            quantum: 128,
            designs: vec!["baseline".into(), "vc".into()],
            paranoid: true,
            jobs,
        }
    }

    #[test]
    fn sweep_is_jobs_invariant_and_ordered() {
        let scale = Scale::test();
        let serial = collect(&tiny_spec(1), scale, 7);
        let parallel = collect(&tiny_spec(4), scale, 7);
        assert_eq!(serial, parallel, "worker count leaked into the figure");
        assert_eq!(serial.cells.len(), 4);
        let order: Vec<(usize, &str)> = serial
            .cells
            .iter()
            .map(|c| (c.tenants, c.design.as_str()))
            .collect();
        assert_eq!(order[0].0, 2);
        assert_eq!(order[2].0, 5);
        assert_eq!(order[0].1, order[2].1, "designs repeat per count");
    }

    #[test]
    fn cells_conserve_stalls() {
        let fig = collect(&tiny_spec(2), Scale::test(), 11);
        for c in &fig.cells {
            c.check_stall_conservation();
        }
    }
}
