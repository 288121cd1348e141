//! A minimal coherence directory and CPU probe injection.
//!
//! The paper's SoC keeps CPUs and the GPU fully coherent: requests
//! from the CPU side arrive at the GPU carrying *physical* addresses,
//! which is exactly what makes virtual caches hard — the proposal
//! reverse-translates them through the backward table (§4.1, "Cache
//! Coherence between GPUs and CPUs") and uses the BT's inclusivity as
//! a coherence filter.
//!
//! This module models only what that path needs: a directory lookup
//! latency, a record of which physical lines the GPU holds (maintained
//! by the `gvc` hierarchy), and a deterministic [`ProbeInjector`] that
//! emits CPU write/read probes to the workload's pages.

use gvc_engine::time::{Cycle, Duration};
use gvc_engine::{Counter, SimRng};
use gvc_mem::PAddr;
use serde::{Deserialize, Serialize};

/// What the CPU-side request wants the GPU to do with the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeKind {
    /// A CPU write: the GPU must invalidate its copy.
    Invalidate,
    /// A CPU read: the GPU may keep a shared copy (downgrade).
    Downgrade,
}

/// A coherence probe carrying a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Probe {
    /// The physical line address being probed.
    pub paddr: PAddr,
    /// Invalidate or downgrade.
    pub kind: ProbeKind,
    /// When the probe reaches the GPU boundary.
    pub at: Cycle,
}

/// The directory: lookup latency plus probe counters.
///
/// The directory is its own checkpoint (see [`Directory::restore`]).
/// Field order is the checkpoint's key order, pinned by
/// `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Directory {
    lookup_latency: Duration,
    fetches: Counter,
    probes_sent: Counter,
}

impl Directory {
    /// Builds a directory with the given lookup latency (cycles).
    pub fn new(lookup_latency: u64) -> Self {
        Directory {
            lookup_latency: Duration::new(lookup_latency),
            fetches: Counter::new(),
            probes_sent: Counter::new(),
        }
    }

    /// Latency of consulting the directory on the miss path.
    pub fn lookup_latency(&self) -> Duration {
        self.lookup_latency
    }

    /// Records a GPU fetch that consulted the directory; returns when
    /// the directory lookup completes.
    pub fn fetch(&mut self, now: Cycle) -> Cycle {
        self.fetches.inc();
        now + self.lookup_latency
    }

    /// Counts a probe dispatched toward the GPU.
    pub fn note_probe(&mut self) {
        self.probes_sent.inc();
    }

    /// GPU-side fetches that consulted the directory.
    pub fn fetches(&self) -> u64 {
        self.fetches.get()
    }

    /// Probes dispatched.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent.get()
    }

    /// Restores a directory cloned or deserialized from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's lookup latency does not match.
    pub fn restore(&mut self, snap: &Directory) {
        assert_eq!(
            self.lookup_latency, snap.lookup_latency,
            "directory snapshot latency mismatch"
        );
        self.clone_from(snap);
    }
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new(20)
    }
}

/// Deterministically generates CPU probes into a physical address
/// range, spaced geometrically in time — enough to exercise the
/// reverse-translation path without modeling full CPU cores.
///
/// ```
/// use gvc_engine::Cycle;
/// use gvc_mem::PAddr;
/// use gvc_soc::ProbeInjector;
///
/// let mut inj = ProbeInjector::new(7, 1000.0);
/// inj.add_target(PAddr::new(0x1000), 4096);
/// let probes = inj.generate(Cycle::new(0), Cycle::new(100_000));
/// assert!(!probes.is_empty());
/// assert!(probes.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug)]
pub struct ProbeInjector {
    rng: SimRng,
    mean_gap_cycles: f64,
    targets: Vec<(PAddr, u64)>,
}

impl ProbeInjector {
    /// Creates an injector with mean inter-probe gap
    /// `mean_gap_cycles`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_cycles` is not positive.
    pub fn new(seed: u64, mean_gap_cycles: f64) -> Self {
        assert!(mean_gap_cycles > 0.0, "gap must be positive");
        ProbeInjector {
            rng: SimRng::seeded(seed),
            mean_gap_cycles,
            targets: Vec::new(),
        }
    }

    /// Adds a physical range probes may target.
    pub fn add_target(&mut self, base: PAddr, bytes: u64) {
        self.targets.push((base, bytes));
    }

    /// Generates the next probe strictly after `after`, or `None` if
    /// no targets were added. Used for lazy interleaving with a
    /// running simulation.
    pub fn next_probe(&mut self, after: Cycle) -> Option<Probe> {
        if self.targets.is_empty() {
            return None;
        }
        let u = self.rng.unit().max(1e-12);
        let gap = (-self.mean_gap_cycles * u.ln()).max(1.0);
        let at = Cycle::new(after.raw() + gap as u64);
        let (base, bytes) = *self.rng.pick(&self.targets);
        let offset = self.rng.below(bytes) & !(gvc_mem::LINE_BYTES - 1);
        let kind = if self.rng.chance(0.5) {
            ProbeKind::Invalidate
        } else {
            ProbeKind::Downgrade
        };
        Some(Probe {
            paddr: base.offset(offset),
            kind,
            at,
        })
    }

    /// Generates the time-ordered probes in `[from, to)`. Returns an
    /// empty vector if no targets were added.
    pub fn generate(&mut self, from: Cycle, to: Cycle) -> Vec<Probe> {
        if self.targets.is_empty() {
            return Vec::new();
        }
        let mut probes = Vec::new();
        let mut t = from.raw() as f64;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u = self.rng.unit().max(1e-12);
            t += -self.mean_gap_cycles * u.ln();
            if t >= to.raw() as f64 {
                break;
            }
            let (base, bytes) = *self.rng.pick(&self.targets);
            let offset = self.rng.below(bytes) & !(gvc_mem::LINE_BYTES - 1);
            let kind = if self.rng.chance(0.5) {
                ProbeKind::Invalidate
            } else {
                ProbeKind::Downgrade
            };
            probes.push(Probe {
                paddr: base.offset(offset),
                kind,
                at: Cycle::new(t as u64),
            });
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_charges_latency() {
        let mut d = Directory::new(20);
        assert_eq!(d.fetch(Cycle::new(10)), Cycle::new(30));
        assert_eq!(d.fetches(), 1);
        d.note_probe();
        assert_eq!(d.probes_sent(), 1);
        assert_eq!(Directory::default().lookup_latency().raw(), 20);
    }

    #[test]
    fn injector_is_deterministic() {
        let make = || {
            let mut i = ProbeInjector::new(42, 500.0);
            i.add_target(PAddr::new(0x10_000), 8192);
            i.generate(Cycle::new(0), Cycle::new(50_000))
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn injector_respects_bounds_and_alignment() {
        let mut i = ProbeInjector::new(1, 200.0);
        i.add_target(PAddr::new(0x10_000), 4096);
        let probes = i.generate(Cycle::new(1000), Cycle::new(30_000));
        assert!(!probes.is_empty());
        for p in &probes {
            assert!(p.at >= Cycle::new(1000) && p.at < Cycle::new(30_000));
            assert_eq!(p.paddr.raw() % gvc_mem::LINE_BYTES, 0);
            assert!(p.paddr.raw() >= 0x10_000 && p.paddr.raw() < 0x10_000 + 4096);
        }
    }

    #[test]
    fn no_targets_no_probes() {
        let mut i = ProbeInjector::new(1, 100.0);
        assert!(i.generate(Cycle::new(0), Cycle::new(10_000)).is_empty());
    }
}
