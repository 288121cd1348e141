//! The DRAM model: fixed access latency plus a 192 GB/s bandwidth pipe.

use gvc_engine::time::{Cycle, Duration};
use gvc_engine::{Counter, TokenPort};
use gvc_mem::LINE_BYTES;
use serde::{Deserialize, Serialize};

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramConfig {
    /// Access latency in cycles (row activation + transfer start).
    pub latency: u64,
    /// Bandwidth in bytes per GPU cycle. Table 1's 192 GB/s at
    /// 700 MHz is 274 B/cycle.
    pub bytes_per_cycle: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency: 120,
            bytes_per_cycle: 274,
        }
    }
}

/// The DRAM: a token-bandwidth pipe plus fixed latency.
///
/// Demand reads and buffered writes use separate bandwidth
/// accounting: memory controllers drain write buffers behind demand
/// reads, so a burst of dirty write-backs (which this simulator
/// charges at their fill times, potentially deep in a queued future)
/// must not stall reads issued meanwhile. This read-priority
/// approximation slightly overstates total bandwidth under extreme
/// 50/50 read/write mixes and is called out in DESIGN.md.
///
/// ```
/// use gvc_engine::Cycle;
/// use gvc_soc::{Dram, DramConfig};
///
/// let mut dram = Dram::new(DramConfig { latency: 100, bytes_per_cycle: 128 });
/// let done = dram.read_line(Cycle::new(0));
/// assert_eq!(done, Cycle::new(100)); // one line fits one cycle of bandwidth
/// ```
///
/// The DRAM is its own checkpoint (see [`Dram::restore`]). Field order
/// is the checkpoint's key order, pinned by `tests/tests/golden.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dram {
    config: DramConfig,
    pipe: TokenPort,
    write_pipe: TokenPort,
    reads: Counter,
    writes: Counter,
}

impl Dram {
    /// Builds a DRAM.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            pipe: TokenPort::new(config.bytes_per_cycle),
            write_pipe: TokenPort::new(config.bytes_per_cycle),
            config,
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Reads one cache line arriving at `now`; returns completion time.
    pub fn read_line(&mut self, now: Cycle) -> Cycle {
        self.reads.inc();
        let transferred = self.pipe.transfer(now, LINE_BYTES);
        transferred + Duration::new(self.config.latency)
    }

    /// Writes one cache line (e.g. an L2 writeback). Writes are
    /// buffered and drain on the write channel without blocking demand
    /// reads; returns the cycle the channel finishes moving the data.
    pub fn write_line(&mut self, now: Cycle) -> Cycle {
        self.writes.inc();
        self.write_pipe.transfer(now, LINE_BYTES)
    }

    /// Lines read so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Lines written so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Total bytes moved (both channels).
    pub fn bytes_total(&self) -> u64 {
        self.pipe.bytes_total() + self.write_pipe.bytes_total()
    }

    /// Restores a DRAM cloned or deserialized from a checkpoint: both
    /// channel backlogs and the counters.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's configuration does not match.
    pub fn restore(&mut self, snap: &Dram) {
        assert_eq!(self.config, snap.config, "DRAM snapshot config mismatch");
        self.clone_from(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_plus_bandwidth() {
        let mut d = Dram::new(DramConfig {
            latency: 100,
            bytes_per_cycle: 128,
        });
        assert_eq!(d.read_line(Cycle::new(0)), Cycle::new(100));
        // Same-cycle second line queues one cycle of bandwidth.
        assert_eq!(d.read_line(Cycle::new(0)), Cycle::new(101));
        assert_eq!(d.reads(), 2);
    }

    #[test]
    fn writes_do_not_block_demand_reads() {
        let mut d = Dram::new(DramConfig {
            latency: 100,
            bytes_per_cycle: 128,
        });
        // A writeback charged deep in the future (a queued fill time)...
        let wb = d.write_line(Cycle::new(10_000));
        assert_eq!(wb, Cycle::new(10_000), "posted write: no latency charged");
        // ...must not stall a read issued now.
        assert_eq!(d.read_line(Cycle::new(0)), Cycle::new(100));
        assert_eq!(d.writes(), 1);
        assert_eq!(d.bytes_total(), 256);
    }

    #[test]
    fn default_config_matches_table1() {
        let c = DramConfig::default();
        // 274 B/cycle * 700 MHz ≈ 192 GB/s.
        let gbps = c.bytes_per_cycle as f64 * 700e6 / 1e9;
        assert!((gbps - 192.0).abs() < 1.0);
    }
}
