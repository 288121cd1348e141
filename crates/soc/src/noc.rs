//! Interconnect latency model.
//!
//! Table 1: a dance-hall topology inside the GPU (every CU one hop
//! from every L2 bank) and a point-to-point link between the GPU and
//! the CPU-side IOMMU/directory. Per §2.1, IOMMU requests use the PCIe
//! protocol even on-die, which is why the CU → IOMMU hop is much more
//! expensive than the CU → L2 hop.

use gvc_engine::time::Duration;
use serde::{Deserialize, Serialize};

/// One-way hop latencies, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NocConfig {
    /// CU ↔ shared-L2 hop (dance-hall).
    pub cu_to_l2: u64,
    /// Shared-L2 ↔ IOMMU/FBT hop (the paper models 10 cycles).
    pub l2_to_iommu: u64,
    /// CU ↔ IOMMU hop for baseline per-CU TLB misses (PCIe protocol).
    pub cu_to_iommu: u64,
    /// Directory ↔ GPU hop for coherence probes.
    pub dir_to_gpu: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cu_to_l2: 10,
            l2_to_iommu: 10,
            cu_to_iommu: 50,
            dir_to_gpu: 40,
        }
    }
}

/// The interconnect: pure latency links (bandwidth limits live at the
/// endpoints' service ports).
///
/// ```
/// use gvc_soc::{Noc, NocConfig};
///
/// let noc = Noc::new(NocConfig::default());
/// assert_eq!(noc.cu_to_l2().raw(), 10);
/// assert_eq!(noc.cu_to_iommu_round_trip().raw(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Noc {
    config: NocConfig,
}

impl Noc {
    /// Builds the interconnect.
    pub fn new(config: NocConfig) -> Self {
        Noc { config }
    }

    /// The configuration.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// One-way CU → shared L2.
    pub fn cu_to_l2(&self) -> Duration {
        Duration::new(self.config.cu_to_l2)
    }

    /// One-way shared L2 → IOMMU/FBT.
    pub fn l2_to_iommu(&self) -> Duration {
        Duration::new(self.config.l2_to_iommu)
    }

    /// One-way CU → IOMMU (baseline TLB-miss path).
    pub fn cu_to_iommu(&self) -> Duration {
        Duration::new(self.config.cu_to_iommu)
    }

    /// Round trip CU → IOMMU → CU.
    pub fn cu_to_iommu_round_trip(&self) -> Duration {
        Duration::new(2 * self.config.cu_to_iommu)
    }

    /// Round trip L2 → IOMMU → L2.
    pub fn l2_to_iommu_round_trip(&self) -> Duration {
        Duration::new(2 * self.config.l2_to_iommu)
    }

    /// One-way directory → GPU (probes).
    pub fn dir_to_gpu(&self) -> Duration {
        Duration::new(self.config.dir_to_gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_paper_modeling() {
        let noc = Noc::new(NocConfig::default());
        // §5: "10 cycle interconnect latency between a GPU L2 cache and FBT".
        assert_eq!(noc.l2_to_iommu().raw(), 10);
        assert_eq!(noc.l2_to_iommu_round_trip().raw(), 20);
        // The PCIe-protocol path dominates the dance-hall hop.
        assert!(noc.cu_to_iommu() > noc.cu_to_l2());
        assert_eq!(noc.dir_to_gpu().raw(), 40);
        assert_eq!(noc.config(), NocConfig::default());
    }
}
