//! FTL configuration.

use nand3d::{NandConfig, RetryOptConfig};

/// Cross-block offset cluster configuration (§4.2.2): when enabled, an
/// ORT miss is answered from the per-chip, per-h-layer average of
/// recently decoded `ΔV_Ref` offsets instead of the cold default 0.
/// Off by default — the conservative setting preserves every pre-cluster
/// golden bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrtClusterConfig {
    /// Master switch (`--ort-cluster on|off`).
    pub enabled: bool,
    /// Decode samples an h-layer must accumulate before its cluster
    /// average seeds cold blocks. Low thresholds warm up faster; higher
    /// ones resist early-outlier skew.
    pub min_samples: u32,
}

impl OrtClusterConfig {
    /// The enabled configuration with the default warm-up threshold.
    pub fn on() -> Self {
        OrtClusterConfig {
            enabled: true,
            min_samples: 2,
        }
    }
}

impl Default for OrtClusterConfig {
    fn default() -> Self {
        OrtClusterConfig {
            enabled: false,
            min_samples: 2,
        }
    }
}

/// Configuration shared by every FTL variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlConfig {
    /// NAND chip configuration.
    pub nand: NandConfig,
    /// Number of chips the FTL manages.
    pub chips: usize,
    /// Fraction of physical capacity reserved as over-provisioning
    /// (not addressable by the host).
    pub overprovision: f64,
    /// Garbage collection starts when a chip's free-block count drops to
    /// this threshold.
    pub gc_free_block_threshold: usize,
    /// Write-buffer utilization threshold `μ_TH` above which cubeFTL's
    /// WAM prefers follower WLs (§5.2; the paper suggests 0.9).
    pub mu_threshold: f64,
    /// Active blocks per chip for the WAM (§5.2: the paper uses two).
    pub active_blocks_per_chip: usize,
    /// Per-chip capacity of the optimal read-reference table, in h-layer
    /// entries; LRU eviction beyond that. `usize::MAX` models the
    /// paper's full in-DRAM table (§5.1).
    pub ort_capacity: usize,
    /// Cross-block offset cluster (§4.2.2 closure); off by default.
    pub ort_cluster: OrtClusterConfig,
    /// Park-et-al-style retry-chain optimizations (speculative stepping,
    /// cold-read offset prediction, early termination); off by default.
    pub retry_opt: RetryOptConfig,
    /// Seed for per-chip process variation.
    pub seed: u64,
}

impl FtlConfig {
    /// The paper's evaluation configuration: 8 chips of the §6.1
    /// geometry, ~12.5% over-provisioning.
    pub fn paper() -> Self {
        FtlConfig {
            nand: NandConfig::paper(),
            chips: 8,
            overprovision: 0.125,
            gc_free_block_threshold: 4,
            mu_threshold: 0.9,
            active_blocks_per_chip: 2,
            ort_capacity: usize::MAX,
            ort_cluster: OrtClusterConfig::default(),
            retry_opt: RetryOptConfig::default(),
            seed: 42,
        }
    }

    /// A small configuration for tests and examples (2 chips of the
    /// small geometry).
    pub fn small() -> Self {
        FtlConfig {
            nand: NandConfig::small(),
            chips: 2,
            overprovision: 0.25,
            gc_free_block_threshold: 2,
            mu_threshold: 0.9,
            active_blocks_per_chip: 2,
            ort_capacity: usize::MAX,
            ort_cluster: OrtClusterConfig::default(),
            retry_opt: RetryOptConfig::default(),
            seed: 42,
        }
    }

    /// Host-visible logical pages across all chips.
    pub fn logical_pages(&self) -> u64 {
        let physical = self.nand.geometry.pages_per_chip() * self.chips as u64;
        (physical as f64 * (1.0 - self.overprovision)).floor() as u64
    }

    /// The most blocks per chip the mapping can address: the device's
    /// pages, `chips × blocks_per_chip × pages_per_block`, must fit a
    /// `u32` page index with `u32::MAX` reserved for "no page".
    pub fn max_blocks_per_chip(&self) -> u32 {
        let pages_per_block_of_all_chips =
            self.chips as u64 * u64::from(self.nand.geometry.pages_per_block());
        // At most `u32::MAX - 1`, so the cast keeps every bit.
        (u64::from(u32::MAX - 1) / pages_per_block_of_all_chips.max(1)) as u32
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot support an FTL (no chips, no
    /// over-provisioning headroom, a GC threshold the geometry cannot
    /// satisfy, or more blocks than [`FtlConfig::max_blocks_per_chip`]).
    pub fn validate(&self) {
        assert!(self.chips > 0, "need at least one chip");
        assert!(
            (0.01..0.9).contains(&self.overprovision),
            "over-provisioning must be in (0.01, 0.9)"
        );
        assert!(
            (0.0..=1.0).contains(&self.mu_threshold),
            "μ_TH must be a fraction"
        );
        assert!(
            (self.gc_free_block_threshold as u32) < self.nand.geometry.blocks_per_chip / 2,
            "GC threshold leaves no usable blocks"
        );
        assert!(
            self.active_blocks_per_chip >= 1
                && self.active_blocks_per_chip <= self.gc_free_block_threshold.max(1),
            "active blocks must leave GC headroom"
        );
        assert!(self.ort_capacity >= 1, "ORT needs at least one entry");
        assert!(
            self.nand.geometry.blocks_per_chip <= self.max_blocks_per_chip(),
            "the device's pages overflow the mapping's u32 page index"
        );
    }
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        FtlConfig::paper().validate();
        FtlConfig::small().validate();
    }

    #[test]
    fn logical_pages_respect_overprovisioning() {
        let cfg = FtlConfig::paper();
        let physical = cfg.nand.geometry.pages_per_chip() * cfg.chips as u64;
        assert!(cfg.logical_pages() < physical);
        assert!(cfg.logical_pages() > physical / 2);
    }

    #[test]
    fn the_block_bound_is_the_device_wide_page_index() {
        let cfg = FtlConfig::paper();
        assert_eq!(cfg.max_blocks_per_chip(), 932_067);
        let mut at = cfg;
        at.nand.geometry.blocks_per_chip = 932_067;
        at.validate();
        let pages = at.nand.geometry.pages_per_chip() * at.chips as u64;
        assert!(pages < u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "u32 page index")]
    fn blocks_past_the_page_index_rejected() {
        let mut cfg = FtlConfig::paper();
        cfg.nand.geometry.blocks_per_chip = 932_068;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_chips_rejected() {
        FtlConfig {
            chips: 0,
            ..FtlConfig::small()
        }
        .validate();
    }
}
