//! Configuration types for every clustering entry point.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// The paper's convergence threshold: stop when
/// `MSE(n−1) − MSE(n) ≤ 1 × 10⁻⁹` (§2, §3.3).
pub const PAPER_EPSILON: f64 = 1e-9;

/// Default safety cap on Lloyd iterations. The paper relies purely on the
/// MSE delta; the cap exists so adversarial inputs can't spin forever, and
/// results record whether it was hit.
pub const DEFAULT_MAX_ITERS: usize = 10_000;

/// Which nearest-centroid strategy drives the Lloyd assignment step.
///
/// Every kind is **exact**: they all produce the same assignments (and the
/// same bit-level distances) as the naive scalar scan — the differential
/// test suite in `tests/kernel_differential.rs` pins this. They differ only
/// in how much arithmetic they spend getting there; DESIGN.md §9 discusses
/// when each wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelKind {
    /// Pick automatically: always the fused SoA kernel. (A pruned scalar
    /// scan existed historically but measured 0.81× the plain scalar scan
    /// on the kernel-speedup workloads and was removed; `KernelKind` keeps
    /// only strategies that earn their maintenance.)
    #[default]
    Auto,
    /// The naive AoS scalar scan ([`crate::point::nearest_centroid`]) —
    /// the paper's §4 prototype behaviour, kept for timing mirrors.
    Scalar,
    /// The fused SoA kernel ([`crate::kernel::FusedLayout`]): `‖x−c‖²`
    /// screened via the norm expansion over coordinate-major centroid
    /// planes, tracking each lane's best and runner-up, with an exact
    /// rescue pass only when the runner-up is within the error window.
    /// Lloyd keeps per-point bounds that skip the screen when the previous
    /// assignment provably holds, and fuses the weighted accumulator
    /// updates into the same per-point loop.
    Fused,
}

impl KernelKind {
    /// Human-readable label used in metric names and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Scalar => "scalar",
            KernelKind::Fused => "fused",
        }
    }

    /// Inverse of [`Self::label`], for CLI/config parsing. Returns `None`
    /// for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(KernelKind::Auto),
            "scalar" => Some(KernelKind::Scalar),
            "fused" => Some(KernelKind::Fused),
            _ => None,
        }
    }
}

/// Controls a single Lloyd (k-means) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LloydConfig {
    /// Convergence threshold on the MSE decrease between iterations.
    pub epsilon: f64,
    /// Hard iteration cap (safety valve; `converged == false` when hit).
    pub max_iters: usize,
    /// Assignment-step strategy. [`KernelKind::Auto`] (the default)
    /// resolves to the fused SoA kernel — bit-identical results, just
    /// faster.
    pub kernel: KernelKind,
}

impl Default for LloydConfig {
    fn default() -> Self {
        Self { epsilon: PAPER_EPSILON, max_iters: DEFAULT_MAX_ITERS, kernel: KernelKind::Auto }
    }
}

impl LloydConfig {
    /// Validates field ranges.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(Error::InvalidConfig("epsilon must be finite and >= 0".into()));
        }
        if self.max_iters == 0 {
            return Err(Error::InvalidConfig("max_iters must be at least 1".into()));
        }
        Ok(())
    }

    /// The concrete strategy a run will use: resolves [`KernelKind::Auto`]
    /// to the fused kernel; never returns `Auto`.
    pub fn resolved_kernel(&self) -> KernelKind {
        match self.kernel {
            KernelKind::Auto => KernelKind::Fused,
            k => k,
        }
    }
}

/// How initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// k distinct points drawn uniformly at random (the paper's choice for
    /// the serial and partial steps).
    RandomPoints,
    /// The k points with the largest weights (the paper's choice for the
    /// merge step: "the weight wᵢ of zᵢ is one of the k largest weights").
    HeaviestPoints,
    /// k-means++ (D² sampling). Not used by the paper; provided as an
    /// ablation axis for `ablation_seeding`.
    PlusPlus,
}

/// Full k-means configuration: k, restarts, seeding and the Lloyd knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Number of independent restarts (`R` in the paper); the run with the
    /// minimum MSE wins. The paper uses `R = 10`.
    pub restarts: usize,
    /// Seeding strategy.
    pub seed_mode: SeedMode,
    /// Per-run Lloyd parameters.
    pub lloyd: LloydConfig,
    /// Base RNG seed. Restart `r` derives its own stream from this, so a
    /// given `(seed, r)` pair is reproducible regardless of scheduling.
    pub seed: u64,
}

impl KMeansConfig {
    /// The paper's experimental configuration: `k = 40`, `R = 10`,
    /// `ε = 1e-9`, random-point seeding.
    pub fn paper(k: usize, seed: u64) -> Self {
        Self {
            k,
            restarts: 10,
            seed_mode: SeedMode::RandomPoints,
            lloyd: LloydConfig::default(),
            seed,
        }
    }

    /// Validates field ranges (k and restarts nonzero, Lloyd fields sane).
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.restarts == 0 {
            return Err(Error::InvalidConfig("restarts must be at least 1".into()));
        }
        self.lloyd.validate()
    }
}

/// How a grid cell's points are split into memory-sized chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionSpec {
    /// A fixed number of near-equal chunks (the paper's 5-split / 10-split).
    Count(usize),
    /// As many chunks as needed so that each chunk's point payload fits the
    /// given byte budget — the paper's "partitions that fit into available
    /// volatile memory".
    MemoryBudget {
        /// Volatile-memory budget for one chunk's point payload, in bytes.
        bytes: usize,
    },
    /// A fixed maximum number of points per chunk.
    MaxPoints(usize),
}

impl PartitionSpec {
    /// Resolves the spec into a chunk count for `n` points of `dim` f64s.
    ///
    /// Always returns at least 1; errors if the budget cannot hold a single
    /// point (which would force an infinite number of partitions).
    pub fn resolve(&self, n: usize, dim: usize) -> Result<usize> {
        match *self {
            PartitionSpec::Count(0) => {
                Err(Error::InvalidPartitioning("partition count must be >= 1".into()))
            }
            PartitionSpec::Count(p) => Ok(p),
            PartitionSpec::MemoryBudget { bytes } => {
                let per_point = dim * std::mem::size_of::<f64>();
                let points_per_chunk = bytes / per_point;
                if points_per_chunk == 0 {
                    return Err(Error::InvalidPartitioning(format!(
                        "budget of {bytes} bytes cannot hold one {dim}-dimensional point"
                    )));
                }
                Ok(n.div_ceil(points_per_chunk).max(1))
            }
            PartitionSpec::MaxPoints(0) => {
                Err(Error::InvalidPartitioning("max points per chunk must be >= 1".into()))
            }
            PartitionSpec::MaxPoints(m) => Ok(n.div_ceil(m).max(1)),
        }
    }
}

/// How the merge step consumes the per-chunk centroid sets (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeMode {
    /// Option (b): gather every chunk's weighted centroids and run one
    /// weighted k-means over all of them. The paper argues this is the more
    /// faithful option (no chunk is treated preferentially) and uses it.
    Collective,
    /// Option (a): fold chunks in arrival order, re-clustering the running
    /// centroid set with each new chunk's centroids. Kept as an ablation.
    Incremental,
}

/// Configuration of the full partial/merge pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartialMergeConfig {
    /// k-means parameters shared by the partial runs (the paper fixes one k
    /// for all partitions of a cell).
    pub kmeans: KMeansConfig,
    /// Chunking policy.
    pub partitions: PartitionSpec,
    /// Merge strategy.
    pub merge_mode: MergeMode,
    /// Restarts for the merge k-means. The paper seeds the merge
    /// deterministically with the heaviest centroids, so one run suffices;
    /// more restarts fall back to random seeding for runs beyond the first.
    pub merge_restarts: usize,
    /// How the cell is sliced into chunks (§6 future work; the paper's
    /// experiments use the random-overlap deal).
    pub slicing: crate::slicing::SliceStrategy,
}

impl PartialMergeConfig {
    /// Paper defaults: `k = 40`, `R = 10`, collective merge, shuffled deal.
    pub fn paper(k: usize, partitions: usize, seed: u64) -> Self {
        Self {
            kmeans: KMeansConfig::paper(k, seed),
            partitions: PartitionSpec::Count(partitions),
            merge_mode: MergeMode::Collective,
            merge_restarts: 1,
            slicing: crate::slicing::SliceStrategy::RandomOverlap,
        }
    }

    /// Validates all nested configuration.
    pub fn validate(&self) -> Result<()> {
        self.kmeans.validate()?;
        if self.merge_restarts == 0 {
            return Err(Error::InvalidConfig("merge_restarts must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_constants() {
        let c = KMeansConfig::paper(40, 7);
        assert_eq!(c.k, 40);
        assert_eq!(c.restarts, 10);
        assert_eq!(c.lloyd.epsilon, 1e-9);
        assert_eq!(c.seed_mode, SeedMode::RandomPoints);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = KMeansConfig::paper(40, 0);
        c.k = 0;
        assert_eq!(c.validate(), Err(Error::ZeroK));
        let mut c = KMeansConfig::paper(40, 0);
        c.restarts = 0;
        assert!(c.validate().is_err());
        let mut c = KMeansConfig::paper(40, 0);
        c.lloyd.max_iters = 0;
        assert!(c.validate().is_err());
        let mut c = KMeansConfig::paper(40, 0);
        c.lloyd.epsilon = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn partition_count_resolves_verbatim() {
        assert_eq!(PartitionSpec::Count(5).resolve(75_000, 6).unwrap(), 5);
        assert!(PartitionSpec::Count(0).resolve(10, 6).is_err());
    }

    #[test]
    fn memory_budget_resolves_to_ceiling() {
        // 6-dim points are 48 bytes; 480-byte budget = 10 points per chunk.
        let spec = PartitionSpec::MemoryBudget { bytes: 480 };
        assert_eq!(spec.resolve(100, 6).unwrap(), 10);
        assert_eq!(spec.resolve(101, 6).unwrap(), 11);
        assert_eq!(spec.resolve(0, 6).unwrap(), 1);
    }

    #[test]
    fn memory_budget_too_small_is_error() {
        let spec = PartitionSpec::MemoryBudget { bytes: 47 };
        assert!(spec.resolve(10, 6).is_err());
    }

    #[test]
    fn max_points_resolves_to_ceiling() {
        assert_eq!(PartitionSpec::MaxPoints(2500).resolve(12_500, 6).unwrap(), 5);
        assert_eq!(PartitionSpec::MaxPoints(2500).resolve(12_501, 6).unwrap(), 6);
        assert!(PartitionSpec::MaxPoints(0).resolve(10, 6).is_err());
    }

    #[test]
    fn partial_merge_paper_defaults() {
        let c = PartialMergeConfig::paper(40, 10, 1);
        assert_eq!(c.partitions, PartitionSpec::Count(10));
        assert_eq!(c.merge_mode, MergeMode::Collective);
        assert_eq!(c.slicing, crate::slicing::SliceStrategy::RandomOverlap);
        c.validate().unwrap();
    }

    #[test]
    fn configs_are_serde() {
        // Compile-time check that all config types derive Serialize +
        // Deserialize (the bench crate persists them with serde_json).
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<LloydConfig>();
        assert_serde::<KMeansConfig>();
        assert_serde::<PartialMergeConfig>();
        assert_serde::<PartitionSpec>();
        assert_serde::<MergeMode>();
        assert_serde::<SeedMode>();
    }
}
