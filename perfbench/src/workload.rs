//! The three benchmark workloads: their shape, their generated inputs and
//! the engine plan each one runs under.
//!
//! Inputs derive from the run seed the way the paper built its test data:
//! every cell keeps one fixed Gaussian mixture and size per workload (the
//! "same distribution"), and the seed draws the cell's points (the paper's
//! "versions"). Sizes are stratified over the workload's range and dealt
//! to cells in a fixed shuffled order, so every seed asks for the same
//! amount of work in the same arrangement and only the samples change.

use pmkm_core::seeding::derive_seed;
use pmkm_core::{Dataset, KMeansConfig};
use pmkm_data::generator::generate_cell_with;
use pmkm_data::{BackendKind, CellConfig, Codec, GridBucket, GridCell, DEFAULT_BLOCK_POINTS};
use pmkm_stream::{
    optimize_fixed_split, CoresetSpec, LogicalPlan, OrchestratorOptions, PhysicalPlan, Resources,
};
use std::path::{Path, PathBuf};

/// Worker threads of every orchestrated run (the benchmark machine class
/// has two cores).
pub const JOBS: usize = 2;
/// Shared memory budget: large enough to admit every cell of every
/// workload, so it accounts for admissions without ever blocking them.
pub const BUDGET_BYTES: usize = 64 << 20;
/// Base seed of the clustering itself (restart and chunk streams).
pub const KMEANS_SEED: u64 = 42;
/// Attributes per point (MISR-like radiances).
pub const DIM: usize = 6;
/// Best-of-R restarts of every chunk's partial k-means.
const RESTARTS: usize = 2;
/// Best-of-R restarts of the merge clustering (and of coreset queries).
/// A single heaviest-point-seeded merge leaves a whole mixture component
/// without a centroid in 10-20% of paper cells, which makes the quality
/// figure swing by 15% (classic) to 70% (coreset) between samples of one
/// distribution; best-of-3 removes most of those misses.
const MERGE_RESTARTS: usize = 3;

/// On-disk bucket container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Legacy single-blob `PMKMGB01` bucket.
    Gb01,
    /// `PMKMGB02` block container, raw codec.
    Gb02,
}

/// A size class: `cells` sizes spread evenly over `lo..=hi` points.
#[derive(Debug, Clone, Copy)]
pub struct SizeBand {
    pub cells: usize,
    pub lo: usize,
    pub hi: usize,
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stream tag fixing each cell position's mixture.
    tag: u64,
    pub bands: Vec<SizeBand>,
    pub components: usize,
    pub k: usize,
    pub chunk_points: usize,
    pub format: Format,
    pub backend: BackendKind,
    pub coreset: Option<usize>,
    /// Checkpoints and a ledger sink on, like a production soak.
    pub soak: bool,
}

/// Workload sizes: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

pub const NAMES: [&str; 3] = ["planet-small", "planet-dense", "stream-coreset"];

impl Workload {
    pub fn by_name(name: &str, scale: Scale) -> Option<Self> {
        let w = match name {
            // Thousands of small cells with the production soak's side
            // effects on: per-cell fixed costs dominate.
            "planet-small" => Workload {
                tag: 0x534D_414C_4C00,
                bands: vec![SizeBand { cells: 1000, lo: 300, hi: 2000 }],
                components: 6,
                k: 8,
                chunk_points: 500,
                format: Format::Gb01,
                backend: BackendKind::LocalFile,
                coreset: None,
                soak: true,
            },
            // The paper's fig. 6 cells: Lloyd work in the partial step
            // dominates and per-cell overhead is negligible.
            "planet-dense" => Workload {
                tag: 0x4445_4E53_4500,
                bands: vec![SizeBand { cells: 100, lo: 10_000, hi: 20_000 }],
                components: CellConfig::paper(0, 0).components,
                k: 40,
                chunk_points: 1_500,
                format: Format::Gb02,
                backend: BackendKind::LocalFile,
                coreset: None,
                soak: false,
            },
            // Skewed GB02 cells over mmap through the coreset tree: scan,
            // coreset build and compaction dominate; a few huge cells set
            // the tail.
            "stream-coreset" => Workload {
                tag: 0x434F_5245_5345,
                bands: vec![
                    SizeBand { cells: 96, lo: 4_000, hi: 6_000 },
                    SizeBand { cells: 4, lo: 180_000, hi: 220_000 },
                ],
                components: CellConfig::paper(0, 0).components,
                k: 40,
                chunk_points: 2_000,
                format: Format::Gb02,
                backend: BackendKind::Mmap,
                coreset: Some(256),
                soak: false,
            },
            _ => return None,
        };
        Some(match scale {
            Scale::Full => w,
            Scale::Tiny => w.tiny(),
        })
    }

    /// A few cells of a tenth the size: same code paths, seconds to run.
    fn tiny(mut self) -> Self {
        let n = self.bands.len();
        for (i, b) in self.bands.iter_mut().enumerate() {
            b.cells = if i + 1 == n && n > 1 { 1 } else { 5 };
            b.lo = (b.lo / 10).max(self.k + 1);
            b.hi = (b.hi / 10).max(b.lo);
        }
        self
    }

    pub fn cells(&self) -> usize {
        self.bands.iter().map(|b| b.cells).sum()
    }

    /// Cell `i`'s grid position, spread over the whole planet.
    pub fn grid_cell(&self, i: usize) -> GridCell {
        let index = (i * 64_800 / self.cells()) as u32;
        GridCell::from_index(index).expect("index below 64 800")
    }

    /// Points of every cell, in cell order.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.cells());
        for b in &self.bands {
            for j in 0..b.cells {
                let span = (b.hi - b.lo) as f64;
                sizes.push(b.lo + (span * (j as f64 + 0.5) / b.cells as f64) as usize);
            }
        }
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| derive_seed(self.tag, i as u64));
        order.into_iter().map(|i| sizes[i]).collect()
    }

    pub fn bucket_path(&self, dir: &Path, i: usize) -> PathBuf {
        dir.join(self.grid_cell(i).bucket_file_name())
    }

    /// Generates cell `i` with `points` points for `seed`.
    pub fn generate(&self, seed: u64, i: usize, points: usize) -> Dataset {
        let cfg =
            CellConfig { points, components: self.components, ..CellConfig::paper(points, 0) };
        let distribution = derive_seed(self.tag, i as u64);
        let sample = derive_seed(derive_seed(seed, self.tag ^ 0x5341_4D50), i as u64);
        generate_cell_with(&cfg, distribution, sample).expect("valid mixture parameters")
    }

    /// Writes cell `i` into `dir` in the workload's container format and
    /// returns the file size.
    pub fn write(&self, dir: &Path, i: usize, points: Dataset) -> u64 {
        let path = self.bucket_path(dir, i);
        let bucket = GridBucket { cell: self.grid_cell(i), points };
        match self.format {
            Format::Gb01 => bucket.write_to(&path).expect("write GB01 bucket"),
            Format::Gb02 => {
                pmkm_data::write_gb02(&bucket, &path, Codec::Raw, DEFAULT_BLOCK_POINTS)
                    .expect("write GB02 bucket");
            }
        }
        std::fs::metadata(&path).expect("bucket just written").len()
    }

    /// The physical plan: one partial clone per cell, fixed-size chunks,
    /// the workload's backend and tail operator.
    pub fn plan(&self, dir: &Path) -> PhysicalPlan {
        let inputs = (0..self.cells()).map(|i| self.bucket_path(dir, i)).collect();
        // The default (auto) kernel: the fused SoA kernel.
        let kmeans =
            KMeansConfig { restarts: RESTARTS, ..KMeansConfig::paper(self.k, KMEANS_SEED) };
        let logical = LogicalPlan::new(inputs, kmeans);
        let mut plan =
            optimize_fixed_split(logical, &Resources::fixed(1 << 30, 1), self.chunk_points);
        plan.scan_backend = self.backend;
        plan.logical.merge_restarts = MERGE_RESTARTS;
        plan.coreset = self.coreset.map(CoresetSpec::new);
        plan
    }

    pub fn options(&self, work: &Path) -> OrchestratorOptions {
        let opts = OrchestratorOptions::new(JOBS).with_budget(BUDGET_BYTES);
        if self.soak {
            opts.with_checkpoints(work.join("ckpt"))
        } else {
            opts
        }
    }
}
