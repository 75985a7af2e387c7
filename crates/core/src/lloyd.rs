//! The Lloyd iteration shared by every k-means variant in this crate.
//!
//! One generic implementation over [`PointSource`] covers both of the
//! paper's algorithms:
//!
//! * **unweighted k-means** (§2: serial k-means, and the partial step run on
//!   each chunk) — sources report weight 1.0 per point,
//! * **weighted merge k-means** (§3.3) — sources are weighted centroid sets
//!   and the centroid recalculation computes the *weighted* mean
//!   `µ_j = (Σ w_i c_i) / (Σ w_i)`.
//!
//! Convergence follows the paper exactly: iterate until
//! `MSE(n−1) − MSE(n) ≤ ε` with `ε = 1e-9`, where MSE is the weighted mean
//! of squared point-to-assigned-centroid distances. A hard iteration cap
//! protects against pathological inputs; hitting it is reported via
//! [`LloydRun::converged`].
//!
//! The fused assignment keeps Hamerly-style bounds across iterations and
//! skips the nearest-centroid screen of every point whose previous
//! assignment they prove still holds. A skipped point's distance is still
//! recomputed exactly, so every result field is bit-identical to the
//! scalar scan's (DESIGN.md §9).

use crate::config::{KernelKind, LloydConfig};
use crate::dataset::{Centroids, PointSource};
use crate::error::{Error, Result};
use crate::kernel::{FusedLayout, KernelStats};
use crate::point::{nearest_centroid, sq_dist};
use pmkm_obs::Recorder;

/// Outcome of one converged (or capped) Lloyd run.
#[derive(Debug, Clone, PartialEq)]
pub struct LloydRun {
    /// Final centroid table (`k × dim`).
    pub centroids: Centroids,
    /// Cluster index of every input point, consistent with `centroids`.
    pub assignments: Vec<u32>,
    /// Total input weight assigned to each cluster. For unweighted sources
    /// these are the cluster point-counts — exactly the weights the partial
    /// operator attaches to its emitted centroids.
    pub cluster_weights: Vec<f64>,
    /// The paper's error function: weighted sum of squared distances
    /// (`E` for unweighted sources, `E_pm` for weighted ones).
    pub sse: f64,
    /// `sse / total_weight` — the quantity whose per-iteration decrease
    /// drives convergence and that the paper reports as "MSE".
    pub mse: f64,
    /// Number of centroid-recalculation iterations performed (`I`).
    pub iterations: usize,
    /// False only if the iteration cap was hit before the MSE settled.
    pub converged: bool,
    /// MSE after each distance calculation, starting with `MSE(0)` against
    /// the seeds — `mse_trajectory.len() == iterations + 1`. Monotonically
    /// non-increasing for plain Lloyd steps (empty-cluster re-seeds are the
    /// only way a value can tick up).
    pub mse_trajectory: Vec<f64>,
    /// Empty clusters re-seeded across the whole run. `0` certifies that
    /// `mse_trajectory` is monotone non-increasing (up to FP round-off) —
    /// the property tests lean on this.
    pub reseeds: usize,
}

/// Assignment-phase scratch, reused across iterations to avoid
/// per-iteration allocation.
struct Scratch {
    assignments: Vec<u32>,
    /// Squared distance of each point to its assigned centroid.
    d2: Vec<f64>,
    /// Per-cluster weighted coordinate sums (`k × dim`).
    sums: Vec<f64>,
    /// Per-cluster total weight.
    weights: Vec<f64>,
    /// Screened-distance buffer for the fused kernel (`k` padded to whole
    /// SoA blocks), unused by the scalar path.
    screen: Vec<f64>,
    /// Skip bounds of the fused path, unused by the scalar path.
    bounds: Bounds,
}

impl Scratch {
    fn new(n: usize, k: usize, dim: usize) -> Self {
        Self {
            assignments: vec![0; n],
            d2: vec![0.0; n],
            sums: vec![0.0; k * dim],
            weights: vec![0.0; k],
            screen: Vec::new(),
            bounds: Bounds::new(n, k, dim),
        }
    }
}

/// Hamerly-style bounds that let the fused assignment skip the screen of
/// a point whose assignment provably cannot change. They certify the
/// *scalar* arithmetic: a skipped point gets exactly the index and squared
/// distance the scalar scan would return (DESIGN.md §9).
struct Bounds {
    /// Per point: a lower bound on the (Euclidean, not squared) distance
    /// to every centroid other than its current assignment. `0.0`
    /// certifies nothing.
    lower: Vec<f64>,
    /// Per centroid: a quarter of the squared scalar distance to its
    /// nearest other centroid (the squared half-separation).
    half_sep2: Vec<f64>,
    /// The centroid table before the latest update, to measure drift.
    prev: Vec<f64>,
    /// Work list of the points the bounds could not certify this pass.
    todo: Vec<u32>,
    /// Relative slack applied to every bound: it absorbs the rounding of
    /// `sq_dist` (at most `(dim + 2)·ε` relative — all its terms are
    /// non-negative), of `sqrt`, and of each operation on a bound.
    slack: f64,
}

impl Bounds {
    fn new(n: usize, k: usize, dim: usize) -> Self {
        Self {
            lower: vec![0.0; n],
            half_sep2: vec![0.0; k],
            prev: Vec::new(),
            todo: vec![0; n],
            slack: 1e-10f64.max(64.0 * (dim as f64 + 4.0) * f64::EPSILON),
        }
    }

    /// Remembers the centroid table about to be updated.
    fn snapshot(&mut self, cents: &[f64]) {
        self.prev.clear();
        self.prev.extend_from_slice(cents);
    }

    /// Recomputes the squared half-separations for the centroid table
    /// `cents`. One that overflowed certifies nothing.
    fn separate(&mut self, cents: &[f64], dim: usize) {
        self.half_sep2.fill(f64::INFINITY);
        for (a, ca) in cents.chunks_exact(dim).enumerate() {
            for (b, cb) in cents.chunks_exact(dim).enumerate().skip(a + 1) {
                let d = sq_dist(ca, cb);
                self.half_sep2[a] = self.half_sep2[a].min(d);
                self.half_sep2[b] = self.half_sep2[b].min(d);
            }
        }
        for s in &mut self.half_sep2 {
            *s = if *s < f64::INFINITY { 0.25 * *s } else { 0.0 };
        }
    }

    /// Lowers every point's bound by the largest drift among the centroids
    /// it is not assigned to: the distance to centroid `j` shrinks by at
    /// most how far `j` moved from `prev` to `cents`.
    fn drift(&mut self, cents: &[f64], dim: usize, assignments: &[u32]) {
        let up = 1.0 + self.slack;
        let (mut top, mut top_j, mut second) = (0.0f64, usize::MAX, 0.0f64);
        for (j, (old, new)) in self.prev.chunks_exact(dim).zip(cents.chunks_exact(dim)).enumerate()
        {
            // A NaN drift (poisoned coordinates) must void every bound.
            let d = sq_dist(old, new).sqrt() * up;
            let d = if d >= 0.0 { d } else { f64::INFINITY };
            if d > top {
                (second, top, top_j) = (top, d, j);
            } else if d > second {
                second = d;
            }
        }
        let down = 1.0 - self.slack;
        for (l, &a) in self.lower.iter_mut().zip(assignments) {
            let moved = if a as usize == top_j { second } else { top };
            let v = (*l - moved) * down;
            // Also maps ∞ − ∞ (NaN) to zero.
            *l = if v > 0.0 { v } else { 0.0 };
        }
    }
}

/// Runs Lloyd's algorithm from the given initial centroids.
///
/// # Errors
/// * [`Error::EmptyDataset`] for an empty source,
/// * [`Error::DimensionMismatch`] if `init` and `src` disagree on `dim`,
/// * [`Error::KExceedsPoints`] if `init.k() > src.len()` (more clusters than
///   points can never be non-empty).
pub fn lloyd<S: PointSource + ?Sized>(
    src: &S,
    init: &Centroids,
    cfg: &LloydConfig,
) -> Result<LloydRun> {
    lloyd_observed(src, init, cfg, None)
}

/// [`lloyd`] with observability hooks: when `rec` is `Some`, every
/// iteration emits a `lloyd.iteration` event (MSE, convergence delta,
/// reassignment count) and the fused kernel tallies its rescue and
/// bound-skip counts into the recorder's registry. `None` takes the exact
/// same code path as [`lloyd`].
pub fn lloyd_observed<S: PointSource + ?Sized>(
    src: &S,
    init: &Centroids,
    cfg: &LloydConfig,
    rec: Option<&Recorder>,
) -> Result<LloydRun> {
    cfg.validate()?;
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    if init.dim() != src.dim() {
        return Err(Error::DimensionMismatch { expected: src.dim(), actual: init.dim() });
    }
    let n = src.len();
    let k = init.k();
    if k > n {
        return Err(Error::KExceedsPoints { k, points: n });
    }
    let dim = src.dim();
    let total_weight = src.total_weight();
    debug_assert!(total_weight > 0.0);

    let kernel = cfg.resolved_kernel();
    let mut centroids = init.clone();
    let mut scratch = Scratch::new(n, k, dim);
    // Fused-kernel tallies are two integer bumps per point — cheap enough
    // to keep unconditionally without forking the code path.
    let mut kernel_stats = KernelStats::default();
    // Previous iteration's assignments, kept only to count reassignments.
    let mut prev_assign: Vec<u32> = if rec.is_some() { vec![0; n] } else { Vec::new() };
    // Per-iteration counters, looked up once per run.
    let iteration_counters = rec.map(|r| {
        let reg = r.registry();
        (reg.counter("lloyd_iterations_total"), reg.counter("lloyd_reassignments_total"))
    });

    // Distance calculation against the initial seeds gives MSE(0).
    let mut prev_mse = {
        let _phase = rec.and_then(|r| r.phase("assign"));
        assign(src, &centroids, kernel, &mut scratch, &mut kernel_stats) / total_weight
    };
    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_mse = prev_mse;
    let mut reseeds = 0usize;
    let mut mse_trajectory = Vec::with_capacity(cfg.max_iters.min(64) + 1);
    mse_trajectory.push(prev_mse);

    while iterations < cfg.max_iters {
        if rec.is_some() {
            prev_assign.copy_from_slice(&scratch.assignments);
        }
        // Centroid recalculation: µ_j = Σ w_i v_i / Σ w_i, with empty
        // clusters re-seeded from the points farthest from their centroid.
        reseeds += {
            let _phase = rec.and_then(|r| r.phase("update"));
            if kernel == KernelKind::Fused {
                scratch.bounds.snapshot(centroids.as_flat());
            }
            let reseeded = recompute_means(src, &mut centroids, &mut scratch);
            if kernel == KernelKind::Fused {
                scratch.bounds.drift(centroids.as_flat(), dim, &scratch.assignments);
            }
            reseeded
        };
        let mse = {
            let _phase = rec.and_then(|r| r.phase("assign"));
            assign(src, &centroids, kernel, &mut scratch, &mut kernel_stats) / total_weight
        };
        iterations += 1;
        let delta = prev_mse - mse;
        final_mse = mse;
        prev_mse = mse;
        mse_trajectory.push(mse);
        if let (Some(rec), Some((iters_total, reassigned_total))) = (rec, &iteration_counters) {
            // Convergence bookkeeping (the reassignment diff is an O(n)
            // scan) gets its own phase so it shows up next to the real work.
            let _phase = rec.phase("converge");
            let reassigned =
                prev_assign.iter().zip(scratch.assignments.iter()).filter(|(a, b)| a != b).count()
                    as u64;
            iters_total.inc();
            reassigned_total.add(reassigned);
            rec.event(
                "lloyd.iteration",
                &[
                    ("iter", iterations.into()),
                    ("mse", mse.into()),
                    ("delta", delta.into()),
                    ("reassigned", reassigned.into()),
                ],
            );
        }
        // Plain Lloyd decreases MSE monotonically; a negative delta can only
        // follow an empty-cluster re-seed, in which case we keep iterating.
        if delta >= 0.0 && delta <= cfg.epsilon {
            converged = true;
            break;
        }
    }

    if let Some(rec) = rec {
        if kernel_stats.points > 0 {
            rec.registry().counter("kernel_fused_points_total").add(kernel_stats.points);
            rec.registry().counter("kernel_fused_rescued_total").add(kernel_stats.rescued);
            rec.registry().counter("kernel_bound_skips_total").add(kernel_stats.skipped);
        }
        rec.event(
            "lloyd.kernel",
            &[
                ("kind", kernel.label().into()),
                ("points", kernel_stats.points.into()),
                ("rescued", kernel_stats.rescued.into()),
                ("skipped", kernel_stats.skipped.into()),
                ("rescues_per_point", kernel_stats.rescues_per_point().into()),
                ("reseeds", reseeds.into()),
            ],
        );
    }

    let sse = final_mse * total_weight;
    Ok(LloydRun {
        centroids,
        assignments: std::mem::take(&mut scratch.assignments),
        cluster_weights: std::mem::take(&mut scratch.weights),
        sse,
        mse: final_mse,
        iterations,
        converged,
        mse_trajectory,
        reseeds,
    })
}

/// Distance-calculation step: assigns every point to its nearest centroid,
/// filling `scratch` (assignments, per-point d², per-cluster sums/weights)
/// and returning the weighted SSE.
///
/// Both strategies produce bit-identical contents of `scratch` (the fused
/// kernel's rescue pass recomputes the winning distance with the scalar
/// `sq_dist`, a bound-skipped point recomputes its assigned distance the
/// same way, and the shared accumulation visits points in input order), so
/// iteration counts, trajectories, and final centroids never depend on the
/// kernel choice.
fn assign<S: PointSource + ?Sized>(
    src: &S,
    centroids: &Centroids,
    kernel: KernelKind,
    scratch: &mut Scratch,
    kernel_stats: &mut KernelStats,
) -> f64 {
    let dim = src.dim();
    let cents = centroids.as_flat();
    let n = src.len();

    if kernel == KernelKind::Fused {
        // Fused path. The bound test runs as its own branch-free pass that
        // compacts the points it cannot certify into a work list: a
        // per-point skip branch waits on the sq_dist chain and mispredicts
        // often enough to cost as much as the screen it saves.
        let layout = FusedLayout::new(cents, dim);
        scratch.screen.resize(layout.scratch_len(), 0.0);
        let bounds = &mut scratch.bounds;
        bounds.separate(cents, dim);
        let down = 1.0 - bounds.slack;
        let mut todo = 0usize;
        for i in 0..n {
            // Every other centroid is at least `lower` away, or at least
            // `half_sep` when the point sits within `half_sep` of its
            // centroid (Hamerly's test). Strict `<` after slack: every
            // other scalar distance is then larger, so the scalar scan
            // would pick `a` with exactly this `d2a`.
            let a = scratch.assignments[i] as usize;
            let d2a = sq_dist(src.coords(i), &cents[a * dim..(a + 1) * dim]);
            let l = bounds.lower[i];
            let skip = d2a < (l * l).max(bounds.half_sep2[a]) * down;
            scratch.d2[i] = d2a;
            bounds.todo[todo] = i as u32;
            todo += usize::from(!skip);
        }
        kernel_stats.points += (n - todo) as u64;
        kernel_stats.skipped += (n - todo) as u64;
        for &i in &bounds.todo[..todo] {
            let i = i as usize;
            let (j, d2, lower) =
                layout.nearest_bounded(src.coords(i), &mut scratch.screen, kernel_stats);
            scratch.assignments[i] = j as u32;
            scratch.d2[i] = d2;
            bounds.lower[i] = if lower > 0.0 { lower.sqrt() * down } else { 0.0 };
        }
    } else {
        for (i, (a, d)) in scratch.assignments.iter_mut().zip(scratch.d2.iter_mut()).enumerate() {
            let (j, d2) = nearest_centroid(src.coords(i), cents, dim);
            *a = j as u32;
            *d = d2;
        }
    }

    scratch.sums.fill(0.0);
    scratch.weights.fill(0.0);
    let mut wsse = 0.0;
    for i in 0..n {
        let j = scratch.assignments[i] as usize;
        let w = src.weight(i);
        let sum = &mut scratch.sums[j * dim..(j + 1) * dim];
        for (s, c) in sum.iter_mut().zip(src.coords(i)) {
            *s += w * c;
        }
        scratch.weights[j] += w;
        wsse += w * scratch.d2[i];
    }
    wsse
}

/// Centroid recalculation from the accumulated sums. Clusters that received
/// no weight are re-seeded to the input points currently farthest from their
/// assigned centroid (distinct donors for multiple empty clusters); the
/// paper does not specify an empty-cluster policy, see DESIGN.md §5.
/// Returns how many clusters were re-seeded.
fn recompute_means<S: PointSource + ?Sized>(
    src: &S,
    centroids: &mut Centroids,
    scratch: &mut Scratch,
) -> usize {
    let dim = centroids.dim();
    let k = centroids.k();
    let mut empties: Vec<usize> = Vec::new();
    {
        let flat = centroids.as_flat_mut();
        for j in 0..k {
            let w = scratch.weights[j];
            if w > 0.0 {
                let dst = &mut flat[j * dim..(j + 1) * dim];
                let sum = &scratch.sums[j * dim..(j + 1) * dim];
                for (d, s) in dst.iter_mut().zip(sum) {
                    *d = s / w;
                }
            } else {
                empties.push(j);
            }
        }
    }
    if empties.is_empty() {
        return 0;
    }
    // Rank donor points by their current squared distance, farthest first.
    let n = src.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scratch.d2[b].partial_cmp(&scratch.d2[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let flat = centroids.as_flat_mut();
    for (e, &j) in empties.iter().enumerate() {
        // With k ≤ n there are always enough donors.
        let donor = order[e.min(n - 1)];
        flat[j * dim..(j + 1) * dim].copy_from_slice(src.coords(donor));
    }
    empties.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeedMode;
    use crate::dataset::{Dataset, WeightedSet};
    use crate::seeding::{rng_for, seed_centroids};

    fn two_blob_dataset() -> Dataset {
        // Tight blobs around (0,0) and (100,100).
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..20 {
            let o = (i % 5) as f64 * 0.1;
            ds.push(&[o, -o]).unwrap();
            ds.push(&[100.0 + o, 100.0 - o]).unwrap();
        }
        ds
    }

    fn cfg() -> LloydConfig {
        LloydConfig::default()
    }

    #[test]
    fn converges_on_two_obvious_blobs() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![1.0, 1.0, 99.0, 99.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert!(run.converged);
        assert_eq!(run.cluster_weights, vec![20.0, 20.0]);
        // Means of the blobs: (0.2, -0.2) and (100.2, 99.8).
        let c0 = run.centroids.centroid(0);
        assert!((c0[0] - 0.2).abs() < 1e-12, "c0 = {c0:?}");
        assert!((c0[1] + 0.2).abs() < 1e-12);
        let c1 = run.centroids.centroid(1);
        assert!((c1[0] - 100.2).abs() < 1e-12);
    }

    #[test]
    fn assignments_consistent_with_final_centroids() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        for (i, &a) in run.assignments.iter().enumerate() {
            let (nearest, _) = nearest_centroid(ds.coords(i), run.centroids.as_flat(), 2);
            assert_eq!(a as usize, nearest, "point {i}");
        }
    }

    #[test]
    fn sse_matches_direct_recomputation() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 50.0, 50.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        let mut expect = 0.0;
        for (i, &a) in run.assignments.iter().enumerate() {
            expect += crate::point::sq_dist(ds.coords(i), run.centroids.centroid(a as usize));
        }
        assert!((run.sse - expect).abs() < 1e-9 * expect.max(1.0));
        assert!((run.mse - expect / ds.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn k_equals_one_returns_global_mean() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]]).unwrap();
        let init = Centroids::from_flat(2, vec![100.0, 100.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.centroid(0), &[2.0, 2.0]);
        assert!(run.converged);
    }

    #[test]
    fn k_equals_n_gives_zero_error() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]).unwrap();
        let init = ds.clone();
        let init = Centroids::from_flat(2, init.into_flat()).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.sse, 0.0);
        assert_eq!(run.mse, 0.0);
        assert!(run.converged);
    }

    #[test]
    fn weighted_centroid_recalculation_uses_weighted_mean() {
        // One cluster; weighted mean of {(0, w=1), (10, w=3)} is 7.5.
        let mut ws = WeightedSet::new(1).unwrap();
        ws.push(&[0.0], 1.0).unwrap();
        ws.push(&[10.0], 3.0).unwrap();
        let init = Centroids::from_flat(1, vec![4.0]).unwrap();
        let run = lloyd(&ws, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.centroid(0), &[7.5]);
        assert_eq!(run.cluster_weights, vec![4.0]);
        // E_pm = 1·7.5² + 3·2.5² = 75.0; MSE = 75 / 4.
        assert!((run.sse - 75.0).abs() < 1e-12);
        assert!((run.mse - 18.75).abs() < 1e-12);
    }

    #[test]
    fn weight_scaling_does_not_move_centroids() {
        // Scaling all weights by a constant must leave centroids unchanged.
        let mut a = WeightedSet::new(2).unwrap();
        let mut b = WeightedSet::new(2).unwrap();
        let pts = [[0.0, 1.0], [2.0, 3.0], [10.0, 10.0], [12.0, 9.0]];
        for (i, p) in pts.iter().enumerate() {
            a.push(p, 1.0 + i as f64).unwrap();
            b.push(p, 10.0 * (1.0 + i as f64)).unwrap();
        }
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 11.0, 10.0]).unwrap();
        let ra = lloyd(&a, &init, &cfg()).unwrap();
        let rb = lloyd(&b, &init, &cfg()).unwrap();
        assert_eq!(ra.centroids, rb.centroids);
        assert!((ra.mse - rb.mse).abs() < 1e-12);
        assert!((rb.sse - 10.0 * ra.sse).abs() < 1e-9);
    }

    #[test]
    fn empty_cluster_is_reseeded_not_lost() {
        // Three centroids but the third starts far from all mass: after the
        // first assignment it is empty and must be re-seeded, and the final
        // result must keep k = 3 with no NaNs.
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 100.0, 100.0, 1e6, 1e6]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.k(), 3);
        assert!(run.centroids.as_flat().iter().all(|c| c.is_finite()));
        // Every point is still assigned and weights sum to n.
        let total: f64 = run.cluster_weights.iter().sum();
        assert_eq!(total, ds.len() as f64);
    }

    #[test]
    fn multiple_empty_clusters_get_distinct_donors() {
        // 4 identical-ish points near origin, 4 centroids far away except one.
        let ds = Dataset::from_rows(&[[0.0], [1.0], [2.0], [3.0]]).unwrap();
        let init = Centroids::from_flat(1, vec![0.0, 1e9, 2e9, 3e9]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.k(), 4);
        // With k = n = 4, the optimum puts one centroid on each point.
        let mut finals: Vec<f64> = run.centroids.as_flat().to_vec();
        finals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(finals, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(run.sse, 0.0);
    }

    #[test]
    fn iteration_cap_reports_not_converged() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 0.1, 0.1]).unwrap();
        let tight = LloydConfig { max_iters: 1, ..LloydConfig::default() };
        let run = lloyd(&ds, &init, &tight).unwrap();
        assert_eq!(run.iterations, 1);
        assert!(!run.converged);
    }

    /// A config persisted with the removed `parallel_assign` flag still
    /// loads (the derive skips unknown keys) as the default config, and its
    /// fused assignment agrees with the scalar oracle bit for bit.
    #[test]
    fn parallel_and_serial_assignment_agree() {
        let plain = serde_json::to_string(&LloydConfig::default()).unwrap();
        let legacy = plain.replacen('{', r#"{"parallel_assign":true,"#, 1);
        let loaded: LloydConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(loaded, LloydConfig::default());

        let mut ds = Dataset::new(3).unwrap();
        let mut rng = rng_for(11, 0);
        use rand::Rng;
        for _ in 0..5000 {
            ds.push(&[rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0, rng.gen::<f64>()]).unwrap();
        }
        let init = seed_centroids(&ds, 8, SeedMode::RandomPoints, &mut rng_for(3, 0)).unwrap();
        let fused = lloyd(&ds, &init, &loaded).unwrap();
        let scalar = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let oracle = lloyd(&ds, &init, &scalar).unwrap();
        assert_eq!(oracle.centroids, fused.centroids);
        assert_eq!(oracle.assignments, fused.assignments);
        assert_eq!(oracle.iterations, fused.iterations);
        assert_eq!(oracle.mse_trajectory, fused.mse_trajectory);
    }

    /// The legacy `pruned_assign` flag (whose kernel was removed) is a
    /// pure no-op: configs that persist it still load, as the default
    /// config, and still produce bit-identical results through the fused
    /// kernel.
    #[test]
    fn legacy_pruned_assign_flag_is_a_bit_identical_noop() {
        let plain = serde_json::to_string(&LloydConfig::default()).unwrap();
        let legacy = plain.replacen('{', r#"{"pruned_assign":true,"#, 1);
        let loaded: LloydConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(loaded, LloydConfig::default());
        assert_eq!(loaded.resolved_kernel(), KernelKind::Fused);

        let mut ds = Dataset::new(3).unwrap();
        let mut rng = rng_for(17, 0);
        use rand::Rng;
        for _ in 0..3000 {
            ds.push(&[rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0, rng.gen::<f64>()]).unwrap();
        }
        let init = seed_centroids(&ds, 12, SeedMode::RandomPoints, &mut rng_for(5, 0)).unwrap();
        let plain_run = lloyd(&ds, &init, &LloydConfig::default()).unwrap();
        let flagged = lloyd(&ds, &init, &loaded).unwrap();
        assert_eq!(plain_run.centroids, flagged.centroids);
        assert_eq!(plain_run.assignments, flagged.assignments);
        assert_eq!(plain_run.iterations, flagged.iterations);
        assert_eq!(plain_run.mse, flagged.mse);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let empty = Dataset::new(2).unwrap();
        let init = Centroids::from_flat(2, vec![0.0, 0.0]).unwrap();
        assert_eq!(lloyd(&empty, &init, &cfg()), Err(Error::EmptyDataset));

        let ds = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        let init3 = Centroids::from_flat(3, vec![0.0; 3]).unwrap();
        assert_eq!(
            lloyd(&ds, &init3, &cfg()),
            Err(Error::DimensionMismatch { expected: 2, actual: 3 })
        );

        let init2 = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        assert_eq!(lloyd(&ds, &init2, &cfg()), Err(Error::KExceedsPoints { k: 2, points: 1 }));
    }

    #[test]
    fn mse_trajectory_tracks_every_iteration() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.mse_trajectory.len(), run.iterations + 1);
        assert_eq!(*run.mse_trajectory.last().unwrap(), run.mse);
        for w in run.mse_trajectory.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "trajectory rose: {:?}", run.mse_trajectory);
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_emits_events() {
        use pmkm_obs::RingBufferSink;
        use std::sync::Arc;
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let plain = lloyd(&ds, &init, &cfg()).unwrap();

        let ring = Arc::new(RingBufferSink::new(256));
        let rec = pmkm_obs::Recorder::new().with_sink(ring.clone());
        let observed = lloyd_observed(&ds, &init, &cfg(), Some(&rec)).unwrap();

        assert_eq!(plain.centroids, observed.centroids);
        assert_eq!(plain.mse, observed.mse);
        assert_eq!(plain.mse_trajectory, observed.mse_trajectory);

        let events = ring.events();
        let iters = events.iter().filter(|e| e.name == "lloyd.iteration").count();
        assert_eq!(iters, observed.iterations);
        assert_eq!(events.iter().filter(|e| e.name == "lloyd.kernel").count(), 1);
        let snap = rec.registry().snapshot();
        let fused_points = snap
            .counters
            .iter()
            .find(|c| c.name == "kernel_fused_points_total")
            .map(|c| c.value)
            .unwrap();
        // One fused screen per point per distance calculation.
        assert_eq!(fused_points, (ds.len() * (observed.iterations + 1)) as u64);
    }

    #[test]
    fn zero_iterations_never_happens() {
        // Even a perfectly seeded run performs one recalculation iteration
        // to observe the zero delta.
        let ds = Dataset::from_rows(&[[0.0], [10.0]]).unwrap();
        let init = Centroids::from_flat(1, vec![0.0, 10.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.iterations, 1);
        assert!(run.converged);
    }
}
