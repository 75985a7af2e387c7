//! Differential tests: the fused SoA kernel vs the naive scalar search.
//!
//! The fused kernel ([`FusedLayout`]) screens with the expanded form
//! ‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖² and then *rescues* every candidate inside
//! the floating-point error window with the exact scalar distance, so it
//! promises **bit-identical** results to [`nearest_centroid`] — same index
//! (same lowest-index tie-break) and same distance bits — not merely
//! approximately equal ones. These tests hold it to that promise across
//! dim ∈ [1, 32] and k ∈ [1, 64], including duplicate centroids, exact
//! ties, and degenerate all-equal inputs, and then check that threading the
//! kernel through full Lloyd runs leaves assignments identical and the MSE
//! within 1e-9 relative of the scalar path. The bound-skipping Lloyd and
//! the coreset build's aggregation are held to the same bit-for-bit bar.

use pmkm_core::coreset::chunk_coreset;
use pmkm_core::kernel::FusedLayout;
use pmkm_core::point::nearest_centroid;
use pmkm_core::prelude::*;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{lloyd, Centroids, KernelStats};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;

/// Flat centroid buffer with optional duplicates: with `dup_from` supplied,
/// roughly half the centroids are copies of earlier ones, so ties between
/// identical centroids are common rather than accidental.
fn arb_centroids(max_dim: usize, max_k: usize) -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (1..=max_dim, 1..=max_k).prop_flat_map(|(dim, k)| {
        (
            proptest::collection::vec(-100.0..100.0f64, dim * k),
            proptest::collection::vec(any::<u16>(), k),
        )
            .prop_map(move |(mut flat, dups)| {
                for (j, &d) in dups.iter().enumerate().skip(1) {
                    if d % 2 == 0 {
                        let src = (d as usize) % j;
                        let (a, b) = flat.split_at_mut(j * dim);
                        b[..dim].copy_from_slice(&a[src * dim..src * dim + dim]);
                    }
                }
                (dim, k, flat)
            })
    })
}

fn assert_bit_identical(
    dim: usize,
    cents: &[f64],
    points: &[Vec<f64>],
) -> std::result::Result<(), TestCaseError> {
    let layout = FusedLayout::new(cents, dim);
    let mut scratch = vec![0.0; layout.scratch_len()];
    let mut stats = KernelStats::default();
    for x in points {
        let (fj, fd) = layout.nearest_counted(x, &mut scratch, &mut stats);
        let (sj, sd) = nearest_centroid(x, cents, dim);
        prop_assert_eq!(fj, sj, "index diverged for x = {:?}", x);
        prop_assert_eq!(fd.to_bits(), sd.to_bits(), "distance bits diverged: {} vs {}", fd, sd);
    }
    prop_assert_eq!(stats.points, points.len() as u64);
    prop_assert!(stats.rescued >= stats.points, "each point rescues at least its winner");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The headline differential: random centroid tables (with forced
    // duplicates) and random query points across the full supported shape
    // range. Index AND distance must match the scalar search bit for bit.
    #[test]
    fn kernel_matches_scalar_search(
        (dim, k, cents) in arb_centroids(32, 64),
        raw in proptest::collection::vec(-100.0..100.0f64, 32 * 16),
        n in 1usize..16,
    ) {
        let _ = k;
        let points: Vec<Vec<f64>> =
            (0..n).map(|i| raw[i * dim..(i + 1) * dim].to_vec()).collect();
        assert_bit_identical(dim, &cents, &points)?;
    }

    // Exact-tie stress: every query point IS one of the centroids (distance
    // 0 to it and to all its duplicates), so the lowest-index tie-break is
    // exercised on every lookup.
    #[test]
    fn kernel_matches_on_centroid_queries(
        (dim, k, cents) in arb_centroids(16, 48),
        pick in proptest::collection::vec(any::<usize>(), 8),
    ) {
        let points: Vec<Vec<f64>> = pick
            .iter()
            .map(|&p| {
                let j = p % k;
                cents[j * dim..(j + 1) * dim].to_vec()
            })
            .collect();
        assert_bit_identical(dim, &cents, &points)?;
    }

    // Degenerate inputs: all centroids identical (k-way tie on every query)
    // and zero vectors (‖x‖² = ‖c‖² = 0 cancels the screen to exact zero).
    #[test]
    fn kernel_matches_on_degenerate_tables(
        dim in 1usize..33,
        k in 1usize..65,
        v in -10.0..10.0f64,
    ) {
        let cents = vec![v; dim * k];
        let points = vec![vec![v; dim], vec![0.0; dim], vec![-v; dim]];
        assert_bit_identical(dim, &cents, &points)?;
    }

    // Threaded through full Lloyd runs: the fused path must reproduce the
    // scalar path's assignments exactly and its MSE to ≤ 1e-9 relative —
    // the acceptance bar — on both unweighted and weighted sources.
    #[test]
    fn fused_lloyd_matches_scalar_lloyd(
        flat in proptest::collection::vec(-1000.0..1000.0f64, 6..360),
        dim in 1usize..7,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let n = flat.len() / dim;
        prop_assume!(n >= 1);
        let ds = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 7);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let fused_cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
        let s = lloyd::lloyd(&ds, &init, &scalar_cfg).unwrap();
        let f = lloyd::lloyd(&ds, &init, &fused_cfg).unwrap();

        prop_assert_eq!(&f.assignments, &s.assignments, "assignments diverged");
        prop_assert_eq!(f.iterations, s.iterations);
        let rel = (f.mse - s.mse).abs() / s.mse.abs().max(1.0);
        prop_assert!(rel <= 1e-9, "relative MSE gap {} > 1e-9 ({} vs {})", rel, f.mse, s.mse);
        prop_assert_eq!(f.mse.to_bits(), s.mse.to_bits(), "expected bit-identical MSE");
    }

    // Same bar for weighted sources (the merge step's input) — including
    // k > distinct points, which forces empty clusters and reseeding.
    #[test]
    fn fused_weighted_lloyd_matches_scalar(
        flat in proptest::collection::vec(-50.0..50.0f64, 4..120),
        weights_raw in proptest::collection::vec(0.5..20.0f64, 60),
        dim in 1usize..5,
        k in 1usize..13,
        seed in any::<u64>(),
    ) {
        let n = flat.len() / dim;
        prop_assume!(n >= 1 && k <= n);
        let mut ws = WeightedSet::new(dim).unwrap();
        for i in 0..n {
            ws.push(&flat[i * dim..(i + 1) * dim], weights_raw[i % weights_raw.len()]).unwrap();
        }
        let mut rng = rng_for(seed, 11);
        let init = seed_centroids(&ws, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let fused_cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
        let s = lloyd::lloyd(&ws, &init, &scalar_cfg).unwrap();
        let f = lloyd::lloyd(&ws, &init, &fused_cfg).unwrap();

        prop_assert_eq!(&f.assignments, &s.assignments);
        prop_assert_eq!(f.reseeds, s.reseeds);
        prop_assert_eq!(f.mse.to_bits(), s.mse.to_bits());
    }

    // Every selectable strategy lands on the same geometry: the
    // Auto-resolved fused kernel is bit-identical to scalar.
    #[test]
    fn all_strategies_agree_on_final_mse(
        flat in proptest::collection::vec(-500.0..500.0f64, 8..240),
        dim in 1usize..5,
        k in 1usize..7,
        seed in any::<u64>(),
    ) {
        let n = flat.len() / dim;
        prop_assume!(n >= 1);
        let ds = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 13);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let run = |kernel| {
            let cfg = LloydConfig { kernel, ..LloydConfig::default() };
            lloyd::lloyd(&ds, &init, &cfg).unwrap()
        };
        let scalar = run(KernelKind::Scalar);
        let auto = run(KernelKind::Auto);

        prop_assert_eq!(&auto.assignments, &scalar.assignments);
        prop_assert_eq!(auto.mse.to_bits(), scalar.mse.to_bits(), "Auto must resolve to Fused");
    }
}

/// Everything a Lloyd run reports, compared bit for bit.
fn assert_same_run(
    f: &lloyd::LloydRun,
    s: &lloyd::LloydRun,
) -> std::result::Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(f.centroids.as_flat()), bits(s.centroids.as_flat()), "centroids");
    prop_assert_eq!(&f.assignments, &s.assignments, "assignments");
    prop_assert_eq!(bits(&f.cluster_weights), bits(&s.cluster_weights), "cluster weights");
    prop_assert_eq!(bits(&f.mse_trajectory), bits(&s.mse_trajectory), "mse trajectory");
    prop_assert_eq!(f.sse.to_bits(), s.sse.to_bits(), "sse");
    prop_assert_eq!(f.iterations, s.iterations, "iterations");
    prop_assert_eq!(f.reseeds, s.reseeds, "reseeds");
    prop_assert_eq!(f.converged, s.converged, "converged");
    Ok(())
}

/// Blob data for the bounded-Lloyd differential: `blobs` centers drawn
/// from the raw values, points jittered around them, each point scaled by
/// one of a few magnitudes (huge gaps included) and weighted or not.
fn blob_source(
    dim: usize,
    n: usize,
    blobs: usize,
    raw: &[f64],
    scales: &[u8],
    weights: Option<&[f64]>,
) -> WeightedSet {
    const MAGNITUDES: [f64; 4] = [1.0, 1e-6, 1e6, 1e150];
    let mut ws = WeightedSet::new(dim).unwrap();
    let mut x = vec![0.0; dim];
    for i in 0..n {
        let b = i % blobs;
        let scale = MAGNITUDES[usize::from(scales[i % scales.len()]) % MAGNITUDES.len()];
        for (d, v) in x.iter_mut().enumerate() {
            let center = raw[(b * dim + d) % raw.len()] * 10.0;
            let jitter = raw[(i * 7 + d * 3 + 1) % raw.len()] * 0.05;
            *v = (center + jitter) * scale;
        }
        ws.push(&x, weights.map_or(1.0, |w| w[i % w.len()])).unwrap();
    }
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The bound-skipping fused Lloyd against the scalar oracle, bit for
    // bit: centroids, assignments, weights, trajectory, iterations and
    // reseeds. Duplicate seeds and far-away seeds force ties and
    // empty-cluster reseeds; magnitudes from 1e-6 to 1e150 stress the
    // slack and the overflow guard.
    #[test]
    fn bounded_fused_lloyd_matches_scalar_bit_for_bit(
        k_pick in 0usize..6,
        dim in 1usize..7,
        extra in 0usize..200,
        blobs in 1usize..12,
        raw in proptest::collection::vec(-10.0..10.0f64, 64),
        scales in proptest::collection::vec(0u8..8, 1..6),
        weighted in any::<bool>(),
        weights in proptest::collection::vec(0.5..20.0f64, 1..40),
        dups in proptest::collection::vec(any::<u16>(), 0..6),
        far in 0usize..3,
        seed in any::<u64>(),
    ) {
        let k = [1usize, 7, 8, 9, 40, 256][k_pick];
        let n = k + extra;
        let src = blob_source(dim, n, blobs, &raw, &scales, weighted.then_some(&weights[..]));
        let mut rng = rng_for(seed, 5);
        let init = seed_centroids(&src, k, SeedMode::RandomPoints, &mut rng).unwrap();
        let mut flat = init.as_flat().to_vec();
        for &d in &dups {
            // Centroid `j` becomes a copy of an earlier one.
            let j = usize::from(d) % k;
            if j > 0 {
                let from = usize::from(d / 7) % j;
                flat.copy_within(from * dim..(from + 1) * dim, j * dim);
            }
        }
        for j in 0..far.min(k - 1) {
            // Seeds far from all mass start empty and must be reseeded.
            flat[(k - 1 - j) * dim] += 1e7;
        }
        let init = Centroids::from_flat(dim, flat).unwrap();

        let run = |kernel| {
            let cfg = LloydConfig { kernel, max_iters: 300, ..LloydConfig::default() };
            lloyd::lloyd(&src, &init, &cfg).unwrap()
        };
        assert_same_run(&run(KernelKind::Fused), &run(KernelKind::Scalar))?;
    }
}

/// The bit-identity above must not hold vacuously: on clustered data the
/// bounds skip most screens in the later iterations, and the skipped
/// points still land exactly where the scalar oracle puts them — also
/// after an empty cluster is reseeded (a seed far from all mass).
#[test]
fn bounds_skip_screens_and_stay_exact() {
    let mut ds = Dataset::new(3).unwrap();
    let mut rng = rng_for(31, 0);
    use rand::Rng;
    for i in 0..3000 {
        let c = (i % 12) as f64 * 20.0;
        ds.push(&[c + rng.gen_range(-3.0..3.0), -c + rng.gen_range(-3.0..3.0), rng.gen()]).unwrap();
    }
    let init = seed_centroids(&ds, 12, SeedMode::RandomPoints, &mut rng_for(4, 0)).unwrap();
    let mut flat = init.as_flat().to_vec();
    flat[11 * 3] = 1e6;
    let init = Centroids::from_flat(3, flat).unwrap();
    let rec = pmkm_obs::Recorder::new();
    let fused = lloyd::lloyd_observed(&ds, &init, &LloydConfig::default(), Some(&rec)).unwrap();
    let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
    let scalar = lloyd::lloyd(&ds, &init, &scalar_cfg).unwrap();
    assert_same_run(&fused, &scalar).unwrap();
    assert!(fused.reseeds > 0, "the far seed must start empty");

    let counter = |name: &str| rec.registry().counter(name).get();
    let points = counter("kernel_fused_points_total");
    let skipped = counter("kernel_bound_skips_total");
    // Skipped points still count as assigned, once per point per pass.
    assert_eq!(points, (ds.len() * (fused.iterations + 1)) as u64);
    assert!(skipped * 2 > points, "bounds skipped only {skipped} of {points} screens");
}

/// `chunk_coreset` as it was before the fused kernel: the same sampling,
/// with the nearest-representative search as a plain scalar loop (strict
/// `<`, so ties go to the lowest index).
fn scalar_reference_coreset(src: &WeightedSet, size: usize, rng: &mut StdRng) -> WeightedSet {
    use pmkm_core::point::sq_dist;
    use rand::Rng;
    let (n, dim) = (src.len(), src.dim());
    let mut out = WeightedSet::new(dim).unwrap();
    if n <= size {
        for i in 0..n {
            out.push(src.coords(i), src.weight(i)).unwrap();
        }
        return out;
    }
    let total_w = src.total_weight();
    let mut mean = vec![0.0f64; dim];
    for i in 0..n {
        for (m, &x) in mean.iter_mut().zip(src.coords(i)) {
            *m += src.weight(i) * x;
        }
    }
    for m in &mut mean {
        *m /= total_w;
    }
    let d2: Vec<f64> = (0..n).map(|i| sq_dist(src.coords(i), &mean)).collect();
    let sum_wd2: f64 = (0..n).map(|i| src.weight(i) * d2[i]).sum();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for (i, d) in d2.iter().enumerate() {
        let w = src.weight(i);
        acc += if sum_wd2 > 0.0 { 0.5 * w / total_w + 0.5 * w * d / sum_wd2 } else { w / total_w };
        cum.push(acc);
    }
    let mut chosen = std::collections::BTreeSet::new();
    for _ in 0..size {
        let t = rng.gen_range(0.0..acc);
        chosen.insert(cum.partition_point(|&c| c <= t).min(n - 1));
    }
    let reps: Vec<usize> = chosen.into_iter().collect();
    let mut agg = vec![0.0f64; reps.len()];
    for i in 0..n {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (j, &r) in reps.iter().enumerate() {
            let d = sq_dist(src.coords(i), src.coords(r));
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        agg[best] += src.weight(i);
    }
    for (j, &r) in reps.iter().enumerate() {
        if agg[j] > 0.0 {
            out.push(src.coords(r), agg[j]).unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The coreset build's aggregation on the fused kernel gives the same
    // representatives and the same weight bits as the scalar loop. Inputs
    // repeat coordinates often (a compaction's union holds the same point
    // twice), so representatives with duplicate coordinates tie exactly.
    #[test]
    fn chunk_coreset_matches_scalar_reference_aggregation(
        dim in 1usize..7,
        size in 1usize..300,
        raw in proptest::collection::vec(-50.0..50.0f64, 6..1800),
        repeat in 1usize..4,
        weights in proptest::collection::vec(1u8..9, 1..30),
        seed in any::<u64>(),
    ) {
        let n = raw.len() / dim;
        prop_assume!(n >= 1);
        let mut src = WeightedSet::new(dim).unwrap();
        for _ in 0..repeat {
            for i in 0..n {
                src.push(&raw[i * dim..(i + 1) * dim], f64::from(weights[i % weights.len()]))
                    .unwrap();
            }
        }
        let fused = chunk_coreset(&src, size, &mut rng_for(seed, 1)).unwrap();
        let scalar = scalar_reference_coreset(&src, size, &mut rng_for(seed, 1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(fused.as_flat()), bits(scalar.as_flat()), "representatives");
        prop_assert_eq!(bits(fused.weights()), bits(scalar.weights()), "weights");
        prop_assert_eq!(fused.total_weight(), src.total_weight(), "mass conserved");
    }
}
