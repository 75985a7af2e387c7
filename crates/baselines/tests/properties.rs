//! Property tests for the baseline algorithms' invariants.

use pmkm_baselines::{
    birch, method_a, method_b, method_c, stream_lsearch, BirchConfig, ClusteringFeature,
    StreamLsConfig,
};
use pmkm_core::{kmeans, Dataset, KMeansConfig, PointSource};
use proptest::prelude::*;

fn arb_dataset(min_n: usize) -> impl Strategy<Value = Dataset> {
    (1usize..4, min_n..60usize).prop_flat_map(move |(dim, n)| {
        proptest::collection::vec(-500.0..500.0f64, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn birch_conserves_weight(ds in arb_dataset(1), threshold in 0.0..100.0f64) {
        let cfg = BirchConfig { threshold, k: 4, ..BirchConfig::default() };
        let out = birch(&ds, &cfg).unwrap();
        let total: f64 = out.cluster_weights.iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert!(out.leaf_entries >= 1);
        prop_assert!(out.leaf_entries <= ds.len());
        prop_assert!(out.tree_height >= 1);
    }

    #[test]
    fn cf_merge_is_commutative(
        a in proptest::collection::vec(-100.0..100.0f64, 2),
        b in proptest::collection::vec(-100.0..100.0f64, 2),
        c in proptest::collection::vec(-100.0..100.0f64, 2),
    ) {
        let cf = |p: &[f64]| ClusteringFeature::from_point(p);
        let mut abc = cf(&a);
        abc.merge(&cf(&b));
        abc.merge(&cf(&c));
        let mut cba = cf(&c);
        cba.merge(&cf(&b));
        cba.merge(&cf(&a));
        prop_assert_eq!(abc.n, cba.n);
        for (x, y) in abc.ls.iter().zip(&cba.ls) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        prop_assert!((abc.ss - cba.ss).abs() < 1e-6 * abc.ss.abs().max(1.0));
        prop_assert!(abc.radius() >= 0.0);
    }

    #[test]
    fn stream_ls_conserves_weight(ds in arb_dataset(1), chunks in 1usize..6) {
        let cfg = StreamLsConfig { k: 3, max_retained: 30, swap_attempts: 20, seed: 1 };
        let out = stream_lsearch(&ds, chunks, cfg).unwrap();
        let total: f64 = out.centers.weights().iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert!(out.centers.len() <= 3 || ds.len() <= 3);
    }

    #[test]
    fn method_a_always_equals_serial(
        cells in proptest::collection::vec(arb_dataset(6), 4..7),
        seed in any::<u64>(),
        workers in 1usize..4,
    ) {
        // More cells than threads, so every thread takes several cells.
        let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, seed) };
        let parallel = method_a(&cells, &cfg, workers).unwrap();
        prop_assert_eq!(parallel.cells.len(), cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let cell_cfg =
                KMeansConfig { seed: pmkm_core::seeding::derive_seed(seed, i as u64), ..cfg };
            let serial = kmeans(cell, &cell_cfg).unwrap();
            prop_assert_eq!(&parallel.cells[i].best.centroids, &serial.best.centroids);
            prop_assert_eq!(parallel.cells[i].best_restart, serial.best_restart);
        }
    }

    #[test]
    fn method_b_always_equals_serial(
        ds in arb_dataset(6),
        seed in any::<u64>(),
        workers in 1usize..4,
    ) {
        let k = 3.min(ds.len());
        let cfg = KMeansConfig { restarts: 3, ..KMeansConfig::paper(k, seed) };
        let serial = kmeans(&ds, &cfg).unwrap();
        let parallel = method_b(&ds, &cfg, workers).unwrap();
        prop_assert_eq!(parallel.best.centroids, serial.best.centroids);
        prop_assert_eq!(parallel.best_restart, serial.best_restart);
    }

    #[test]
    fn method_c_threaded_runs_repeat_and_count_messages(
        ds in arb_dataset(6),
        seed in any::<u64>(),
    ) {
        let k = 2.min(ds.len());
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(k, seed) };
        for slaves in [2, 3] {
            let a = method_c(&ds, &cfg, slaves).unwrap();
            let b = method_c(&ds, &cfg, slaves).unwrap();
            prop_assert_eq!(&a.centroids, &b.centroids);
            prop_assert_eq!(a.iterations, b.iterations);
            // One broadcast and one reply per slave in each round: the
            // initial assignment plus one round per iteration.
            prop_assert_eq!(a.messages, 2 * slaves * (a.iterations + 1));
        }
    }

    #[test]
    fn method_c_single_slave_is_bit_exact(ds in arb_dataset(6), seed in any::<u64>()) {
        let k = 2.min(ds.len());
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(k, seed) };
        let serial = {
            let mut rng = pmkm_core::seeding::rng_for(seed, 0);
            let init = pmkm_core::seeding::seed_centroids(
                &ds,
                k,
                pmkm_core::SeedMode::RandomPoints,
                &mut rng,
            )
            .unwrap();
            pmkm_core::lloyd::lloyd(&ds, &init, &cfg.lloyd).unwrap()
        };
        let dist = method_c(&ds, &cfg, 1).unwrap();
        prop_assert_eq!(dist.centroids, serial.centroids);
        prop_assert_eq!(dist.iterations, serial.iterations);
    }
}
