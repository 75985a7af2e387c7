//! Criterion microbench: the Lloyd assignment/recalculation core — the
//! inner loop all experiments stand on. Measures one bounded run over cell
//! sizes for the default (bound-skipping fused) kernel against the scalar
//! oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{lloyd, Dataset, KernelKind, LloydConfig, SeedMode};
use pmkm_data::CellConfig;

fn make_cell(n: usize) -> Dataset {
    pmkm_data::generator::generate_cell(&CellConfig::paper(n, 42)).expect("generator")
}

fn bench_lloyd(c: &mut Criterion) {
    let mut group = c.benchmark_group("lloyd");
    for &n in &[1_000usize, 10_000] {
        let cell = make_cell(n);
        let init = seed_centroids(&cell, 40, SeedMode::RandomPoints, &mut rng_for(7, 0)).unwrap();
        // Bounded iterations so the bench measures per-iteration cost, not
        // data-dependent convergence length.
        let cfg = LloydConfig { max_iters: 5, epsilon: 0.0, ..LloydConfig::default() };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fused_5iters_k40", n), &cell, |b, cell| {
            b.iter(|| lloyd::lloyd(cell, &init, &cfg).unwrap())
        });
        let scalar = LloydConfig { kernel: KernelKind::Scalar, ..cfg };
        group.bench_with_input(BenchmarkId::new("scalar_5iters_k40", n), &cell, |b, cell| {
            b.iter(|| lloyd::lloyd(cell, &init, &scalar).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lloyd);
criterion_main!(benches);
