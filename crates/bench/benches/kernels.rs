//! Criterion microbench: assignment-step kernels head to head on the
//! paper's fig. 6 workload (6-D MISR-like cells, k = 40).
//!
//! Two views of the same hot path:
//!
//! * `assign/*` — the raw assignment step (nearest centroid for every
//!   point), which is where the fused SoA kernel earns its keep,
//! * `lloyd/*` — five bounded Lloyd iterations end to end per selectable
//!   [`KernelKind`], so layout build + accumulator fusion are priced in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmkm_core::kernel::FusedLayout;
use pmkm_core::point::nearest_centroid;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{lloyd, Dataset, KernelKind, LloydConfig, PointSource, SeedMode};
use pmkm_data::CellConfig;

const K: usize = 40;

fn make_cell(n: usize) -> Dataset {
    pmkm_data::generator::generate_cell(&CellConfig::paper(n, 42)).expect("generator")
}

fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign");
    for &n in &[1_000usize, 10_000] {
        let cell = make_cell(n);
        let init = seed_centroids(&cell, K, SeedMode::RandomPoints, &mut rng_for(7, 0)).unwrap();
        let cents = init.as_flat().to_vec();
        let dim = cell.dim();
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("scalar_k40", n), &cell, |b, cell| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for i in 0..cell.len() {
                    let (_, d) = nearest_centroid(cell.coords(i), &cents, dim);
                    acc += d;
                }
                acc
            })
        });

        group.bench_with_input(BenchmarkId::new("fused_k40", n), &cell, |b, cell| {
            b.iter(|| {
                // Layout build is part of the per-iteration cost.
                let layout = FusedLayout::new(&cents, dim);
                let mut scratch = vec![0.0; layout.scratch_len()];
                let mut acc = 0.0f64;
                for i in 0..cell.len() {
                    let (_, d) = layout.nearest(cell.coords(i), &mut scratch);
                    acc += d;
                }
                acc
            })
        });

        // Screen sweep without the rescue: the SIMD ceiling the fused
        // kernel works against.
        group.bench_with_input(BenchmarkId::new("screen_k40", n), &cell, |b, cell| {
            let layout = FusedLayout::new(&cents, dim);
            let mut scratch = vec![0.0; layout.scratch_len()];
            b.iter(|| {
                let mut acc = 0.0f64;
                for i in 0..cell.len() {
                    acc += layout.screen_only(cell.coords(i), &mut scratch);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_lloyd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("lloyd_kernels");
    let n = 10_000usize;
    let cell = make_cell(n);
    let init = seed_centroids(&cell, K, SeedMode::RandomPoints, &mut rng_for(7, 0)).unwrap();
    group.throughput(Throughput::Elements(n as u64));
    for kernel in [KernelKind::Scalar, KernelKind::Fused] {
        let cfg = LloydConfig { max_iters: 5, epsilon: 0.0, kernel };
        group.bench_with_input(
            BenchmarkId::new(format!("{}_5iters_k40", kernel.label()), n),
            &cell,
            |b, cell| b.iter(|| lloyd::lloyd(cell, &init, &cfg).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_assign, bench_lloyd_kernels);
criterion_main!(benches);
