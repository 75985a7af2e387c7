//! Records the fused kernel's speedup over the naive scalar search on the
//! paper's 6-D fig. 6 workload (MISR-like cells, k = 40): the raw
//! assignment step, five-iteration Lloyd timings for every selectable
//! [`KernelKind`], the coreset's nearest-representative aggregation
//! (2,000 points × 256 representatives), and a whole Lloyd run to the
//! paper's ε on one fig. 6 chunk, where the fused path's bounds skip most
//! screens.
//!
//! Writes `BENCH_kernels.json` at the repository root (median-of-reps
//! timings, speedups, the fused kernel's rescue and skip rates) and exits
//! non-zero if the assignment step, the coreset aggregation or the whole
//! chunk run is not ≥ 1.5× the scalar one.

use pmkm_bench::report::print_table;
use pmkm_core::kernel::FusedLayout;
use pmkm_core::point::nearest_centroid;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{lloyd, Dataset, KernelKind, KernelStats, LloydConfig, PointSource, SeedMode};
use pmkm_data::CellConfig;
use pmkm_obs::Recorder;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

const K: usize = 40;
const REPS: usize = 9;
/// Points and representatives of the coreset aggregation row: one
/// `stream-coreset` chunk against a full 256-point coreset.
const CORESET_POINTS: usize = 2_000;
const CORESET_REPS: usize = 256;
/// Points of the whole-run row: one chunk of a 15k-point fig. 6 cell split
/// ten ways.
const CHUNK_POINTS: usize = 1_500;

#[derive(Serialize)]
struct AssignRow {
    n: usize,
    scalar_ms: f64,
    fused_ms: f64,
    speedup: f64,
    rescues_per_point: f64,
}

#[derive(Serialize)]
struct LloydRow {
    kernel: &'static str,
    n: usize,
    iters: usize,
    ms: f64,
    speedup_vs_scalar: f64,
}

#[derive(Serialize)]
struct CoresetRow {
    points: usize,
    representatives: usize,
    scalar_ms: f64,
    fused_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ChunkRunRow {
    n: usize,
    iters: usize,
    scalar_ms: f64,
    fused_ms: f64,
    speedup: f64,
    skip_rate: f64,
    rescues_per_point: f64,
}

#[derive(Serialize)]
struct Report {
    workload: &'static str,
    dim: usize,
    k: usize,
    reps: usize,
    assign: Vec<AssignRow>,
    lloyd_5iters: Vec<LloydRow>,
    coreset_aggregation: CoresetRow,
    lloyd_chunk_run: ChunkRunRow,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Median wall time of `f` over [`REPS`] runs, in milliseconds, after
/// one untimed warm-up run (a cold first run skews the gated ratios).
fn time_ms<F: FnMut() -> f64>(mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    let mut sink = f();
    for _ in 0..REPS {
        let t = Instant::now();
        sink += f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    assert!(sink.is_finite());
    median(samples)
}

fn main() {
    let mut assign = Vec::new();
    let mut lloyd_rows = Vec::new();
    let mut worst_speedup = f64::INFINITY;

    for &n in &[10_000usize, 50_000] {
        let cell: Dataset =
            pmkm_data::generator::generate_cell(&CellConfig::paper(n, 42)).expect("generator");
        let dim = cell.dim();
        let init = seed_centroids(&cell, K, SeedMode::RandomPoints, &mut rng_for(7, 0)).unwrap();
        let cents = init.as_flat().to_vec();

        let scalar_ms = time_ms(|| {
            let mut acc = 0.0;
            for i in 0..cell.len() {
                acc += nearest_centroid(cell.coords(i), &cents, dim).1;
            }
            acc
        });
        let mut stats = KernelStats::default();
        let fused_ms = time_ms(|| {
            let layout = FusedLayout::new(&cents, dim);
            let mut scratch = vec![0.0; layout.scratch_len()];
            let mut acc = 0.0;
            for i in 0..cell.len() {
                acc += layout.nearest_counted(cell.coords(i), &mut scratch, &mut stats).1;
            }
            acc
        });

        let speedup = scalar_ms / fused_ms;
        worst_speedup = worst_speedup.min(speedup);
        assign.push(AssignRow {
            n,
            scalar_ms,
            fused_ms,
            speedup,
            rescues_per_point: stats.rescues_per_point(),
        });

        if n == 10_000 {
            let mut scalar_lloyd = 0.0;
            for kernel in [KernelKind::Scalar, KernelKind::Fused] {
                let cfg =
                    LloydConfig { max_iters: 5, epsilon: 0.0, kernel, ..LloydConfig::default() };
                let mut iters = 0;
                let ms = time_ms(|| {
                    let run = lloyd::lloyd(&cell, &init, &cfg).unwrap();
                    iters = run.iterations;
                    run.mse
                });
                if kernel == KernelKind::Scalar {
                    scalar_lloyd = ms;
                }
                lloyd_rows.push(LloydRow {
                    kernel: kernel.label(),
                    n,
                    iters,
                    ms,
                    speedup_vs_scalar: scalar_lloyd / ms,
                });
            }
        }
    }

    let coreset_row = coreset_aggregation();
    let chunk_row = lloyd_chunk_run();
    worst_speedup = worst_speedup.min(coreset_row.speedup).min(chunk_row.speedup);

    print_table(
        "Fused kernel vs scalar — assignment step (6-D, k=40, median of 9)",
        &["N", "scalar ms", "fused ms", "speedup", "rescues/pt"],
        &assign
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    format!("{:.2}", r.scalar_ms),
                    format!("{:.2}", r.fused_ms),
                    format!("{:.2}x", r.speedup),
                    format!("{:.3}", r.rescues_per_point),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Bounded Lloyd (5 iters, k=40, N=10k) per kernel",
        &["kernel", "ms", "vs scalar"],
        &lloyd_rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.to_string(),
                    format!("{:.2}", r.ms),
                    format!("{:.2}x", r.speedup_vs_scalar),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        "Coreset aggregation (2000 points × 256 representatives, 6-D) and a whole Lloyd run on one fig. 6 chunk (k=40, ε=1e-9)",
        &["row", "scalar ms", "fused ms", "speedup", "skip rate"],
        &[
            vec![
                "coreset aggregation".to_string(),
                format!("{:.3}", coreset_row.scalar_ms),
                format!("{:.3}", coreset_row.fused_ms),
                format!("{:.2}x", coreset_row.speedup),
                "-".to_string(),
            ],
            vec![
                format!("lloyd chunk run ({} iters)", chunk_row.iters),
                format!("{:.3}", chunk_row.scalar_ms),
                format!("{:.3}", chunk_row.fused_ms),
                format!("{:.2}x", chunk_row.speedup),
                format!("{:.3}", chunk_row.skip_rate),
            ],
        ],
    );

    let report = Report {
        workload: "fig6 paper cells (6-D MISR-like, CellConfig::paper(n, 42))",
        dim: 6,
        k: K,
        reps: REPS,
        assign,
        lloyd_5iters: lloyd_rows,
        coreset_aggregation: coreset_row,
        lloyd_chunk_run: chunk_row,
    };
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_kernels.json");
    f.write_all(serde_json::to_string_pretty(&report).expect("serialize").as_bytes()).unwrap();
    f.write_all(b"\n").unwrap();
    println!("\n[written] {}", path.display());

    if worst_speedup < 1.5 {
        eprintln!("FAIL: fused speedup {worst_speedup:.2}x < 1.5x acceptance bar");
        std::process::exit(1);
    }
    println!("OK: fused speedup ≥ 1.5x on every gated row (worst {worst_speedup:.2}x)");
}

/// Nearest-representative aggregation as the coreset build runs it: every
/// chunk point against a table of sampled representatives. The scalar side
/// is the loop the build used before it moved onto the fused kernel.
fn coreset_aggregation() -> CoresetRow {
    let cell: Dataset = pmkm_data::generator::generate_cell(&CellConfig::paper(CORESET_POINTS, 43))
        .expect("generator");
    let dim = cell.dim();
    // Every 7th point stands in for the sampled representatives, in
    // ascending index order like the build's.
    let mut table = Vec::with_capacity(CORESET_REPS * dim);
    for r in 0..CORESET_REPS {
        table.extend_from_slice(cell.coords((r * 7) % CORESET_POINTS));
    }
    let scalar_ms = time_ms(|| {
        let mut agg = vec![0.0f64; CORESET_REPS];
        for i in 0..cell.len() {
            agg[nearest_centroid(cell.coords(i), &table, dim).0] += cell.weight(i);
        }
        agg[0]
    });
    let fused_ms = time_ms(|| {
        let layout = FusedLayout::new(&table, dim);
        let mut scratch = vec![0.0; layout.scratch_len()];
        let mut agg = vec![0.0f64; CORESET_REPS];
        for i in 0..cell.len() {
            agg[layout.nearest(cell.coords(i), &mut scratch).0] += cell.weight(i);
        }
        agg[0]
    });
    CoresetRow {
        points: CORESET_POINTS,
        representatives: CORESET_REPS,
        scalar_ms,
        fused_ms,
        speedup: scalar_ms / fused_ms,
    }
}

/// One whole Lloyd run to the paper's ε on a fig. 6 chunk, the unit of work
/// of the partial step, scalar vs fused (with its skip bounds).
fn lloyd_chunk_run() -> ChunkRunRow {
    let cell: Dataset =
        pmkm_data::generator::generate_cell(&CellConfig::paper(10 * CHUNK_POINTS, 42))
            .expect("generator");
    let chunk =
        Dataset::from_flat(cell.dim(), cell.as_flat()[..CHUNK_POINTS * cell.dim()].to_vec())
            .expect("chunk");
    let init = seed_centroids(&chunk, K, SeedMode::RandomPoints, &mut rng_for(9, 0)).unwrap();
    let run = |kernel| {
        let cfg = LloydConfig { kernel, ..LloydConfig::default() };
        let mut iters = 0;
        let ms = time_ms(|| {
            let run = lloyd::lloyd(&chunk, &init, &cfg).unwrap();
            iters = run.iterations;
            run.mse
        });
        (ms, iters)
    };
    let (scalar_ms, iters) = run(KernelKind::Scalar);
    let (fused_ms, fused_iters) = run(KernelKind::Fused);
    assert_eq!(iters, fused_iters, "fused and scalar runs must take the same path");
    let rec = Recorder::new();
    let cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
    lloyd::lloyd_observed(&chunk, &init, &cfg, Some(&rec)).unwrap();
    let counter = |name: &str| rec.registry().counter(name).get() as f64;
    let points = counter("kernel_fused_points_total");
    ChunkRunRow {
        n: CHUNK_POINTS,
        iters,
        scalar_ms,
        fused_ms,
        speedup: scalar_ms / fused_ms,
        skip_rate: counter("kernel_bound_skips_total") / points,
        rescues_per_point: counter("kernel_fused_rescued_total") / points,
    }
}
