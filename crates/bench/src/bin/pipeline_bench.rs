//! Continuous perf-regression harness for the end-to-end partial/merge
//! pipeline (PR 3 acceptance artifact).
//!
//! Runs the fig. 6-style workload (one MISR-like 6-D cell, k = 40) through
//! the serial in-process `partial_merge` reference path (scalar and fused
//! kernels), the full stream engine (`execute` over an on-disk bucket,
//! scalar and fused kernels), the multi-cell orchestrator (8 cells, 1 vs 4
//! work-stealing workers), and scan-only storage rows (GB01 buffered vs
//! the GB02 block container across every backend × codec, with a smoke
//! gate asserting the mmap zero-copy scan beats the buffered reader),
//! recording throughput (points/s), per-phase wall times, `E_pm`, and the
//! span profiler's phase breakdown + measured overhead into
//! `BENCH_pipeline.json` at the repository root.
//!
//! Measurement methodology: every configuration gets one untimed warmup
//! run, then `reps` timed unprofiled/profiled run PAIRS, interleaved; each
//! arm reports its median and the profiler overhead is the ratio of the
//! two medians. Warming both arms identically and interleaving them is
//! what makes the overhead number meaningful — a cold first sample in only
//! one arm (or clock/load drift across two sequential arms) used to skew
//! it negative.
//!
//! Flags:
//! - `--quick`            small workload for CI smoke tests
//! - `--out PATH`         write the report somewhere else
//! - `--baseline PATH`    compare against a previous report; exits 1 if any
//!   configuration's throughput regressed by more than 10% (printing a
//!   per-phase attribution of where the regression's time went), 2 if the
//!   baseline's workload parameters don't match
//! - `--ledger PATH`      journal the profiled stream-engine run (fused
//!   kernel) as an append-only JSONL run ledger, diffable with `pmkm diff`
//! - `--simulate-regression FRAC`  scale measured throughput down by FRAC
//!   (e.g. 0.5 halves it) — lets CI prove the regression gate fires

use pmkm_bench::report::print_table;
use pmkm_core::{
    partial_merge, partial_merge_observed, Dataset, KMeansConfig, KernelKind, PartialMergeConfig,
    PartitionSpec,
};
use pmkm_data::{CellConfig, GridBucket, GridCell};
use pmkm_obs::{PhaseReport, Profiler, Recorder, Timeline};
use pmkm_stream::{execute, optimize_fixed_split, LogicalPlan, Resources};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

const SCHEMA_VERSION: u32 = 4;
const SEED: u64 = 42;
const K: usize = 40;
const PARTITIONS: usize = 10;
const CLONES: usize = 4;
/// A configuration fails the gate when its throughput drops below this
/// fraction of the baseline's.
const REGRESSION_FLOOR: f64 = 0.90;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Params {
    n: usize,
    dim: usize,
    k: usize,
    partitions: usize,
    restarts: usize,
    reps: usize,
    seed: u64,
}

#[derive(Serialize, Deserialize, Debug, Clone)]
struct Row {
    /// `family/kernel`, e.g. `serial/scalar` or `stream4/fused`.
    config: String,
    workers: usize,
    kernel: String,
    total_ms: f64,
    partial_ms: f64,
    merge_ms: f64,
    points_per_sec: f64,
    epm: f64,
    /// Extra wall time of the profiled median over the unprofiled median,
    /// in percent. The arms share one untimed warmup and run as `reps`
    /// interleaved pairs, so the comparison is warm-vs-warm and drift-free
    /// (still noisy on small workloads; the zero-cost-when-off guarantee
    /// is pinned by tests, not by this number).
    profiler_overhead_pct: f64,
    phases: Vec<PhaseReport>,
}

#[derive(Serialize, Deserialize, Debug, Clone)]
struct Report {
    schema_version: u32,
    workload: String,
    /// Machine-class fingerprint (cpu model + core count). Baselines only
    /// gate against reports from the same class; empty in pre-v4 documents.
    #[serde(default)]
    machine: String,
    params: Params,
    rows: Vec<Row>,
}

/// The machine-class key for baseline lookups: normalized CPU model name
/// plus logical core count. Throughput numbers travel poorly across
/// hardware, so the regression gate only fires within one class.
fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == "model name").then(|| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    format!("{}/{}x", model.split_whitespace().collect::<Vec<_>>().join(" "), cores)
}

struct Opts {
    quick: bool,
    out: Option<String>,
    baseline: Option<String>,
    ledger: Option<String>,
    simulate_regression: f64,
}

fn parse_opts() -> Opts {
    let mut opts =
        Opts { quick: false, out: None, baseline: None, ledger: None, simulate_regression: 0.0 };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut take = |key: &str| -> Option<String> {
            if let Some(v) = arg.strip_prefix(&format!("{key}=")) {
                return Some(v.to_string());
            }
            if arg == key {
                i += 1;
                return Some(args.get(i).unwrap_or_else(|| usage(key)).clone());
            }
            None
        };
        if arg == "--quick" {
            opts.quick = true;
        } else if let Some(v) = take("--out") {
            opts.out = Some(v);
        } else if let Some(v) = take("--baseline") {
            opts.baseline = Some(v);
        } else if let Some(v) = take("--ledger") {
            opts.ledger = Some(v);
        } else if let Some(v) = take("--simulate-regression") {
            opts.simulate_regression = v.parse().unwrap_or_else(|_| usage("--simulate-regression"));
        } else {
            usage(arg);
        }
        i += 1;
    }
    opts
}

fn usage(offender: &str) -> ! {
    eprintln!(
        "pipeline_bench: bad argument near '{offender}'\n\
         usage: pipeline_bench [--quick] [--out PATH] [--baseline PATH] \
         [--ledger PATH] [--simulate-regression FRAC]"
    );
    std::process::exit(2)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Benchmarks the serial in-process pipeline (`partial_merge`), the
/// reference oracle the stream-engine rows are compared against.
fn bench_serial(cell: &Dataset, params: &Params, kernel: KernelKind) -> Row {
    let mut cfg = PartialMergeConfig {
        kmeans: KMeansConfig {
            restarts: params.restarts,
            ..KMeansConfig::paper(params.k, params.seed)
        },
        partitions: PartitionSpec::Count(params.partitions),
        ..PartialMergeConfig::paper(params.k, params.partitions, params.seed)
    };
    cfg.kmeans.lloyd.kernel = kernel;

    let run = || partial_merge(cell, &cfg).expect("pipeline run");
    // One untimed warmup, then `reps` INTERLEAVED unprofiled/profiled
    // pairs, each arm reporting its median (see the module doc). Each
    // profiled rep gets a fresh recorder so the reported phases are
    // per-run, not a sum over reps; the last rep's breakdown is kept.
    // The per-phase times are medians of the same timed reps as the total.
    let res = run();
    let mut samples = Vec::with_capacity(params.reps);
    let mut partial_samples = Vec::with_capacity(params.reps);
    let mut merge_samples = Vec::with_capacity(params.reps);
    let mut profiled_samples = Vec::with_capacity(params.reps);
    let mut last = None;
    for _ in 0..params.reps {
        let t = Instant::now();
        let timed = run();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        partial_samples.push(timed.partial_elapsed.as_secs_f64() * 1e3);
        merge_samples.push(timed.merge.elapsed.as_secs_f64() * 1e3);

        let rec = Recorder::new().with_profiler(Arc::new(Profiler::new()));
        let t = Instant::now();
        let (p, _report) =
            partial_merge_observed(cell, &cfg, Some(&rec)).expect("profiled pipeline run");
        profiled_samples.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((p, rec));
    }
    let total_ms = median(samples);
    let profiled_ms = median(profiled_samples);
    let (profiled, rec) = last.expect("reps >= 1");
    assert_eq!(
        profiled.merge.centroids, res.merge.centroids,
        "profiling must not change results ({kernel:?})"
    );

    Row {
        config: format!("serial/{}", kernel.label()),
        workers: 0,
        kernel: kernel.label().to_string(),
        total_ms,
        partial_ms: median(partial_samples),
        merge_ms: median(merge_samples),
        points_per_sec: params.n as f64 / (total_ms / 1e3),
        epm: res.merge.epm,
        profiler_overhead_pct: (profiled_ms - total_ms) / total_ms * 100.0,
        phases: rec.phase_rows(),
    }
}

/// Benchmarks the full stream engine — scan from an on-disk bucket through
/// chunker, cloned partial workers, and merge — via `execute`.
/// Chunk boundaries differ from `partial_merge`'s partitioning, so these
/// rows carry their own `E_pm` and are excluded from the cross-config
/// equality check.
fn bench_stream(
    cell: &Dataset,
    params: &Params,
    workers: usize,
    kernel: KernelKind,
    ledger: Option<Arc<pmkm_obs::LedgerSink>>,
    coreset: Option<usize>,
) -> Row {
    let dir = std::env::temp_dir().join(format!("pmkm_pipeline_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let gcell = GridCell::new(0, 0).expect("grid cell");
    let path = dir.join(gcell.bucket_file_name());
    GridBucket { cell: gcell, points: cell.clone() }.write_to(&path).expect("write bucket");

    let mut kmeans =
        KMeansConfig { restarts: params.restarts, ..KMeansConfig::paper(params.k, params.seed) };
    kmeans.lloyd.kernel = kernel;
    let logical = LogicalPlan::new(vec![path.clone()], kmeans);
    let mut plan = optimize_fixed_split(
        logical,
        &Resources::fixed(1 << 30, workers),
        params.n.div_ceil(params.partitions),
    );
    plan.coreset = coreset.map(pmkm_stream::CoresetSpec::new);

    // Warm once, then `reps` interleaved unprofiled/profiled pairs with a
    // median per arm (see the module doc). Fresh recorder per profiled rep
    // (per-run phases); only the last rep journals to the ledger, so the
    // JSONL stays a single-run record.
    let report = execute(&plan, None, None).expect("stream engine warmup");
    assert_eq!(report.cells.len(), 1, "one bucket in, one clustering out");
    assert!(!report.degraded, "fault-free bench run must not be degraded");
    let mut samples = Vec::with_capacity(params.reps);
    let mut profiled_samples = Vec::with_capacity(params.reps);
    let mut last = None;
    for rep in 0..params.reps {
        let t = Instant::now();
        execute(&plan, None, None).expect("stream engine run");
        samples.push(t.elapsed().as_secs_f64() * 1e3);

        let mut rec = Recorder::new().with_profiler(Arc::new(Profiler::new()));
        if rep + 1 == params.reps {
            if let Some(sink) = ledger.clone() {
                rec = rec.with_sink(sink);
            }
        }
        let rec = Arc::new(rec);
        let t = Instant::now();
        let obs = execute(&plan, Some(Arc::clone(&rec)), None).expect("observed engine run");
        profiled_samples.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((obs, rec));
    }
    let total_ms = median(samples);
    let profiled_ms = median(profiled_samples);
    let (observed, rec) = last.expect("reps >= 1");
    assert_eq!(
        observed.cells[0].output.centroids, report.cells[0].output.centroids,
        "observation must not change stream-engine results ({workers} workers, {kernel:?})"
    );

    if coreset.is_some() {
        let stats = report.cells[0].coreset.expect("coreset stats on a coreset bench run");
        assert!(
            stats.live_buckets as u32 <= (stats.builds as usize).ilog2() + 1,
            "coreset memory bound violated at bench scale: {stats:?}"
        );
    }

    let phases = rec.phase_rows();
    let phase_ms = |name: &str| {
        phases.iter().find(|p| p.path == name).map_or(0.0, |p| p.total_us as f64 / 1e3)
    };
    let _ = std::fs::remove_file(&path);
    let family = if coreset.is_some() { "coreset" } else { "stream" };
    Row {
        config: format!("{family}{workers}/{}", kernel.label()),
        workers,
        kernel: kernel.label().to_string(),
        total_ms,
        // In coreset mode the per-chunk work is the coreset build (phase
        // "coreset"), not partial k-means.
        partial_ms: phase_ms("partial") + phase_ms("coreset"),
        merge_ms: phase_ms("merge"),
        points_per_sec: params.n as f64 / (total_ms / 1e3),
        epm: report.cells[0].output.epm,
        profiler_overhead_pct: (profiled_ms - total_ms) / total_ms * 100.0,
        phases,
    }
}

/// Scan-only rows: drain the fig6 bucket through the GB01 buffered reader
/// and through the GB02 block container across every backend × codec
/// combination. Each timed sample scans the file several times (more on
/// the `--quick` workload) so per-pass open cost stays measurable above
/// timer noise; rows report the median, while the mmap-vs-buffered smoke
/// below compares best-of-reps, the robust "how fast can this go"
/// estimator.
///
/// Smoke gate: the mmap backend's raw-codec (zero-copy) scan must be at
/// least as fast as the GB01 buffered reader — the container's reason to
/// exist on scan-bound workloads.
fn bench_scan(cell: &Dataset, params: &Params) -> Vec<Row> {
    use pmkm_data::{BackendKind, BucketReader, Codec, Gb02Reader};
    const SCAN_REPS: usize = 9;
    let dir = std::env::temp_dir().join(format!("pmkm_scan_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scan bench dir");
    let gcell = GridCell::new(3, 3).expect("grid cell");
    let bucket = GridBucket { cell: gcell, points: cell.clone() };
    let gb01 = dir.join("scan.gb");
    bucket.write_to(&gb01).expect("write gb01 scan bucket");
    let n = params.n;
    let flat_len = n * params.dim;
    let passes = (2_000_000 / n.max(1)).clamp(1, 64);

    // Returns (median_ms, best_ms) per single pass.
    let time_scan = |f: &mut dyn FnMut() -> usize| -> (f64, f64) {
        assert_eq!(f(), flat_len, "scan must drain the whole bucket");
        let mut samples = Vec::with_capacity(SCAN_REPS);
        for _ in 0..SCAN_REPS {
            let t = Instant::now();
            for _ in 0..passes {
                f();
            }
            samples.push(t.elapsed().as_secs_f64() * 1e3 / passes as f64);
        }
        let best = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        (median(samples), best)
    };
    let scan_row = |config: String, ms: f64| Row {
        config,
        workers: 1,
        kernel: "scan".to_string(),
        total_ms: ms,
        partial_ms: 0.0,
        merge_ms: 0.0,
        points_per_sec: n as f64 / (ms / 1e3),
        epm: 0.0,
        profiler_overhead_pct: 0.0,
        phases: Vec::new(),
    };

    let mut rows = Vec::new();
    let (gb01_ms, gb01_best) = time_scan(&mut || {
        let mut r = BucketReader::open(&gb01).expect("open gb01");
        let mut total = 0usize;
        while let Some(batch) = r.next_batch(4096).expect("gb01 batch") {
            total += batch.as_flat().len();
        }
        total
    });
    rows.push(scan_row("scan/gb01-buffered".to_string(), gb01_ms));

    let mut mmap_raw_best = f64::INFINITY;
    for codec in Codec::ALL {
        let path = dir.join(format!("scan_{codec}.gb2"));
        pmkm_data::write_gb02(&bucket, &path, codec, pmkm_data::DEFAULT_BLOCK_POINTS)
            .expect("write gb02 scan bucket");
        for backend in BackendKind::ALL {
            let (ms, best) = time_scan(&mut || {
                let r = Gb02Reader::open_path(&path, backend).expect("open gb02");
                let mut total = 0usize;
                for i in 0..r.n_blocks() {
                    total += r.read_block(i).expect("gb02 block").as_flat().len();
                }
                total
            });
            if backend == BackendKind::Mmap && codec == Codec::Raw {
                mmap_raw_best = best;
            }
            rows.push(scan_row(format!("scan/gb02-{backend}/{codec}"), ms));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = gb01_best / mmap_raw_best;
    println!(
        "[scan] mmap zero-copy vs gb01 buffered: {ratio:.2}x \
         (gb01 best {gb01_best:.3} ms, mmap/raw best {mmap_raw_best:.3} ms)"
    );
    assert!(
        ratio >= 1.0,
        "mmap zero-copy scan must be at least as fast as the GB01 buffered reader, \
         got {ratio:.2}x (gb01 {gb01_best:.3} ms vs mmap/raw {mmap_raw_best:.3} ms)"
    );
    rows
}

/// Benchmarks the multi-cell orchestrator: `cells` on-disk buckets run
/// through per-cell pipelines on `jobs` work-stealing workers. The serial
/// (`jobs = 1`) row is the per-cell-looping baseline the 4-worker row must
/// beat; results are bit-identical across `jobs` by construction and the
/// caller asserts it.
fn bench_orchestrate(
    paths: &[std::path::PathBuf],
    params: &Params,
    total_points: usize,
    jobs: usize,
) -> (Row, pmkm_stream::PlanetReport) {
    let mut kmeans =
        KMeansConfig { restarts: params.restarts, ..KMeansConfig::paper(params.k, params.seed) };
    kmeans.lloyd.kernel = KernelKind::Fused;
    let per_cell = total_points / paths.len();
    let logical = LogicalPlan::new(paths.to_vec(), kmeans);
    let plan = optimize_fixed_split(
        logical,
        &Resources::fixed(1 << 30, 1),
        per_cell.div_ceil(4).max(params.k),
    );
    let opts = pmkm_stream::OrchestratorOptions::new(jobs);

    let planet = pmkm_stream::orchestrate(&plan, &opts, None, None).expect("orchestrator warmup");
    assert_eq!(planet.cells.len(), paths.len(), "every cell must report");
    let mut samples = Vec::with_capacity(params.reps);
    let mut profiled_samples = Vec::with_capacity(params.reps);
    let mut last = None;
    for _ in 0..params.reps {
        let t = Instant::now();
        pmkm_stream::orchestrate(&plan, &opts, None, None).expect("orchestrator run");
        samples.push(t.elapsed().as_secs_f64() * 1e3);

        // The profiled arm carries the full observability stack — span
        // profiler AND worker timeline — so the overhead number covers the
        // per-chunk state recording, not just the phase spans.
        let rec = Arc::new(
            Recorder::new()
                .with_profiler(Arc::new(Profiler::new()))
                .with_timeline(Arc::new(Timeline::new())),
        );
        let t = Instant::now();
        let obs = pmkm_stream::orchestrate(&plan, &opts, Some(Arc::clone(&rec)), None)
            .expect("observed orchestrator run");
        profiled_samples.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((obs, rec));
    }
    let total_ms = median(samples);
    let profiled_ms = median(profiled_samples);
    let (observed, rec) = last.expect("reps >= 1");
    for (a, b) in planet.cells.iter().zip(&observed.cells) {
        assert_eq!(
            a.clustering.as_ref().map(|c| &c.output.centroids),
            b.clustering.as_ref().map(|c| &c.output.centroids),
            "observation must not change orchestrated results (jobs = {jobs})"
        );
    }

    let phases = rec.phase_rows();
    let phase_ms = |name: &str| {
        phases.iter().find(|p| p.path == name).map_or(0.0, |p| p.total_us as f64 / 1e3)
    };
    let mean_epm = planet.clusterings().map(|c| c.output.epm).sum::<f64>()
        / planet.clusterings().count().max(1) as f64;
    let row = Row {
        config: format!("orchestrate{jobs}/fused"),
        workers: jobs,
        kernel: "fused".to_string(),
        total_ms,
        partial_ms: phase_ms("partial"),
        merge_ms: phase_ms("merge"),
        points_per_sec: total_points as f64 / (total_ms / 1e3),
        epm: mean_epm,
        profiler_overhead_pct: (profiled_ms - total_ms) / total_ms * 100.0,
        phases,
    };
    (row, planet)
}

fn compare_against_baseline(report: &Report, path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pipeline_bench: cannot read baseline {path}: {e}");
        std::process::exit(2)
    });
    let base: Report = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("pipeline_bench: cannot parse baseline {path}: {e}");
        std::process::exit(2)
    });
    if base.params != report.params {
        eprintln!(
            "pipeline_bench: baseline params {:?} do not match current {:?}",
            base.params, report.params
        );
        std::process::exit(2)
    }
    // Throughput gates only make sense within one hardware class: a
    // baseline recorded on different silicon (or an unkeyed pre-v4 one)
    // records the numbers but must not fail the build.
    if base.machine != report.machine {
        if base.machine.is_empty() {
            println!(
                "  baseline has no machine fingerprint (pre-v4); \
                 gating anyway against {}",
                report.machine
            );
        } else {
            println!(
                "SKIP: baseline machine class '{}' != current '{}'; \
                 regression gate not applicable across hardware classes",
                base.machine, report.machine
            );
            std::process::exit(0)
        }
    }
    let mut failed = false;
    for row in &report.rows {
        let Some(b) = base.rows.iter().find(|r| r.config == row.config) else {
            eprintln!("  {}: missing from baseline, skipped", row.config);
            continue;
        };
        let ratio = row.points_per_sec / b.points_per_sec;
        let regressed = ratio < REGRESSION_FLOOR;
        let verdict = if regressed { "FAIL" } else { "ok" };
        println!(
            "  {}: {:.0} pts/s vs baseline {:.0} ({:.1}%) {verdict}",
            row.config,
            row.points_per_sec,
            b.points_per_sec,
            ratio * 100.0
        );
        if regressed {
            // Attribute the lost time to phases: where did the profiled
            // run's self time grow relative to the baseline's?
            let deltas = pmkm_obs::attribute_phases(&b.phases, &row.phases);
            for d in deltas.iter().filter(|d| d.delta_us > 0).take(3) {
                println!(
                    "    phase '{}': {} µs → {} µs ({:+} µs, {:.0}% of the shift)",
                    d.path,
                    d.self_us_a,
                    d.self_us_b,
                    d.delta_us,
                    d.share * 100.0
                );
            }
        }
        failed |= regressed;
    }
    if failed {
        eprintln!(
            "FAIL: throughput regressed by more than {:.0}% on at least one configuration",
            (1.0 - REGRESSION_FLOOR) * 100.0
        );
        std::process::exit(1)
    }
    println!(
        "OK: no configuration regressed by more than {:.0}%",
        (1.0 - REGRESSION_FLOOR) * 100.0
    );
    std::process::exit(0)
}

fn main() {
    let opts = parse_opts();
    let (n, restarts, reps) = if opts.quick { (2_000, 1, 1) } else { (25_000, 2, 3) };
    let params = Params { n, dim: 6, k: K, partitions: PARTITIONS, restarts, reps, seed: SEED };
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(n, SEED))
        .expect("fig6 cell generator");

    let mut rows: Vec<Row> = [KernelKind::Scalar, KernelKind::Fused]
        .into_iter()
        .map(|kernel| bench_serial(&cell, &params, kernel))
        .collect();
    // Every kernel is exact, so the kernel must never change results.
    // Stream-engine rows chunk the cell differently and are checked
    // separately below.
    assert_eq!(rows[0].epm, rows[1].epm, "E_pm varies with the kernel");

    // The full stream engine over an on-disk bucket.
    // The profiled fused run journals to --ledger when asked, so a bench run
    // leaves behind a diffable record (`pmkm diff old.jsonl new.jsonl`).
    for kernel in [KernelKind::Scalar, KernelKind::Fused] {
        let sink = match (&opts.ledger, kernel) {
            (Some(path), KernelKind::Fused) => {
                Some(Arc::new(pmkm_obs::LedgerSink::create(path).expect("create bench ledger")))
            }
            _ => None,
        };
        let wrote_ledger = sink.is_some();
        rows.push(bench_stream(&cell, &params, CLONES, kernel, sink, None));
        if wrote_ledger {
            println!("[ledger] {}", opts.ledger.as_deref().unwrap_or_default());
        }
    }
    // The same engine in coreset mode: the merge-reduce tree replaces the
    // buffer-everything merge, so these rows price the bounded-memory path
    // (chunk-coreset build + compactions + terminal anytime query).
    for kernel in [KernelKind::Scalar, KernelKind::Fused] {
        rows.push(bench_stream(&cell, &params, CLONES, kernel, None, Some(256)));
    }
    let stream_epms: Vec<f64> = rows
        .iter()
        .filter(|r| r.config.starts_with("stream") || r.config.starts_with("coreset"))
        .map(|r| r.epm)
        .collect();
    assert!(
        stream_epms.iter().all(|e| e.is_finite() && *e > 0.0),
        "stream-engine E_pm must be finite and positive: {stream_epms:?}"
    );

    // The multi-cell orchestrator: 8 cells, serial loop (jobs = 1) vs 4
    // work-stealing workers over identical per-cell pipelines.
    let orch_cells = 8usize;
    let per_cell = (n / orch_cells).max(2 * K);
    let orch_dir = std::env::temp_dir().join(format!("pmkm_orch_bench_{}", std::process::id()));
    std::fs::create_dir_all(&orch_dir).expect("orchestrator bench dir");
    let orch_paths: Vec<std::path::PathBuf> = (1..=orch_cells as u16)
        .map(|i| {
            let points =
                pmkm_data::generator::generate_cell(&CellConfig::paper(per_cell, SEED + i as u64))
                    .expect("orchestrator cell generator");
            let gcell = GridCell::new(i, i).expect("grid cell");
            let path = orch_dir.join(gcell.bucket_file_name());
            GridBucket { cell: gcell, points }.write_to(&path).expect("write orch bucket");
            path
        })
        .collect();
    let (serial_row, serial_planet) =
        bench_orchestrate(&orch_paths, &params, orch_cells * per_cell, 1);
    let (parallel_row, parallel_planet) =
        bench_orchestrate(&orch_paths, &params, orch_cells * per_cell, 4);
    // Worker count never changes results — per-cell determinism is the
    // orchestrator's resume oracle, so pin it here at bench scale too.
    for (a, b) in serial_planet.cells.iter().zip(&parallel_planet.cells) {
        assert_eq!(
            a.clustering.as_ref().map(|c| &c.output.centroids),
            b.clustering.as_ref().map(|c| &c.output.centroids),
            "orchestrated results must not depend on jobs"
        );
    }
    let speedup = parallel_row.points_per_sec / serial_row.points_per_sec;
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!(
        "[orchestrate] 4 workers vs serial loop over {orch_cells} cells: \
         {speedup:.2}x speedup ({cores} core(s))"
    );
    if !opts.quick && cores >= 2 {
        // On parallel hardware the work-stealing workers must beat the
        // serial per-cell loop; a single core has no headroom to exploit,
        // so there the number is recorded but not gated.
        assert!(
            speedup > 1.0,
            "4-worker orchestration must beat the serial per-cell loop, got {speedup:.2}x"
        );
    }
    rows.push(serial_row);
    rows.push(parallel_row);
    let _ = std::fs::remove_dir_all(&orch_dir);

    // Scan-only backend × codec rows, with the mmap ≥ gb01-buffered gate.
    rows.extend(bench_scan(&cell, &params));

    if opts.simulate_regression > 0.0 {
        println!("[simulating a {:.0}% throughput regression]", opts.simulate_regression * 100.0);
        for row in &mut rows {
            row.points_per_sec *= 1.0 - opts.simulate_regression;
        }
    }

    print_table(
        &format!("Partial/merge pipeline (fig6 cell, N={n}, k={K}, median of {reps})"),
        &["config", "total ms", "partial ms", "merge ms", "points/s", "prof ovh"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{:.1}", r.total_ms),
                    format!("{:.1}", r.partial_ms),
                    format!("{:.1}", r.merge_ms),
                    format!("{:.0}", r.points_per_sec),
                    format!("{:+.1}%", r.profiler_overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let machine = machine_fingerprint();
    println!("[machine] {machine}");
    let report = Report {
        schema_version: SCHEMA_VERSION,
        workload: format!("fig6 paper cell (6-D MISR-like, CellConfig::paper({n}, {SEED}))"),
        machine,
        params,
        rows,
    };
    let path = match &opts.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, format!("{json}\n")).expect("write report");
    println!("\n[written] {}", path.display());

    if let Some(baseline) = &opts.baseline {
        compare_against_baseline(&report, baseline);
    }
}
