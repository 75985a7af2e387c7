//! `perfbench` — the planet benchmark's worker binary. `run.py` drives it:
//!
//! * `setup`  generates a workload's buckets from a seed (timed: `setup_s`);
//! * `pass`   clusters every bucket once through `pmkm_stream::orchestrate`
//!   (timed wall clock; `--traced` attaches the recorder's timeline and
//!   counters) and saves the per-cell outputs bit-exactly;
//! * `verify` checks saved passes: every cell present, exact mass, at most
//!   k finite centroids, nothing degraded or lost, passes bit-identical,
//!   and the SSE of the final centroids over the raw points;
//! * `replay` re-runs the same cells single-threaded through the layers'
//!   public functions with a span around each call (the per-layer trace).
//!
//! Each subcommand prints one JSON object on stdout.

mod results;
mod spans;
mod workload;

use pmkm_core::coreset::{chunk_coreset, CoresetTree};
use pmkm_core::merge::merge_degraded_observed;
use pmkm_core::metrics::weighted_sse_against;
use pmkm_core::partial::partial_kmeans;
use pmkm_core::seeding::rng_for;
use pmkm_core::{Centroids, Dataset, KMeansConfig, PointSource};
use pmkm_data::{Gb02Reader, GridBucket};
use pmkm_obs::{LedgerSink, Recorder, Timeline};
use pmkm_stream::ops::partial_op::chunk_seed;
use results::CellResult;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Format, Scale, Workload};

/// RNG stream the engine's partial operator (`ops/partial_op.rs` in
/// pmkm-stream) derives a chunk's coreset sample from (ASCII "CSBUILD");
/// the replay must draw the same sample to reproduce the engine's output.
const STREAM_CORESET_BUILD: u64 = 0x4353_4255_494C_4400;

struct Opts {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    work: PathBuf,
    out: Option<PathBuf>,
    passes: Vec<PathBuf>,
    traced: bool,
    corrupt: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench <setup|pass|verify|replay> --workload NAME --seed N \
         --dir DATA --work DIR [--scale full|tiny] [--out FILE] [--traced] \
         [--passes F1,F2,..] [--corrupt drop-cell|perturb-weight]"
    );
    std::process::exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut traced = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--traced" => traced = true,
            key if key.starts_with("--") => {
                let v = it.next().unwrap_or_else(|| usage(&format!("{key} needs a value")));
                kv.insert(&key[2..], v);
            }
            other => usage(&format!("unexpected argument '{other}'")),
        }
    }
    let get = |k: &str| kv.get(k).copied().unwrap_or_else(|| usage(&format!("--{k} is required")));
    let scale = kv
        .get("scale")
        .map_or(Scale::Full, |s| Scale::parse(s).unwrap_or_else(|| usage("bad --scale")));
    let workload = Workload::by_name(get("workload"), scale)
        .unwrap_or_else(|| usage(&format!("unknown workload; known: {:?}", workload::NAMES)));
    let dir = PathBuf::from(get("dir"));
    Opts {
        workload,
        seed: get("seed").parse().unwrap_or_else(|_| usage("--seed must be an unsigned integer")),
        work: PathBuf::from(get("work")),
        dir,
        out: kv.get("out").map(PathBuf::from),
        passes: kv
            .get("passes")
            .map_or_else(Vec::new, |p| p.split(',').map(PathBuf::from).collect()),
        traced,
        corrupt: kv.get("corrupt").map(|s| s.to_string()),
    }
}

/// A JSON number (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{}\":{v}", k.as_ref())).collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage("missing subcommand") };
    let opts = parse_opts(rest);
    let code = match cmd.as_str() {
        "setup" => setup(&opts),
        "pass" => pass(&opts),
        "verify" => verify(&opts),
        "replay" => replay(&opts),
        other => usage(&format!("unknown subcommand '{other}'")),
    };
    std::process::exit(code)
}

fn setup(o: &Opts) -> i32 {
    let w = &o.workload;
    let _ = std::fs::remove_dir_all(&o.dir);
    std::fs::create_dir_all(&o.dir).expect("create data dir");
    let started = Instant::now();
    let sizes = w.sizes();
    let mut bytes = 0u64;
    for (i, &n) in sizes.iter().enumerate() {
        bytes += w.write(&o.dir, i, w.generate(o.seed, i, n));
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{}",
        json(&[
            ("setup_s", num(secs)),
            ("cells", sizes.len().to_string()),
            ("points", sizes.iter().sum::<usize>().to_string()),
            ("bytes", bytes.to_string()),
        ])
    );
    0
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn pass(o: &Opts) -> i32 {
    let w = &o.workload;
    let plan = w.plan(&o.dir);
    let opts = w.options(&o.work);
    // Every pass writes all of its checkpoints and its whole ledger.
    let ckpt_dir = o.work.join("ckpt");
    let ledger_path = o.work.join("ledger.jsonl");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_file(&ledger_path);
    std::fs::create_dir_all(&o.work).expect("create work dir");
    let rec = (o.traced || w.soak).then(|| {
        let mut rec = Recorder::new();
        if w.soak {
            rec = rec.with_sink(Arc::new(LedgerSink::create(&ledger_path).expect("create ledger")));
        }
        if o.traced {
            rec = rec.with_timeline(Arc::new(Timeline::new()));
        }
        Arc::new(rec)
    });

    let started = Instant::now();
    let outcome = pmkm_stream::orchestrate(&plan, &opts, rec.clone(), None);
    let wall_s = started.elapsed().as_secs_f64();
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench pass: orchestrate failed: {e}");
            return 1;
        }
    };

    let mut fields = vec![
        ("wall_s", num(wall_s)),
        ("points", num(report.expected_points())),
        ("cells", report.cells.len().to_string()),
        ("steals", report.steals.to_string()),
        ("checkpoint_bytes", dir_bytes(&ckpt_dir).to_string()),
    ];
    if let Some(rec) = &rec {
        if w.soak {
            // orchestrate flushed the sink when the run closed.
            let text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
            fields.push(("ledger_events", text.lines().count().to_string()));
            fields.push(("ledger_bytes", text.len().to_string()));
        }
        if let Some(tl) = rec.timeline() {
            let lanes = tl.snapshot(rec.elapsed_us()).workers;
            let sum_ms = |f: fn(&pmkm_obs::WorkerLaneReport) -> u64| {
                num(lanes.iter().map(f).sum::<u64>() as f64 / 1e3)
            };
            fields.push(("idle_ms", sum_ms(|l| l.idle_us)));
            fields.push(("checkpoint_ms", sum_ms(|l| l.checkpoint_us)));
            fields.push(("budget_wait_ms", sum_ms(|l| l.budget_wait_us)));
            let counter = |name: &str| rec.registry().counter(name).get().to_string();
            fields.push(("lloyd_iterations", counter("lloyd_iterations_total")));
            fields.push(("kernel_points", counter("kernel_fused_points_total")));
            fields.push(("kernel_rescued", counter("kernel_fused_rescued_total")));
        }
    }
    if let Some(out) = &o.out {
        results::write(out, &results::from_report(&report)).expect("write pass results");
    }
    println!("{}", json(&fields));
    0
}

/// A cell's raw points, read back the way the workload stored them.
fn read_points(w: &Workload, path: &Path) -> (Dataset, u64) {
    match w.format {
        Format::Gb01 => {
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            (GridBucket::read_from(path).expect("read GB01 bucket").points, bytes)
        }
        Format::Gb02 => {
            let reader = Gb02Reader::open_path(path, w.backend).expect("open GB02 bucket");
            let mut points = Dataset::with_capacity(reader.dim, reader.count).expect("dim >= 1");
            let mut bytes = 0;
            for b in 0..reader.n_blocks() {
                let (block, stats) = reader.read_block_with_stats(b).expect("read GB02 block");
                points.extend_from(&block).expect("same dim");
                bytes += stats.stored_bytes;
            }
            (points, bytes)
        }
    }
}

/// Every way a cell's output can be wrong; empty when it is right.
fn check_cell(w: &Workload, expect_cell: u32, expect_points: usize, c: &CellResult) -> Vec<String> {
    let mut errs = Vec::new();
    let mut bad = |m: String| errs.push(format!("cell {expect_cell}: {m}"));
    if !c.clustered {
        bad("no clustering".into());
        return errs;
    }
    if c.cell != expect_cell {
        bad(format!("result for cell {}", c.cell));
    }
    if c.degraded || c.resumed || c.lost_points != 0.0 {
        bad(format!("degraded={} resumed={} lost={}", c.degraded, c.resumed, c.lost_points));
    }
    if c.expected_points != expect_points as f64 {
        bad(format!("expected {} points, engine promised {}", expect_points, c.expected_points));
    }
    let mass: f64 = c.weights.iter().sum();
    if mass != expect_points as f64 {
        bad(format!("cluster weights sum to {mass}, cell has {expect_points} points"));
    }
    let k = c.weights.len();
    if k == 0 || k > w.k || c.dim != workload::DIM || c.centroids.len() != k * c.dim {
        bad(format!("{k} centroids of dim {} (k = {})", c.dim, w.k));
    }
    if c.centroids.iter().chain(&c.weights).any(|v| !v.is_finite())
        || c.weights.iter().any(|&v| v < 0.0)
    {
        bad("non-finite centroid or negative weight".into());
    }
    errs
}

fn verify(o: &Opts) -> i32 {
    let w = &o.workload;
    let sizes = w.sizes();
    let mut passes: Vec<Vec<CellResult>> = Vec::new();
    for p in &o.passes {
        match results::read(p) {
            Ok(cells) => passes.push(cells),
            Err(e) => {
                eprintln!("perfbench verify: {e}");
                return 1;
            }
        }
    }
    if passes.is_empty() {
        usage("verify needs --passes");
    }
    match o.corrupt.as_deref() {
        None => {}
        Some("drop-cell") => {
            passes[0].pop();
        }
        Some("perturb-weight") => {
            if let Some(v) = passes[0].first_mut().and_then(|c| c.weights.first_mut()) {
                *v += 1.0;
            }
        }
        Some(other) => usage(&format!("unknown --corrupt '{other}'")),
    }

    let mut errors: Vec<String> = Vec::new();
    let mut failed = 0usize;
    let mut sse = Vec::new();
    let last = passes.len() - 1;
    for (p, cells) in passes.iter().enumerate() {
        let by_input: BTreeMap<usize, &CellResult> = cells.iter().map(|c| (c.input, c)).collect();
        if by_input.len() != cells.len() || cells.iter().any(|c| c.input >= sizes.len()) {
            failed += 1;
            errors.push(format!("pass {p}: duplicate or unknown cell results"));
        }
        let mut pass_sse = 0.0;
        for (i, &n) in sizes.iter().enumerate() {
            let expect_cell = w.grid_cell(i).index();
            let Some(c) = by_input.get(&i) else {
                failed += 1;
                errors.push(format!("pass {p}: cell {expect_cell} missing"));
                continue;
            };
            let mut errs = check_cell(w, expect_cell, n, c);
            if p > 0 && !passes[0].iter().any(|f| f.input == i && f.same_clustering(c)) {
                errs.push(format!("cell {expect_cell}: differs from pass 0"));
            }
            if errs.is_empty() && (p == 0 || p == last) {
                let (points, _) = read_points(w, &w.bucket_path(&o.dir, i));
                let centroids =
                    Centroids::from_flat(c.dim, c.centroids.clone()).expect("checked shape");
                pass_sse += weighted_sse_against(&points, &centroids).expect("checked dims");
            }
            if !errs.is_empty() {
                failed += 1;
                errors.extend(errs.into_iter().map(|e| format!("pass {p}: {e}")));
            }
        }
        if p == 0 || p == last {
            sse.push(pass_sse);
        }
    }
    let points: usize = sizes.iter().sum();
    let repeat_identical = sse.iter().all(|s| s.to_bits() == sse[0].to_bits());
    if !repeat_identical {
        errors.push(format!("sse differs between passes: {sse:?}"));
    }
    for e in errors.iter().take(10) {
        eprintln!("perfbench verify: {e}");
    }
    let ok = failed == 0 && repeat_identical;
    println!(
        "{}",
        json(&[
            ("attempted", (sizes.len() * passes.len()).to_string()),
            ("failed", failed.to_string()),
            ("sse_per_point", num(sse[0] / points as f64)),
            ("sse_repeat_identical", repeat_identical.to_string()),
            ("correct", ok.to_string()),
        ])
    );
    i32::from(!ok)
}

/// Counts the replay gathers alongside its spans.
#[derive(Default)]
struct Counts {
    points: u64,
    scan_bytes: u64,
    lloyd_iterations: u64,
    lloyd_dist_evals: u64,
    merge_input_centroids: u64,
    merge_iterations: u64,
    coreset_compactions: u64,
    coreset_live_buckets_max: u64,
    coreset_dist_evals: u64,
}

/// Distance evaluations of a best-of-R Lloyd search over `n` points: one
/// assignment pass per iteration plus the initial one, `k` per point.
fn lloyd_evals(n: usize, k: usize, restarts: usize, iterations: usize) -> u64 {
    if n <= k {
        return 0; // passthrough, no Lloyd
    }
    ((iterations + restarts) * n * k) as u64
}

/// Distance evaluations of one `chunk_coreset` over `n` points that kept
/// `reps` representatives: one to the mean plus one per representative.
fn coreset_evals(n: usize, size: usize, reps: usize) -> u64 {
    if n <= size {
        return 0; // passthrough
    }
    (n * (1 + reps)) as u64
}

fn replay(o: &Opts) -> i32 {
    let w = &o.workload;
    let plan = w.plan(&o.dir);
    let kmeans = plan.logical.kmeans;
    let restarts = plan.logical.merge_restarts;
    let expect: Option<Vec<CellResult>> =
        o.passes.first().map(|p| results::read(p).expect("read pass to compare against"));
    let mut tr = Tracer::new();
    let mut n = Counts::default();
    let mut mismatches = 0usize;
    for i in 0..w.cells() {
        let path = w.bucket_path(&o.dir, i);
        let id = w.grid_cell(i).index();
        let out = tr.span("replay.cell", id, |tr| {
            let (points, bytes) = tr.span("data.scan", id, |_| read_points(w, &path));
            n.points += points.len() as u64;
            n.scan_bytes += bytes;
            let flat = points.as_flat();
            let chunk_len = w.chunk_points * points.dim();
            let chunks: Vec<Dataset> = flat
                .chunks(chunk_len)
                .map(|c| Dataset::from_flat(points.dim(), c.to_vec()).expect("whole points"))
                .collect();
            match plan.coreset.as_ref().map(|s| s.config()) {
                None => {
                    let mut sets = Vec::with_capacity(chunks.len());
                    for (c, chunk) in chunks.iter().enumerate() {
                        let cfg = KMeansConfig { seed: chunk_seed(kmeans.seed, id, c), ..kmeans };
                        let part = tr
                            .span("core.partial", id, |_| partial_kmeans(chunk, &cfg))
                            .expect("partial");
                        let iters: usize = part.restarts.iter().map(|r| r.iterations).sum();
                        n.lloyd_iterations += iters as u64;
                        n.lloyd_dist_evals +=
                            lloyd_evals(chunk.len(), kmeans.k, part.restarts.len(), iters);
                        sets.push(part.centroids);
                    }
                    let merged = tr.span("core.merge", id, |_| {
                        merge_degraded_observed(
                            &sets,
                            &kmeans,
                            plan.logical.merge_mode,
                            restarts,
                            points.len() as f64,
                            None,
                        )
                    });
                    let out = merged.expect("merge").output;
                    n.merge_input_centroids += out.input_centroids as u64;
                    n.merge_iterations += out.iterations as u64;
                    n.lloyd_iterations += out.iterations as u64;
                    n.lloyd_dist_evals +=
                        lloyd_evals(out.input_centroids, kmeans.k, restarts, out.iterations);
                    out
                }
                Some(cfg) => {
                    let mut tree = CoresetTree::new(cfg, kmeans.seed, id).expect("coreset tree");
                    for (c, chunk) in chunks.iter().enumerate() {
                        let mut rng = rng_for(chunk_seed(kmeans.seed, id, c), STREAM_CORESET_BUILD);
                        let set = tr.span("core.coreset.build", id, |_| {
                            chunk_coreset(chunk, cfg.size, &mut rng)
                        });
                        let set = set.expect("chunk coreset");
                        n.coreset_dist_evals += coreset_evals(chunk.len(), cfg.size, set.len());
                        // The carry compacts the two newest buckets, so the
                        // union sizes follow from the bucket sizes before it.
                        let mut stack: Vec<usize> =
                            tree.buckets().iter().map(|b| b.set.len()).collect();
                        stack.push(set.len());
                        let ins = tr.span("core.coreset.insert", id, |_| {
                            tree.insert_chunk(c, set, chunk.len() as f64)
                        });
                        for cp in ins.expect("insert chunk").compactions {
                            let union = stack.pop().unwrap_or(0) + stack.pop().unwrap_or(0);
                            n.coreset_dist_evals += coreset_evals(union, cfg.size, cp.size);
                            stack.push(cp.size);
                        }
                        n.coreset_live_buckets_max =
                            n.coreset_live_buckets_max.max(tree.live_buckets() as u64);
                    }
                    n.coreset_compactions += tree.stats().compactions;
                    let out = tr
                        .span("core.coreset.query", id, |_| tree.query(&kmeans, restarts, None))
                        .expect("query");
                    n.lloyd_iterations += out.iterations as u64;
                    n.lloyd_dist_evals +=
                        lloyd_evals(out.input_centroids, kmeans.k, restarts, out.iterations);
                    out
                }
            }
        });
        if let Some(expect) = &expect {
            let same = expect.iter().find(|c| c.input == i).is_some_and(|c| {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                bits(&c.weights) == bits(&out.cluster_weights)
                    && bits(&c.centroids) == bits(out.centroids.as_flat())
            });
            if !same {
                mismatches += 1;
                eprintln!("perfbench replay: cell {id} differs from the orchestrated pass");
            }
        }
    }
    if let Some(out) = &o.out {
        std::fs::write(out, tr.to_json()).expect("write spans");
    }

    let layers = tr.layers();
    let mut fields: Vec<(String, String)> = Vec::new();
    for (name, t) in &layers {
        fields.push((format!("{name}.spans"), t.spans.to_string()));
        fields.push((format!("{name}.wall_ms"), num(t.wall_ns as f64 / 1e6)));
        fields.push((format!("{name}.self_ms"), num(t.self_ns as f64 / 1e6)));
        fields.push((
            format!("{name}.self_cpu_ms"),
            t.self_cpu_ns.map_or("null".into(), |c| num(c as f64 / 1e6)),
        ));
    }
    let counts = [
        ("k", kmeans.k as u64),
        ("points", n.points),
        ("scan_bytes", n.scan_bytes),
        ("lloyd_iterations", n.lloyd_iterations),
        ("lloyd_dist_evals", n.lloyd_dist_evals),
        ("merge_input_centroids", n.merge_input_centroids),
        ("merge_iterations", n.merge_iterations),
        ("coreset_compactions", n.coreset_compactions),
        ("coreset_live_buckets_max", n.coreset_live_buckets_max),
        ("coreset_dist_evals", n.coreset_dist_evals),
        ("mismatches", mismatches as u64),
    ];
    fields.extend(counts.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    println!("{}", json(&fields));
    i32::from(mismatches > 0)
}
