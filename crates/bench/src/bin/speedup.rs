//! Regenerates the §5.2 speed-up experiment: partial k-means operators
//! cloned across "machines" (worker threads), for one large cell, through
//! the full stream engine (scan → chunker → cloned partials → merge) over
//! an on-disk grid bucket.
//!
//! Usage: `… --bin speedup [--full] [--sizes=N] [--restarts=R] [--seed=S]`
//! (the first entry of `--sizes` is the cell size; default 50,000).

use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{ms, print_table, write_json};
use pmkm_data::{GridBucket, GridCell};
use pmkm_stream::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct SpeedupRow {
    workers: usize,
    engine_ms: f64,
    engine_speedup: f64,
}

fn main() {
    let mut cfg = SweepConfig::from_args();
    if cfg.sizes == SweepConfig::quick().sizes {
        cfg.sizes = vec![50_000];
    }
    let n = cfg.sizes[0];
    let splits = 16usize; // enough chunks to keep 8 workers busy
    eprintln!("[speedup] n={n}, splits={splits}, restarts={}", cfg.restarts);

    let cell = cfg.cell(n, 0);
    let kcfg = cfg.kmeans_for(n, 0);

    // On-disk bucket for the engine runs.
    let dir = std::env::temp_dir().join(format!("pmkm_speedup_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cell_id = GridCell::new(90, 180).expect("valid cell");
    let bucket_path = dir.join(cell_id.bucket_file_name());
    GridBucket { cell: cell_id, points: cell.clone() }
        .write_to(&bucket_path)
        .expect("write bucket");
    let points_per_chunk = n.div_ceil(splits);

    let worker_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut base_engine = 0.0;
    for &w in &worker_counts {
        let logical = LogicalPlan::new(vec![bucket_path.clone()], kcfg);
        let plan = optimize_fixed_split(logical, &Resources::fixed(64 << 20, w), points_per_chunk);
        let report = execute(&plan, None, None).expect("engine run");
        let engine_ms = report.elapsed.as_secs_f64() * 1e3;

        if w == 1 {
            base_engine = engine_ms;
        }
        rows.push(SpeedupRow { workers: w, engine_ms, engine_speedup: base_engine / engine_ms });
        eprintln!("[speedup] workers={w} engine={engine_ms:.0}ms");
    }

    // One extra observed run at the widest clone count, outside the timed
    // loop, leaves a structured RunReport behind (per-clone busy/blocked
    // split, queue-depth histograms) without perturbing the measurements.
    let w = *worker_counts.last().unwrap();
    let plan = optimize_fixed_split(
        LogicalPlan::new(vec![bucket_path.clone()], kcfg),
        &Resources::fixed(64 << 20, w),
        points_per_chunk,
    );
    let rec = std::sync::Arc::new(pmkm_obs::Recorder::new());
    let observed = pmkm_stream::execute(&plan, Some(rec.clone()), None).expect("observed run");
    write_json("speedup_run_report", &observed.run_report(Some(&rec))).expect("write run report");
    std::fs::remove_dir_all(&dir).ok();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.workers.to_string(), ms(r.engine_ms), format!("{:.2}x", r.engine_speedup)])
        .collect();
    print_table(
        &format!("§5.2 speed-up — N = {n}, {splits} chunks, partial operator cloned"),
        &["workers", "engine time", "engine speedup"],
        &printable,
    );
    write_json("speedup", &rows).expect("write JSON");
}
