//! The EOSDIS-scale framing of §1/§2.1: a *coverage* is G grid cells, each
//! clustered independently (time complexity `O(G·R·I·K·N)`). This harness
//! builds G on-disk buckets and measures end-to-end throughput of
//!
//! * a serial loop (load cell, best-of-R k-means, next cell),
//! * the stream engine with one partial clone per core,
//!
//! reporting cells/second and points/second.
//!
//! Usage: `… --bin global_coverage [--sizes=N] [--k=K] [--restarts=R]`
//! (`--sizes` first entry = points per cell; cells default to 24).

use pmkm_baselines::serial_kmeans;
use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{ms, print_table, write_json};
use pmkm_data::{GridBucket, GridCell};
use pmkm_stream::prelude::*;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct CoverageRow {
    mode: String,
    total_ms: f64,
    cells_per_s: f64,
    points_per_s: f64,
}

fn main() {
    let mut cfg = SweepConfig::from_args();
    if cfg.sizes == SweepConfig::quick().sizes {
        cfg.sizes = vec![10_000];
    }
    let n = cfg.sizes[0];
    let cells = 24usize;
    eprintln!("[coverage] {cells} cells × {n} points, k={}, R={}", cfg.k, cfg.restarts);

    let dir = std::env::temp_dir().join(format!("pmkm_coverage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut paths = Vec::new();
    let mut datasets = Vec::new();
    for i in 0..cells {
        let cell = GridCell::new((40 + i) as u16, (40 + i) as u16).expect("valid");
        let points = cfg.cell(n, i as u32);
        let path = dir.join(cell.bucket_file_name());
        GridBucket { cell, points: points.clone() }.write_to(&path).expect("write");
        paths.push(path);
        datasets.push(points);
    }
    let kcfg = cfg.kmeans_for(n, 0);
    let total_points = (cells * n) as f64;
    let mut rows = Vec::new();
    let mut push = |mode: &str, secs: f64| {
        rows.push(CoverageRow {
            mode: mode.into(),
            total_ms: secs * 1e3,
            cells_per_s: cells as f64 / secs,
            points_per_s: total_points / secs,
        });
        eprintln!("[coverage] {mode}: {:.1}s", secs);
    };

    // Serial loop over cells (Method "load everything" baseline).
    let t = Instant::now();
    for ds in &datasets {
        serial_kmeans(ds, &kcfg).expect("serial");
    }
    push("serial loop", t.elapsed().as_secs_f64());

    // Stream engine, one partial clone per core.
    let workers = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let plan = optimize_fixed_split(
        LogicalPlan::new(paths.clone(), kcfg),
        &Resources::fixed(64 << 20, workers),
        n.div_ceil(10),
    );
    let t = Instant::now();
    let report = execute(&plan, None, None).expect("engine");
    assert_eq!(report.cells.len(), cells);
    push(&format!("stream engine ({} clones)", plan.partial_clones), t.elapsed().as_secs_f64());

    std::fs::remove_dir_all(&dir).ok();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                ms(r.total_ms),
                format!("{:.2}", r.cells_per_s),
                format!("{:.0}", r.points_per_s),
            ]
        })
        .collect();
    print_table(
        &format!("Global coverage throughput — {cells} cells × {n} points"),
        &["mode", "total", "cells/s", "points/s"],
        &printable,
    );
    write_json("global_coverage", &rows).expect("write JSON");
}
