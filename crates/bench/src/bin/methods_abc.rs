//! Regenerates the **Figure 2** comparison: the three classical ways of
//! parallelizing k-means (Method A: cell per processor; Method B: restart
//! per processor; Method C: distributed k-means with message passing),
//! with Method C's communication overhead made explicit.
//!
//! Every worker runs on its own OS thread. Methods A and B must return the
//! same bits for every worker count: the harness checks Method A's per-cell
//! centroids and Method B's best centroids against the 1-worker run and
//! exits 1 on any difference.
//!
//! Usage: `… --bin methods_abc [--sizes=N] [--k=K] [--restarts=R]`
//! (the first entry of `--sizes` is the per-cell size; default 10,000).

use pmkm_baselines::{method_a, method_b, method_c};
use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{ms, print_table, write_json};
use serde::Serialize;

#[derive(Serialize)]
struct MethodRow {
    method: String,
    workers: usize,
    time_ms: f64,
    speedup: f64,
    min_mse: f64,
    messages: usize,
}

fn main() {
    let mut cfg = SweepConfig::from_args();
    if cfg.sizes == SweepConfig::quick().sizes {
        cfg.sizes = vec![10_000];
    }
    let n = cfg.sizes[0];
    let cells: Vec<_> = (0..4).map(|v| cfg.cell(n, v)).collect();
    let kcfg = cfg.kmeans_for(n, 0);
    eprintln!("[methods] {} cells of n={n}, k={}, R={}", cells.len(), cfg.k, cfg.restarts);

    let mut rows: Vec<MethodRow> = Vec::new();
    let workers = [1usize, 2, 4];

    let mut mismatches = Vec::new();

    // Method A: G cells fanned over processors.
    let mut base = 0.0;
    let mut reference = Vec::new();
    for &w in &workers {
        let out = method_a(&cells, &kcfg, w).expect("method A");
        let t = out.elapsed.as_secs_f64() * 1e3;
        let centroids: Vec<_> = out.cells.iter().map(|c| c.best.centroids.clone()).collect();
        if w == 1 {
            base = t;
            reference = centroids;
        } else if centroids != reference {
            mismatches.push(format!("Method A with {w} workers"));
        }
        let mse = out.cells.iter().map(|c| c.best.mse).sum::<f64>() / out.cells.len() as f64;
        rows.push(MethodRow {
            method: "A (cell/proc)".into(),
            workers: w,
            time_ms: t,
            speedup: base / t,
            min_mse: mse,
            messages: 0,
        });
    }

    // Method B: restarts of one cell fanned over processors.
    let mut base = 0.0;
    let mut reference = None;
    for &w in &workers {
        let out = method_b(&cells[0], &kcfg, w).expect("method B");
        let t = out.elapsed.as_secs_f64() * 1e3;
        if w == 1 {
            base = t;
            reference = Some(out.best.centroids.clone());
        } else if reference.as_ref() != Some(&out.best.centroids) {
            mismatches.push(format!("Method B with {w} workers"));
        }
        rows.push(MethodRow {
            method: "B (restart/proc)".into(),
            workers: w,
            time_ms: t,
            speedup: base / t,
            min_mse: out.best.mse,
            messages: 0,
        });
    }

    // Method C: one cell distributed over slaves (single restart — the
    // distribution is within one Lloyd run).
    let c_cfg = pmkm_core::KMeansConfig { restarts: 1, ..kcfg };
    let mut base = 0.0;
    for &w in &workers {
        let out = method_c(&cells[0], &c_cfg, w).expect("method C");
        let t = out.elapsed.as_secs_f64() * 1e3;
        if w == 1 {
            base = t;
        }
        rows.push(MethodRow {
            method: "C (distributed)".into(),
            workers: w,
            time_ms: t,
            speedup: base / t,
            min_mse: out.mse,
            messages: out.messages,
        });
    }

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                r.workers.to_string(),
                ms(r.time_ms),
                format!("{:.2}x", r.speedup),
                format!("{:.1}", r.min_mse),
                r.messages.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 2 — parallelization methods A/B/C (N = {n} per cell)"),
        &["method", "workers", "time", "speedup", "min MSE", "messages"],
        &printable,
    );
    write_json("methods_abc", &rows).expect("write JSON");

    if !mismatches.is_empty() {
        eprintln!("FAIL: results differ from the 1-worker run: {}", mismatches.join(", "));
        std::process::exit(1);
    }
    println!("[parity] Methods A and B are bit-identical across workers {workers:?}");
}
