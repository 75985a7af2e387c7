//! Regenerates **Figure 7**: minimum MSE vs number of data points per grid
//! cell (serial, chunk = 5, chunk = 10). Also prints the data-space MSE of
//! the same centroids as an honesty check (the paper compares the serial
//! point-space MSE against the partial/merge `E_pm`-based MSE).
//!
//! Pass `--reuse` to re-plot from `table2_rows.json`.

use pmkm_bench::experiments::{load_or_run_sweep, mean_rows, SweepConfig};
use pmkm_bench::report::{grouped, print_table, write_json};

fn main() {
    let cfg = SweepConfig::from_args();
    let rows = load_or_run_sweep(&cfg);
    let means = mean_rows(&rows);

    let mut sizes: Vec<usize> = means.iter().map(|m| m.n).collect();
    sizes.sort_unstable();
    sizes.dedup();

    let mut printable = Vec::new();
    for &n in &sizes {
        let get = |algo: &str, data: bool| {
            means
                .iter()
                .find(|m| m.n == n && m.algo == algo)
                .map(|m| grouped(if data { m.data_mse } else { m.min_mse }))
                .unwrap_or_else(|| "–".into())
        };
        printable.push(vec![
            n.to_string(),
            get("serial", false),
            get("5split", false),
            get("10split", false),
            get("5split", true),
            get("10split", true),
        ]);
    }
    print_table(
        "Figure 7 — minimum MSE vs N (paper metric; last two columns: data-space MSE)",
        &["N", "serial", "chunk=5", "chunk=10", "5 (data)", "10 (data)"],
        &printable,
    );

    let series: Vec<(String, Vec<(usize, f64)>)> = ["serial", "5split", "10split"]
        .iter()
        .map(|algo| {
            (
                algo.to_string(),
                sizes
                    .iter()
                    .filter_map(|&n| {
                        means.iter().find(|m| m.n == n && m.algo == *algo).map(|m| (n, m.min_mse))
                    })
                    .collect(),
            )
        })
        .collect();
    write_json("fig7_mse_series", &series).expect("write JSON");

    // One small observed partial/merge run records the per-chunk MSE
    // trajectories behind the figure's quality numbers.
    if let Some(&n) = sizes.first() {
        let cell = cfg.cell(n, 0);
        let pm = pmkm_core::PartialMergeConfig {
            kmeans: cfg.kmeans_for(n, 0),
            partitions: pmkm_core::PartitionSpec::Count(5),
            ..pmkm_core::PartialMergeConfig::paper(cfg.k, 5, cfg.seed)
        };
        let rec = pmkm_obs::Recorder::new();
        let (_, run_report) =
            pmkm_core::partial_merge_observed(&cell, &pm, Some(&rec)).expect("observed run");
        write_json("fig7_run_report", &run_report).expect("write run report");
    }
}
