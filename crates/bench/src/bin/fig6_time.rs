//! Regenerates **Figure 6**: overall execution time vs number of data
//! points per grid cell, one series per algorithm (serial, chunk = 5,
//! chunk = 10).
//!
//! Pass `--reuse` to re-plot from `table2_rows.json` instead of re-running.

use pmkm_bench::experiments::{load_or_run_sweep, mean_rows, SweepConfig};
use pmkm_bench::report::{ms, print_table, write_json};

fn main() {
    let cfg = SweepConfig::from_args();
    let rows = load_or_run_sweep(&cfg);
    let means = mean_rows(&rows);

    let mut sizes: Vec<usize> = means.iter().map(|m| m.n).collect();
    sizes.sort_unstable();
    sizes.dedup();

    let mut printable = Vec::new();
    for &n in &sizes {
        let get = |algo: &str| {
            means
                .iter()
                .find(|m| m.n == n && m.algo == algo)
                .map(|m| ms(m.overall_ms))
                .unwrap_or_else(|| "–".into())
        };
        printable.push(vec![n.to_string(), get("serial"), get("5split"), get("10split")]);
    }
    print_table(
        "Figure 6 — overall execution time vs N",
        &["N", "serial", "chunk=5", "chunk=10"],
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
                        means
                            .iter()
                            .find(|m| m.n == n && m.algo == *algo)
                            .map(|m| (n, m.overall_ms))
                    })
                    .collect(),
            )
        })
        .collect();
    write_json("fig6_time_series", &series).expect("write JSON");

    // One small observed partial/merge run documents where the time goes
    // (per-chunk timings, Lloyd iteration counters) alongside the figure.
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
        write_json("fig6_run_report", &run_report).expect("write run report");
    }
}
