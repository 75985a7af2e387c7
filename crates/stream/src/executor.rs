//! The pipelined executor: one thread per physical operator instance,
//! bounded smart queues between them, end-of-stream propagated by producer
//! hang-up (§3: "all data stream operators process data in a pipelined
//! fashion").

use crate::error::{EngineError, Result};
use crate::fault::{FaultContext, FaultPlan};
use crate::item::{CellClustering, ChunkMsg, MergeMsg, ScanMsg};
use crate::ops::{ChunkerOp, CoresetOp, MergeKMeansOp, PartialKMeansOp, ScanOp};
use crate::plan::PhysicalPlan;
use crate::queue::{QueueStats, SmartQueue};
use crate::telemetry::OpStats;
use pmkm_obs::{
    CellReport, ChunkReport, CoresetReport, FaultReport, MergeReport, Recorder, RunReport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a finished pipeline run reports.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// One clustering per non-empty input cell, sorted by cell index.
    pub cells: Vec<CellClustering>,
    /// Telemetry of every operator instance.
    pub op_stats: Vec<OpStats>,
    /// Telemetry of every queue.
    pub queue_stats: Vec<QueueStats>,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Failure counters accumulated across the run (all zero on a clean
    /// run).
    pub faults: FaultReport,
    /// True when any input mass was lost: a quarantined bucket, chunk or
    /// degraded cell means the results do not cover every scanned point.
    pub degraded: bool,
}

impl EngineReport {
    /// Total wall time the cloned partial operators spent busy — the
    /// engine-level equivalent of Table 2's `t C0−Ci` column.
    pub fn partial_busy(&self) -> Duration {
        self.op_stats.iter().filter(|s| s.name == "partial-kmeans").map(|s| s.busy).sum()
    }

    /// Busy time of the merge operator (`t merge`). Coreset runs replace
    /// the merge operator with the coreset operator, whose busy time
    /// (tree maintenance + anytime queries) plays the same role.
    pub fn merge_busy(&self) -> Duration {
        self.op_stats
            .iter()
            .filter(|s| s.name == "merge" || s.name == "coreset")
            .map(|s| s.busy)
            .sum()
    }

    /// Converts the engine telemetry into the observability layer's
    /// [`RunReport`]. When a recorder is supplied, its metrics registry is
    /// snapshotted into the report as well.
    pub fn run_report(&self, rec: Option<&Recorder>) -> RunReport {
        let cells = self.cells.iter().map(cell_report).collect();
        RunReport {
            elapsed: self.elapsed,
            cells,
            operators: self.op_stats.iter().map(OpStats::to_report).collect(),
            queues: self.queue_stats.iter().map(QueueStats::to_report).collect(),
            metrics: rec.map(|r| r.registry().snapshot()).unwrap_or_default(),
            phases: rec.map(|r| r.phase_rows()).unwrap_or_default(),
            degraded: self.degraded,
            faults: self.faults,
            coreset: coreset_report(&self.cells),
            ..RunReport::new()
        }
    }
}

/// Folds the per-cell coreset-tree summaries into the run report's v7
/// `coreset` block. `None` when no cell ran in coreset mode, so classic
/// merge-path reports keep serializing byte-identically to v6.
pub fn coreset_report<'a>(
    cells: impl IntoIterator<Item = &'a CellClustering>,
) -> Option<CoresetReport> {
    let mut out = CoresetReport::default();
    let mut any = false;
    for stats in cells.into_iter().filter_map(|c| c.coreset.as_ref()) {
        any = true;
        out.trees += 1;
        out.max_levels = out.max_levels.max(stats.levels);
        out.live_buckets += stats.live_buckets;
        out.compactions += stats.compactions;
        out.builds += stats.builds;
        out.queries += stats.queries;
        out.live_weight += stats.live_weight;
        out.ingested_points += stats.ingested_points;
        out.lost_points += stats.lost_points;
        out.expired_points += stats.expired_points;
    }
    any.then_some(out)
}

/// Converts one cell's clustering into the observability layer's
/// [`CellReport`] — shared by the single-run executor and the multi-cell
/// orchestrator's planet-level report.
pub fn cell_report(c: &CellClustering) -> CellReport {
    let chunks = c
        .chunks
        .iter()
        .enumerate()
        .map(|(i, ch)| ChunkReport {
            chunk: ch.chunk,
            points: ch.points,
            best_mse: ch.best_mse,
            iterations: ch.total_iterations,
            elapsed: ch.elapsed,
            mse_trajectory: c.trajectories.get(i).cloned().unwrap_or_default(),
        })
        .collect();
    CellReport {
        cell: c.cell.index().to_string(),
        total_points: c.output.cluster_weights.iter().sum::<f64>().round() as usize,
        expected_points: c.expected_points,
        lost_points: c.lost_points,
        lost_chunks: c.lost_chunks,
        degraded: c.degraded,
        chunks,
        merge: MergeReport {
            input_centroids: c.output.input_centroids,
            epm: c.output.epm,
            mse: c.output.mse,
            iterations: c.output.iterations,
            converged: c.output.converged,
            elapsed: c.output.elapsed,
        },
    }
}

/// Executes a physical plan to completion.
///
/// The dataflow is scan → chunker → `partial_clones` × partial k-means →
/// merge, with the final results drained on the calling thread. Operator
/// panics and errors abort the run and surface as [`EngineError`].
///
/// `rec` attaches a trace/metrics recorder to every operator instance; with
/// `None` there are no events, no metrics and no extra work on the hot path.
/// `fault_plan` is a deterministic fault-injection schedule (the chaos
/// suite's entry point); with `None` and the default
/// [`crate::fault::FaultPolicy::strict`] policy nothing is injected and no
/// validation passes run.
pub fn execute(
    plan: &PhysicalPlan,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
) -> Result<EngineReport> {
    execute_inner(plan, rec, fault_plan, true)
}

/// [`execute`] without the run-level journal framing — the
/// orchestrator's per-cell hook. Cell-scoped events (`cell.open`,
/// `cell.close`, `chunk.close`, faults) still flow to the recorder, but
/// `run.open` / `run.close` / phase emission are left to the caller, which
/// brackets the whole multi-cell run exactly once.
pub fn execute_cell(
    plan: &PhysicalPlan,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
) -> Result<EngineReport> {
    execute_inner(plan, rec, fault_plan, false)
}

fn execute_inner(
    plan: &PhysicalPlan,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
    emit_run_events: bool,
) -> Result<EngineReport> {
    plan.validate()?;
    let faults = FaultContext::new(fault_plan, plan.fault_policy);
    let started = Instant::now();
    if emit_run_events {
        if let Some(rec) = rec.as_deref() {
            rec.event(
                "run.open",
                &[
                    ("cells", plan.logical.inputs.len().into()),
                    ("partial_clones", plan.partial_clones.into()),
                    ("scan_clones", plan.scan_clones.into()),
                ],
            );
        }
    }
    let cap = plan.queue_capacity;
    let depth_every = rec.as_deref().map(|r| r.config().depth_sample_interval()).unwrap_or(1);
    let q_scan: SmartQueue<ScanMsg> =
        SmartQueue::new("scan→chunker", cap).with_depth_sample_interval(depth_every);
    let q_chunks: SmartQueue<ChunkMsg> =
        SmartQueue::new("chunker→partial", cap).with_depth_sample_interval(depth_every);
    let q_merge: SmartQueue<MergeMsg> =
        SmartQueue::new("partial→merge", cap).with_depth_sample_interval(depth_every);
    let q_results: SmartQueue<CellClustering> =
        SmartQueue::new("merge→sink", cap).with_depth_sample_interval(depth_every);

    // Deal input buckets round-robin over the scan clones.
    let scan_clones = plan.scan_clones.min(plan.logical.inputs.len()).max(1);
    let mut scan_inputs: Vec<Vec<std::path::PathBuf>> = vec![Vec::new(); scan_clones];
    for (i, path) in plan.logical.inputs.iter().enumerate() {
        scan_inputs[i % scan_clones].push(path.clone());
    }
    let scans: Vec<ScanOp> = scan_inputs
        .into_iter()
        .map(|paths| {
            ScanOp::new(paths, plan.scan_batch, q_scan.producer())
                .with_recorder(rec.clone())
                .with_faults(faults.clone())
                .with_backend(plan.scan_backend)
        })
        .collect();
    let chunker = ChunkerOp::new(
        q_scan.consumer(),
        q_chunks.producer(),
        q_merge.producer(),
        plan.chunk_policy,
    )
    .with_recorder(rec.clone())
    .with_faults(faults.clone());
    let partials: Vec<PartialKMeansOp> = (0..plan.partial_clones)
        .map(|i| {
            PartialKMeansOp::new(q_chunks.consumer(), q_merge.producer(), plan.logical.kmeans, i)
                .with_coreset(plan.coreset.as_ref().map(|s| s.size))
                .with_recorder(rec.clone())
                .with_faults(faults.clone())
        })
        .collect();
    // The tail of the pipeline is either the classic buffer-everything
    // merge or the bounded-memory coreset tree — same queues, same
    // contract, different operator.
    let tail_name = if plan.coreset.is_some() { "coreset" } else { "merge" };
    let tail: Box<dyn FnOnce() -> Result<OpStats> + Send> = if let Some(spec) = plan.coreset.clone()
    {
        let op = CoresetOp::new(
            q_merge.consumer(),
            q_results.producer(),
            plan.logical.kmeans,
            plan.logical.merge_restarts,
            spec,
        )
        .with_recorder(rec.clone())
        .with_faults(faults.clone());
        Box::new(move || op.run())
    } else {
        let op = MergeKMeansOp::new(
            q_merge.consumer(),
            q_results.producer(),
            plan.logical.kmeans,
            plan.logical.merge_mode,
            plan.logical.merge_restarts,
        )
        .with_recorder(rec.clone())
        .with_faults(faults.clone());
        Box::new(move || op.run())
    };
    let results = q_results.consumer();
    q_scan.seal();
    q_chunks.seal();
    q_merge.seal();
    q_results.seal();

    let (mut cells, op_stats) = crossbeam::thread::scope(|s| -> Result<_> {
        let mut handles = Vec::new();
        for scan in scans {
            handles.push(("scan", s.spawn(move |_| scan.run())));
        }
        handles.push(("chunker", s.spawn(|_| chunker.run())));
        for p in partials {
            handles.push(("partial-kmeans", s.spawn(move |_| p.run())));
        }
        handles.push((tail_name, s.spawn(move |_| tail())));

        // Sink: drain final results on this thread while the pipeline runs.
        let mut cells = Vec::new();
        while let Some(r) = results.recv() {
            cells.push(r);
        }

        let mut op_stats = Vec::new();
        let mut first_err: Option<EngineError> = None;
        for (name, h) in handles {
            match h.join() {
                Ok(Ok(stats)) => op_stats.push(stats),
                Ok(Err(e)) => {
                    // Keep the root cause: a Disconnected error is the
                    // *consequence* of another operator failing, so prefer
                    // non-disconnection errors.
                    match (&first_err, &e) {
                        (None, _) => first_err = Some(e),
                        (Some(EngineError::Disconnected(_)), e2)
                            if !matches!(e2, EngineError::Disconnected(_)) =>
                        {
                            first_err = Some(e)
                        }
                        _ => {}
                    }
                }
                Err(_) => first_err = Some(EngineError::OperatorPanic(name.to_string())),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((cells, op_stats)),
        }
    })
    .map_err(|_| EngineError::OperatorPanic("scope".into()))??;

    cells.sort_by_key(|c| c.cell.index());
    let queue_stats = vec![q_scan.stats(), q_chunks.stats(), q_merge.stats(), q_results.stats()];
    let fault_report = faults.counters.snapshot();
    let degraded = fault_report.scan_failures > 0
        || fault_report.chunks_quarantined > 0
        || fault_report.cells_degraded > 0;
    let elapsed = started.elapsed();
    if emit_run_events {
        if let Some(rec) = rec.as_deref() {
            // Phases before close: `run.close` marks the journal's logical
            // end.
            pmkm_obs::emit_phase_events(rec);
            rec.event(
                "run.close",
                &[
                    ("elapsed_us", (elapsed.as_micros() as u64).into()),
                    ("cells", cells.len().into()),
                    ("degraded", degraded.into()),
                ],
            );
            rec.flush();
        }
    }
    Ok(EngineReport { cells, op_stats, queue_stats, elapsed, faults: fault_report, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, optimize_fixed_split};
    use crate::plan::LogicalPlan;
    use crate::resources::Resources;
    use pmkm_core::{Dataset, KMeansConfig};
    use pmkm_data::{GridBucket, GridCell};
    use std::path::PathBuf;

    fn write_cell(dir: &std::path::Path, idx: u16, n: usize, seed: u64) -> PathBuf {
        use rand::Rng;
        let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
        let mut points = Dataset::new(2).unwrap();
        for _ in 0..n {
            let blob = if rng.gen_bool(0.5) { 0.0 } else { 40.0 };
            points
                .push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)])
                .unwrap();
        }
        let cell = GridCell::new(idx, idx).unwrap();
        let path = dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&path).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_exec_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clusters_multiple_cells_end_to_end() {
        let dir = tmpdir("multi");
        let paths = vec![
            write_cell(&dir, 1, 300, 7),
            write_cell(&dir, 2, 150, 7),
            write_cell(&dir, 3, 80, 7),
        ];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 11) });
        let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 3), 64);
        let report = execute(&plan, None, None).unwrap();
        assert_eq!(report.cells.len(), 3);
        // Sorted by cell index; weights conserved per cell.
        let ns = [300.0, 150.0, 80.0];
        for (i, c) in report.cells.iter().enumerate() {
            let total: f64 = c.output.cluster_weights.iter().sum();
            assert_eq!(total, ns[i], "cell {i}");
            // Two blobs at 0 and 40: the merged centroids find them.
            let mut xs: Vec<f64> = c.output.centroids.iter().map(|p| p[0]).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!(xs[0] < 5.0 && xs[xs.len() - 1] > 35.0);
        }
        // Telemetry exists for every operator.
        assert_eq!(report.op_stats.iter().filter(|s| s.name == "partial-kmeans").count(), 3);
        assert_eq!(report.queue_stats.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clone_count_does_not_change_results() {
        let dir = tmpdir("clones");
        let paths = vec![write_cell(&dir, 5, 400, 3)];
        let mk_plan = |workers: usize| {
            optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 99) },
                ),
                &Resources::fixed(1 << 20, workers),
                50,
            )
        };
        let one = execute(&mk_plan(1), None, None).unwrap();
        let four = execute(&mk_plan(4), None, None).unwrap();
        assert_eq!(one.cells.len(), 1);
        assert_eq!(one.cells[0].output.centroids, four.cells[0].output.centroids);
        assert_eq!(one.cells[0].output.epm, four.cells[0].output.epm);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_matches_in_memory_pipeline() {
        // The stream engine's fixed-split path must equal
        // pmkm_core::partial_merge with the same chunk seeds. We verify the
        // weaker (and more meaningful) invariant that both recover the same
        // blob structure with equal weight totals.
        let dir = tmpdir("parity");
        let paths = vec![write_cell(&dir, 8, 200, 21)];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 5) });
        let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
        let report = execute(&plan, None, None).unwrap();
        let engine_out = &report.cells[0].output;
        let total: f64 = engine_out.cluster_weights.iter().sum();
        assert_eq!(total, 200.0);
        assert_eq!(report.cells[0].chunks.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_budget_policy_resolves_chunks() {
        let dir = tmpdir("budget");
        let paths = vec![write_cell(&dir, 9, 100, 2)];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 5) });
        // dim-2 points are 16 B; 400 B budget → 25 points/chunk → 4 chunks.
        let plan = optimize(logical, &Resources::fixed(400, 2));
        let report = execute(&plan, None, None).unwrap();
        assert_eq!(report.cells[0].chunks.len(), 4);
        for c in &report.cells[0].chunks {
            assert!(c.points <= 25);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_clones_do_not_change_results() {
        let dir = tmpdir("scanclones");
        let paths = vec![
            write_cell(&dir, 11, 200, 4),
            write_cell(&dir, 12, 150, 4),
            write_cell(&dir, 13, 120, 4),
        ];
        let mk = |scan_clones: usize| {
            let mut plan = optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 6) },
                ),
                &Resources::fixed(1 << 20, 2),
                60,
            );
            plan.scan_clones = scan_clones;
            plan
        };
        let one = execute(&mk(1), None, None).unwrap();
        let three = execute(&mk(3), None, None).unwrap();
        assert_eq!(one.cells.len(), 3);
        for (a, b) in one.cells.iter().zip(&three.cells) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.output.centroids, b.output.centroids);
            assert_eq!(a.output.epm, b.output.epm);
        }
        // Telemetry reflects the clone count.
        assert_eq!(three.op_stats.iter().filter(|s| s.name == "scan").count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_bucket_aborts_with_data_error() {
        let logical = LogicalPlan::new(
            vec![PathBuf::from("/nonexistent/cell.gb")],
            KMeansConfig::paper(2, 0),
        );
        let plan = optimize(logical, &Resources::fixed(1 << 20, 2));
        assert!(matches!(execute(&plan, None, None), Err(EngineError::Data(_))));
    }

    #[test]
    fn observed_run_matches_unobserved_and_builds_run_report() {
        use pmkm_obs::{Profiler, RingBufferSink};
        let dir = tmpdir("observed");
        let paths = vec![write_cell(&dir, 6, 250, 17), write_cell(&dir, 7, 90, 17)];
        let mk_plan = || {
            optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 13) },
                ),
                &Resources::fixed(1 << 20, 2),
                60,
            )
        };
        let plain = execute(&mk_plan(), None, None).unwrap();

        let ring = Arc::new(RingBufferSink::new(4096));
        let rec = Arc::new(
            Recorder::new().with_sink(ring.clone()).with_profiler(Arc::new(Profiler::new())),
        );
        let observed = execute(&mk_plan(), Some(rec.clone()), None).unwrap();

        // Observation must not change the results.
        assert_eq!(plain.cells.len(), observed.cells.len());
        for (a, b) in plain.cells.iter().zip(&observed.cells) {
            assert_eq!(a.output.centroids, b.output.centroids);
            assert_eq!(a.output.epm, b.output.epm);
        }
        // Events flowed: at least one per cell from scan and merge.
        assert!(ring.len() >= 4, "expected trace events, got {}", ring.len());
        // Trajectories were captured per chunk.
        for c in &observed.cells {
            assert_eq!(c.trajectories.len(), c.chunks.len());
        }

        let report = observed.run_report(Some(&rec));
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.total_points(), 340);
        assert_eq!(report.operators.len(), observed.op_stats.len());
        assert_eq!(report.queues.len(), 4);
        // Queue depth histograms account for every send.
        for q in &report.queues {
            let bucketed: u64 = q.depth.counts.iter().sum();
            assert_eq!(bucketed, q.sends, "queue {}", q.name);
        }
        assert!(!report.metrics.counters.is_empty());
        // Every operator contributed spans, and the partial spans nest the
        // shared k-means phases beneath them.
        let paths_seen: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
        for expect in ["scan", "chunk", "partial", "partial/seed", "partial/assign", "merge"] {
            assert!(paths_seen.contains(&expect), "missing phase {expect}: {paths_seen:?}");
        }
        for p in &report.phases {
            assert!(p.self_us <= p.total_us, "phase {}", p.path);
        }
        // The report round-trips losslessly through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_ledger_rollup_reproduces_fault_counters_and_mass() {
        use crate::fault::FaultPolicy;
        use pmkm_obs::{parse_ledger, rollup, LedgerSink, Profiler};
        let dir = tmpdir("ledger_chaos");
        let paths = vec![
            write_cell(&dir, 1, 200, 23),
            write_cell(&dir, 2, 160, 23),
            write_cell(&dir, 3, 120, 23),
        ];
        let mk_plan = || {
            let mut plan = optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 31) },
                ),
                &Resources::fixed(1 << 20, 2),
                40,
            );
            plan.fault_policy = FaultPolicy::tolerant();
            plan
        };
        let chaos = Some(FaultPlan::heavy(77));

        // Bare chaos run: the determinism baseline.
        let bare = execute(&mk_plan(), None, chaos.clone()).unwrap();

        // Ledger-enabled chaos run with the same seed.
        let ledger = Arc::new(LedgerSink::in_memory());
        let rec = Arc::new(
            Recorder::new().with_sink(ledger.clone()).with_profiler(Arc::new(Profiler::new())),
        );
        let observed = execute(&mk_plan(), Some(rec.clone()), chaos).unwrap();

        // Attaching the ledger must not change the clustering.
        assert_eq!(bare.cells.len(), observed.cells.len());
        for (a, b) in bare.cells.iter().zip(&observed.cells) {
            assert_eq!(a.output.centroids, b.output.centroids);
            assert_eq!(a.output.epm, b.output.epm);
            assert_eq!(a.lost_points, b.lost_points);
        }
        assert_eq!(bare.faults, observed.faults);

        // The ledger's rollup reproduces the run report exactly: fault
        // counters count-for-count and mass accounting cell-for-cell.
        let report = observed.run_report(Some(&rec));
        let records = parse_ledger(&ledger.snapshot_jsonl()).unwrap();
        let roll = rollup(&records);
        assert!(roll.faults.any(), "heavy chaos plan injected nothing");
        assert_eq!(roll.faults, report.faults);
        let report_expected: f64 = report.cells.iter().map(|c| c.expected_points).sum();
        let report_lost: f64 = report.cells.iter().map(|c| c.lost_points).sum();
        // Fully-lost cells never reach the report's cell list but do reach
        // the ledger, so the ledger's mass accounting covers at least the
        // report's and never disagrees on what both saw.
        for cell in &report.cells {
            let ledger_cell = roll
                .cells
                .iter()
                .find(|c| c.cell == cell.cell)
                .unwrap_or_else(|| panic!("cell {} missing from ledger", cell.cell));
            assert_eq!(ledger_cell.expected_points, cell.expected_points);
            assert_eq!(ledger_cell.lost_points, cell.lost_points);
            assert_eq!(ledger_cell.lost_chunks, cell.lost_chunks as u64);
            assert_eq!(ledger_cell.degraded, cell.degraded);
        }
        assert!(roll.expected_weight() >= report_expected);
        assert!(roll.lost_weight() >= report_lost);
        // Phases and timing made it into the journal.
        assert_eq!(roll.elapsed_us, report.elapsed.as_micros() as u64);
        assert!(!roll.phases.is_empty());
        assert!(!roll.chunks.is_empty());
        // The mass gauges expose the same ratio on /metrics.
        let ratio = rec.registry().gauge("mass_conservation_ratio").get();
        assert!((ratio - roll.mass_ratio()).abs() < 1e-9, "{ratio} vs {}", roll.mass_ratio());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coreset_mode_clusters_end_to_end_with_bounded_buckets() {
        use crate::plan::CoresetSpec;
        let dir = tmpdir("coreset");
        let paths = vec![write_cell(&dir, 21, 300, 9)];
        let mk_plan = |workers: usize| {
            let mut plan = optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 11) },
                ),
                &Resources::fixed(1 << 20, workers),
                30, // 300 points → 10 chunks
            );
            plan.coreset = Some(CoresetSpec::new(32));
            plan
        };
        let report = execute(&mk_plan(3), None, None).unwrap();
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        let total: f64 = c.output.cluster_weights.iter().sum();
        assert_eq!(total, 300.0, "coreset weights must conserve the cell mass");
        // Two blobs at 0 and 40: the anytime clustering still finds them.
        let mut xs: Vec<f64> = c.output.centroids.iter().map(|p| p[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 5.0 && xs[xs.len() - 1] > 35.0);
        let stats = c.coreset.expect("coreset stats on a coreset run");
        assert_eq!(stats.builds, 10);
        // 10 chunks → popcount(10) = 2 live buckets, ≤ the log bound.
        assert_eq!(stats.live_buckets, 2);
        assert!(stats.live_buckets as u32 <= 10usize.ilog2() + 1);
        assert_eq!(stats.ingested_points, 300.0);
        // Worker count must not change the clustering (ordered drain).
        let four = execute(&mk_plan(4), None, None).unwrap();
        assert_eq!(c.output.centroids, four.cells[0].output.centroids);
        assert_eq!(c.output.mse, four.cells[0].output.mse);
        // The v7 report block aggregates the tree.
        let run = report.run_report(None);
        let block = run.coreset.expect("coreset block");
        assert_eq!(block.trees, 1);
        assert_eq!(block.builds, 10);
        assert_eq!(block.ingested_points, 300.0);
        // Classic runs keep the block absent.
        let mut classic = mk_plan(3);
        classic.coreset = None;
        assert!(execute(&classic, None, None).unwrap().run_report(None).coreset.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_busy_accessors() {
        let dir = tmpdir("busy");
        let paths = vec![write_cell(&dir, 4, 150, 1)];
        let plan = optimize_fixed_split(
            LogicalPlan::new(paths, KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 0) }),
            &Resources::fixed(1 << 20, 2),
            30,
        );
        let report = execute(&plan, None, None).unwrap();
        assert!(report.partial_busy() > Duration::ZERO);
        assert!(report.elapsed >= report.merge_busy());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
