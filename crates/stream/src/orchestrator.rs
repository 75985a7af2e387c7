//! Multi-cell orchestration: work-stealing scheduling, a shared global
//! memory budget, and checkpoint/restart.
//!
//! The paper's pipeline clusters one grid cell at a time; the data
//! substrate defines all 64 800 1°×1° cells. This module is the first
//! layer that composes the pipeline, fault policy, ledger and mass
//! accounting *across* cells:
//!
//! * **Scheduling** — N cells are dealt round-robin onto per-worker
//!   deques; `jobs` workers pop their own queue front-first and steal from
//!   the back of other workers' queues when idle, so no cell starves and
//!   wall-clock tracks the slowest chain rather than the slowest worker.
//! * **Memory budget** — every cell admits its in-flight chunk footprint
//!   against a shared [`MemoryBudget`] before its pipeline starts and
//!   releases it after the merge; when the budget is exhausted workers
//!   block (backpressure) instead of over-committing memory.
//! * **Checkpoint/restart** — after a cell's merge, the merged partial
//!   plus its CellPlan mass accounting and fault counters are appended as
//!   one versioned, checksummed record to the checkpoint directory's
//!   journal. A killed run resumes by loading completed cells and
//!   re-scanning only the rest. Because every per-cell result is a pure
//!   function of `(bucket, plan, fault seed)`, a resumed run is
//!   bit-identical to an uninterrupted one — the equivalence suite in
//!   `tests/orchestrator_resume.rs` enforces this.
//!
//! ## Checkpoint journal format
//!
//! One append-only file, `<checkpoint-dir>/checkpoints.journal`, opened
//! once per run. Each commit appends one record of two JSON lines in a
//! single write, mirroring the ledger's versioned JSONL convention:
//!
//! ```text
//! {"checkpoint":2,"fingerprint":"…16 hex…","checksum":"…16 hex…","input":"cell_090_180.gb"}
//! {"clustering":{…},"faults":{…},"degraded":false,"elapsed":{…}}
//! ```
//!
//! The header carries the format version, an FNV-1a fingerprint of every
//! plan knob that affects results, and an FNV-1a checksum of the payload
//! line. The append is the commit point: a counted checkpoint is already
//! in the file (there is no fsync, so durability is the page cache's).
//! Resume reads the journal once and the newest valid record of each
//! input wins. Unknown header or payload fields are ignored on load
//! (forward compatible, like the ledger); a record from a newer version,
//! with a foreign fingerprint, a checksum mismatch, a torn tail or a parse
//! failure is invalid and its cell is silently re-scanned, never a panic.
//! After a clean run, garbage collection rewrites the journal (tmp, then
//! rename) down to the newest valid record of each planned cell whenever
//! it held records before the run opened it.

use crate::error::{EngineError, Result};
use crate::executor::{cell_report, execute_cell};
use crate::fault::FaultPlan;
use crate::item::CellClustering;
use crate::ops::ChunkPolicy;
use crate::plan::PhysicalPlan;
use parking_lot::Mutex;
use pmkm_obs::{
    FaultReport, OrchestratorReport, Recorder, RunReport, StatusCell, StatusSnapshot, WorkerState,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamped into every checkpoint record header. Readers reject
/// records from a *newer* version (re-scan, not panic); older readers skip
/// unknown fields, so additive evolution does not need a bump. Version 2
/// moved from one file per cell to the journal; version-1 files are not
/// read.
pub const CHECKPOINT_VERSION: u32 = 2;

/// File name of the checkpoint journal inside a checkpoint directory.
const JOURNAL_FILE: &str = "checkpoints.journal";

/// Every record header line starts with this; payload lines never do.
const HEADER_PREFIX: &[u8] = b"{\"checkpoint\":";

/// How the orchestrator runs a batch of cells.
#[derive(Debug, Clone, Default)]
pub struct OrchestratorOptions {
    /// Worker threads pulling cells off the work-stealing deques (≥ 1;
    /// `0` is treated as 1).
    pub jobs: usize,
    /// Global memory budget in bytes shared by all in-flight cells; `None`
    /// admits everything. Must be at least the largest single cell's
    /// footprint or [`orchestrate`] rejects the plan.
    pub budget_bytes: Option<usize>,
    /// Directory holding the checkpoint journal; `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load valid checkpoints from the journal in `checkpoint_dir` before
    /// scheduling and re-scan only the cells without one.
    pub resume: bool,
    /// Chaos-drill hook: simulate the process dying immediately after the
    /// k-th checkpoint write. Scheduling stops, in-flight cells are
    /// discarded (their checkpoint was never written) and the returned
    /// report is marked `interrupted`.
    pub kill_after_checkpoints: Option<usize>,
    /// Live-progress slot for the `/status` endpoint: the orchestrator
    /// publishes a fresh [`StatusSnapshot`] at run open, every cell
    /// commit, and run close. `None` skips publishing entirely.
    pub status: Option<Arc<StatusCell>>,
}

impl OrchestratorOptions {
    /// Options with `jobs` workers and everything else off.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), ..Self::default() }
    }

    /// Sets the shared memory budget.
    #[must_use]
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Enables checkpointing into `dir`.
    #[must_use]
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables resume-from-checkpoint.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Arms the kill-after-k-checkpoints chaos drill.
    #[must_use]
    pub fn kill_after(mut self, checkpoints: usize) -> Self {
        self.kill_after_checkpoints = Some(checkpoints);
        self
    }

    /// Publishes live progress snapshots into `status` (the `/status`
    /// endpoint's source).
    #[must_use]
    pub fn with_status(mut self, status: Arc<StatusCell>) -> Self {
        self.status = Some(status);
        self
    }
}

/// A shared byte budget with blocking admission — the backpressure
/// primitive cells admit their chunk footprint against.
#[derive(Debug)]
pub struct MemoryBudget {
    cap: usize,
    state: std::sync::Mutex<BudgetState>,
    cv: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct BudgetState {
    in_use: usize,
    peak: usize,
}

impl MemoryBudget {
    /// A budget of `cap` bytes.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            state: std::sync::Mutex::new(BudgetState::default()),
            cv: std::sync::Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Blocks until `bytes` fit under the cap, then reserves them. A
    /// request larger than the whole budget is clamped so a mis-sized
    /// caller stalls instead of deadlocking (orchestrate validates sizes
    /// up front, so this clamp never fires there).
    pub fn acquire(&self, bytes: usize) {
        let bytes = bytes.min(self.cap);
        let mut st = self.state.lock().expect("budget lock poisoned");
        while st.in_use + bytes > self.cap {
            st = self.cv.wait(st).expect("budget lock poisoned");
        }
        st.in_use += bytes;
        st.peak = st.peak.max(st.in_use);
    }

    /// Returns a reservation.
    pub fn release(&self, bytes: usize) {
        let bytes = bytes.min(self.cap);
        let mut st = self.state.lock().expect("budget lock poisoned");
        st.in_use = st.in_use.saturating_sub(bytes);
        drop(st);
        self.cv.notify_all();
    }

    /// High-water mark of concurrent reservations (the "never exceeded"
    /// witness: `peak() <= capacity()` by construction, asserted in tests).
    pub fn peak(&self) -> usize {
        self.state.lock().expect("budget lock poisoned").peak
    }
}

/// What one cell contributed to the planet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Position of the cell's bucket in the plan's input list — the
    /// canonical, completion-order-independent report ordering.
    pub input: usize,
    /// The bucket path.
    pub path: PathBuf,
    /// The merged clustering; `None` when the tolerant policy lost the
    /// whole cell.
    pub clustering: Option<CellClustering>,
    /// Fault counters of this cell's pipeline run.
    pub faults: FaultReport,
    /// True when the cell lost mass.
    pub degraded: bool,
    /// Wall time of the cell's pipeline (zero for resumed cells).
    pub elapsed: Duration,
    /// True when the outcome was loaded from a checkpoint instead of
    /// executed.
    pub resumed: bool,
}

/// The serialized slice of a [`CellOutcome`] — everything resume needs to
/// reproduce the cell's contribution bit-for-bit, including its fault
/// counters so the planet-level [`FaultReport`] matches an uninterrupted
/// run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointPayload {
    clustering: Option<CellClustering>,
    faults: FaultReport,
    degraded: bool,
    elapsed: Duration,
}

/// First line of a checkpoint record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    /// Format version ([`CHECKPOINT_VERSION`]).
    checkpoint: u32,
    /// FNV-1a over the result-affecting plan knobs, 16 hex digits.
    fingerprint: String,
    /// FNV-1a over the payload line's bytes, 16 hex digits.
    checksum: String,
    /// Bucket file name, as a paired-to-the-wrong-cell guard.
    input: String,
}

/// Planet-level report of an orchestrated run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetReport {
    /// Worker threads the run was scheduled with.
    pub jobs: usize,
    /// Per-cell outcomes in input order, resumed and executed alike.
    /// Cells skipped by a kill are absent.
    pub cells: Vec<CellOutcome>,
    /// Fault counters summed across every cell (checkpointed counters for
    /// resumed cells).
    pub faults: FaultReport,
    /// True when any cell lost mass.
    pub degraded: bool,
    /// End-to-end wall time of the orchestrated run.
    pub elapsed: Duration,
    /// Cells in the plan.
    pub cells_total: usize,
    /// Cells restored from checkpoints.
    pub cells_resumed: usize,
    /// Cells executed through the pipeline this run.
    pub cells_executed: usize,
    /// Cells whose journal records were all corrupt or stale (re-scanned),
    /// plus journal stretches no record header could be read from.
    pub checkpoints_invalid: usize,
    /// Checkpoint records appended this run.
    pub checkpoints_written: usize,
    /// Journal records (stale, superseded or corrupt) and legacy per-cell
    /// checkpoint files garbage-collected after the run completed cleanly.
    pub checkpoints_pruned: usize,
    /// True when the kill-after-k drill stopped the run early.
    pub interrupted: bool,
    /// High-water mark of the shared memory budget (0 without a budget).
    pub budget_peak: usize,
    /// Cells a worker stole from another worker's deque.
    pub steals: u64,
}

impl PlanetReport {
    /// Sum of bucket-promised points over all reported cells.
    pub fn expected_points(&self) -> f64 {
        self.clusterings().map(|c| c.expected_points).sum()
    }

    /// Sum of mass lost to faults over all reported cells.
    pub fn lost_points(&self) -> f64 {
        self.clusterings().map(|c| c.lost_points).sum()
    }

    /// Sum of mass that reached the merges (`Σ cluster_weights`).
    pub fn received_points(&self) -> f64 {
        self.clusterings().map(|c| c.output.cluster_weights.iter().sum::<f64>()).sum()
    }

    /// Every cell clustering, in input order.
    pub fn clusterings(&self) -> impl Iterator<Item = &CellClustering> {
        self.cells.iter().filter_map(|o| o.clustering.as_ref())
    }

    /// Rolls the per-cell outcomes into the observability layer's
    /// [`RunReport`] (schema v5's `orchestrator` block). Cell rows are
    /// sorted by cell index, matching the single-run executor.
    pub fn run_report(&self, rec: Option<&Recorder>) -> RunReport {
        let mut clusterings: Vec<&CellClustering> = self.clusterings().collect();
        clusterings.sort_by_key(|c| c.cell.index());
        RunReport {
            elapsed: self.elapsed,
            cells: clusterings.into_iter().map(cell_report).collect(),
            metrics: rec.map(|r| r.registry().snapshot()).unwrap_or_default(),
            phases: rec.map(|r| r.phase_rows()).unwrap_or_default(),
            degraded: self.degraded,
            faults: self.faults,
            orchestrator: Some(OrchestratorReport {
                jobs: self.jobs,
                cells_total: self.cells_total,
                cells_resumed: self.cells_resumed,
                cells_executed: self.cells_executed,
                checkpoints_written: self.checkpoints_written,
                checkpoints_invalid: self.checkpoints_invalid,
                interrupted: self.interrupted,
                budget_peak_bytes: self.budget_peak as u64,
                steals: self.steals,
            }),
            timeline: rec
                .and_then(|r| r.timeline().map(|tl| tl.snapshot(r.elapsed_us())))
                .filter(|tl| !tl.is_empty()),
            coreset: crate::executor::coreset_report(self.clusterings()),
            ..RunReport::new()
        }
    }

    /// Recomputes the executed-cell count from the recorded outcomes (the
    /// kill drill may have discarded in-flight cells).
    fn finalize(mut self) -> Self {
        self.cells_executed = self.cells.iter().filter(|o| !o.resumed).count();
        self
    }
}

/// Runs every input cell of `plan` through the pipeline under `opts`,
/// concurrently, and rolls the results into a [`PlanetReport`].
///
/// Each cell runs as its own single-bucket pipeline via
/// [`execute_cell`], so per-cell results are bit-identical to a serial
/// `execute` loop regardless of `jobs`, completion order, or whether the
/// cell was restored from a checkpoint.
pub fn orchestrate(
    plan: &PhysicalPlan,
    opts: &OrchestratorOptions,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
) -> Result<PlanetReport> {
    plan.validate()?;
    let started = Instant::now();
    let inputs = &plan.logical.inputs;
    let n = inputs.len();
    let jobs = opts.jobs.max(1);
    let fingerprint = plan_fingerprint(plan, fault_plan.as_ref());

    // Per-cell admission cost against the shared budget: the cell's
    // in-flight chunk footprint (one chunk per partial clone, plus the
    // chunker's build buffer and the merge's gathered centroids). The
    // same header read yields each cell's grid index, which the timeline
    // uses to route per-cell pipeline states onto the owning worker lane.
    let mut costs: Vec<usize> = Vec::with_capacity(n);
    let mut cell_ids: Vec<Option<u32>> = Vec::with_capacity(n);
    for p in inputs {
        // `probe` reads the shared 32-byte header prefix, so GB01 buckets
        // and GB02 block containers are admitted alike.
        match pmkm_data::probe(p) {
            Ok(info) => {
                cell_ids.push(Some(info.cell.index()));
                costs.push(cell_cost(plan, info.dim));
            }
            // Unreadable header: admit for free and let the pipeline
            // surface the proper scan error / tolerant abandonment.
            Err(_) => {
                cell_ids.push(None);
                costs.push(0);
            }
        }
    }
    let budget = match opts.budget_bytes {
        Some(cap) => {
            if let Some((i, &worst)) = costs.iter().enumerate().max_by_key(|(_, &c)| c) {
                if worst > cap {
                    return Err(EngineError::InvalidPlan(format!(
                        "memory budget of {cap} B cannot admit cell {} ({} B in-flight)",
                        inputs[i].display(),
                        worst
                    )));
                }
            }
            Some(MemoryBudget::new(cap))
        }
        None => None,
    };

    // Resume: restore completed cells, queue the rest.
    let mut outcomes: Vec<Option<CellOutcome>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    let mut invalid = 0usize;
    match (&opts.checkpoint_dir, opts.resume) {
        (Some(dir), true) => {
            let mut scan = read_journal(dir, fingerprint);
            for (i, path) in inputs.iter().enumerate() {
                let name = file_name(path);
                if let Some(p) = scan.loaded.remove(&name) {
                    outcomes[i] = Some(CellOutcome {
                        input: i,
                        path: path.clone(),
                        clustering: p.clustering,
                        faults: p.faults,
                        degraded: p.degraded,
                        elapsed: p.elapsed,
                        resumed: true,
                    });
                } else {
                    invalid += usize::from(scan.rejected.contains(&name));
                    pending.push(i);
                }
            }
            invalid += scan.unattributed;
        }
        _ => pending = (0..n).collect(),
    }
    let resumed = n - pending.len();
    // The journal is opened once, after resume has read it; every commit
    // appends to this one handle.
    let (journal, journal_had_records) = match &opts.checkpoint_dir {
        Some(dir) => {
            let (file, had_records) = open_journal(dir)?;
            (Some(file), had_records)
        }
        None => (None, false),
    };

    if let Some(rec) = rec.as_deref() {
        rec.event(
            "run.open",
            &[
                ("cells", n.into()),
                ("jobs", jobs.into()),
                ("partial_clones", plan.partial_clones.into()),
            ],
        );
        if opts.resume {
            rec.event(
                "run.resume",
                &[
                    ("cells_resumed", resumed.into()),
                    ("cells_pending", pending.len().into()),
                    ("checkpoints_invalid", invalid.into()),
                ],
            );
            // Re-announce each restored cell so a resumed run's ledger
            // still rolls up the full per-cell table and mass audit, and
            // roll the restored mass into the same gauges the merge path
            // maintains — `/metrics` then reports `Σw_received /
            // Σw_expected` over the *whole* run, resumed cells included.
            for o in outcomes.iter().flatten() {
                if let Some(c) = &o.clustering {
                    rec.event(
                        "cell.close",
                        &[
                            ("cell", c.cell.index().into()),
                            ("chunks", c.chunks.len().into()),
                            ("expected_points", c.expected_points.into()),
                            ("lost_points", c.lost_points.into()),
                            ("lost_chunks", c.lost_chunks.into()),
                            ("degraded", c.degraded.into()),
                            ("mse", c.output.mse.into()),
                            ("epm", c.output.epm.into()),
                            ("resumed", true.into()),
                        ],
                    );
                    let expected = rec.registry().gauge("mass_weight_expected");
                    let received = rec.registry().gauge("mass_weight_received");
                    expected.add(c.expected_points);
                    received.add(c.expected_points - c.lost_points);
                    let total = expected.get();
                    if total > 0.0 {
                        rec.registry().gauge("mass_conservation_ratio").set(received.get() / total);
                    }
                }
            }
        }
    }

    // Deal pending cells round-robin onto the per-worker deques.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (pos, &i) in pending.iter().enumerate() {
        queues[pos % jobs].lock().push_back(i);
    }

    // One timeline lane per worker (no-ops when no timeline is attached).
    let lanes: Vec<Option<usize>> = (0..jobs)
        .map(|w| rec.as_deref().and_then(|r| r.register_worker(&format!("w{w}"))))
        .collect();

    let shared = Shared {
        plan,
        rec: rec.clone(),
        fault_plan,
        queues,
        costs,
        cell_ids,
        budget,
        outcomes: Mutex::new(outcomes),
        first_err: Mutex::new(None),
        kill: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        commit: Mutex::new(Commit { written: 0, journal }),
        steals: AtomicU64::new(0),
        running: AtomicUsize::new(0),
        checkpoint_dir: opts.checkpoint_dir.clone(),
        kill_after: opts.kill_after_checkpoints,
        fingerprint,
        lanes,
        status: opts.status.clone(),
        started,
        cells_total: n,
    };
    shared.publish_status("running");

    crossbeam::thread::scope(|s| {
        for w in 0..jobs {
            let shared = &shared;
            s.spawn(move |_| worker(w, jobs, shared));
        }
    })
    .map_err(|_| EngineError::OperatorPanic("orchestrator worker".into()))?;

    if let Some(e) = shared.first_err.lock().take() {
        shared.publish_status("failed");
        return Err(e);
    }
    let interrupted = shared.interrupted.load(Ordering::Relaxed);
    shared.publish_status(if interrupted { "interrupted" } else { "done" });

    // Close the journal before GC may replace it.
    let checkpoints_written = {
        let mut commit = shared.commit.lock();
        commit.journal = None;
        if opts.checkpoint_dir.is_some() {
            commit.written
        } else {
            0
        }
    };
    // After a clean, uninterrupted run, prune what the plan can no longer
    // use (legacy per-cell files, and journal records for foreign buckets,
    // outdated fingerprints or superseded writes); the newest record of
    // each planned cell is kept so a re-run still resumes.
    let mut checkpoints_pruned = 0usize;
    if !interrupted {
        if let Some(dir) = &opts.checkpoint_dir {
            checkpoints_pruned = gc_checkpoints(dir, inputs, fingerprint, journal_had_records);
            if checkpoints_pruned > 0 {
                if let Some(rec) = rec.as_deref() {
                    rec.event("checkpoint.gc", &[("removed", checkpoints_pruned.into())]);
                }
            }
        }
    }

    let cells: Vec<CellOutcome> = shared.outcomes.into_inner().into_iter().flatten().collect();
    let mut faults = FaultReport::default();
    for o in &cells {
        add_faults(&mut faults, &o.faults);
    }
    let degraded = cells.iter().any(|o| o.degraded);
    let elapsed = started.elapsed();
    if let Some(rec) = rec.as_deref() {
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
    Ok(PlanetReport {
        jobs,
        cells_executed: 0, // filled in by finalize() from the outcomes
        cells,
        faults,
        degraded,
        elapsed,
        cells_total: n,
        cells_resumed: resumed,
        checkpoints_invalid: invalid,
        checkpoints_written,
        checkpoints_pruned,
        interrupted,
        budget_peak: shared.budget.as_ref().map(MemoryBudget::peak).unwrap_or(0),
        steals: shared.steals.load(Ordering::Relaxed),
    }
    .finalize())
}

struct Shared<'a> {
    plan: &'a PhysicalPlan,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    costs: Vec<usize>,
    cell_ids: Vec<Option<u32>>,
    budget: Option<MemoryBudget>,
    outcomes: Mutex<Vec<Option<CellOutcome>>>,
    first_err: Mutex<Option<EngineError>>,
    kill: AtomicBool,
    interrupted: AtomicBool,
    commit: Mutex<Commit>,
    steals: AtomicU64,
    running: AtomicUsize,
    checkpoint_dir: Option<PathBuf>,
    kill_after: Option<usize>,
    fingerprint: u64,
    lanes: Vec<Option<usize>>,
    status: Option<Arc<StatusCell>>,
    started: Instant,
    cells_total: usize,
}

/// The commit point: the checkpoint count and the open journal share one
/// lock with the kill check.
struct Commit {
    /// Cells committed this run (checkpoint records appended, when
    /// checkpointing).
    written: usize,
    /// The journal, open for append while the run checkpoints.
    journal: Option<File>,
}

impl Shared<'_> {
    /// Records worker `w`'s state on its timeline lane (no-op without one).
    fn set_state(&self, w: usize, state: WorkerState) {
        if let (Some(rec), Some(&Some(lane))) = (self.rec.as_deref(), self.lanes.get(w)) {
            rec.worker_state(lane, state);
        }
    }

    /// Routes cell `i`'s pipeline states (scan/partial/merge) onto worker
    /// `w`'s lane for the duration of the cell's run.
    fn bind_cell(&self, w: usize, i: usize) {
        if let (Some(rec), Some(&Some(lane)), Some(&Some(cell))) =
            (self.rec.as_deref(), self.lanes.get(w), self.cell_ids.get(i))
        {
            if let Some(tl) = rec.timeline() {
                tl.bind_cell(cell, lane);
            }
        }
    }

    fn unbind_cell(&self, i: usize) {
        if let (Some(rec), Some(&Some(cell))) = (self.rec.as_deref(), self.cell_ids.get(i)) {
            if let Some(tl) = rec.timeline() {
                tl.unbind_cell(cell);
            }
        }
    }

    /// Publishes a fresh [`StatusSnapshot`] computed from the committed
    /// outcomes (no-op without a status cell). Mass numbers are the same
    /// sums [`PlanetReport`] reports, so the final snapshot matches the
    /// run's report.
    fn publish_status(&self, state: &str) {
        let Some(status) = &self.status else { return };
        let mut snap = StatusSnapshot::new();
        snap.state = state.to_string();
        snap.cells_total = self.cells_total;
        {
            let outcomes = self.outcomes.lock();
            for o in outcomes.iter().flatten() {
                snap.cells_done += 1;
                if o.resumed {
                    snap.cells_resumed += 1;
                }
                match &o.clustering {
                    Some(c) => {
                        snap.expected_points += c.expected_points;
                        snap.lost_points += c.lost_points;
                        snap.received_points += c.output.cluster_weights.iter().sum::<f64>();
                    }
                    None => snap.cells_lost += 1,
                }
            }
        }
        snap.mass_ratio = if snap.expected_points > 0.0 {
            snap.received_points / snap.expected_points
        } else {
            1.0
        };
        snap.cells_running = self.running.load(Ordering::Relaxed);
        if let Some(b) = &self.budget {
            snap.budget_cap_bytes = b.capacity() as u64;
            snap.budget_peak_bytes = b.peak() as u64;
        }
        snap.steals = self.steals.load(Ordering::Relaxed);
        snap.elapsed_us = match self.rec.as_deref() {
            // The recorder clock keeps /status consistent with the
            // timeline and the ledger; without one, the run clock.
            Some(rec) => rec.elapsed_us(),
            None => self.started.elapsed().as_micros() as u64,
        };
        // ETA from cell-completion throughput: cells executed this run
        // over elapsed time (resumed cells restore instantly and would
        // skew the rate).
        let executed = snap.cells_done - snap.cells_resumed;
        let remaining = self.cells_total.saturating_sub(snap.cells_done);
        if executed > 0 && remaining > 0 {
            snap.eta_us = snap.elapsed_us * remaining as u64 / executed as u64;
        }
        if let Some(tl) = self.rec.as_deref().and_then(Recorder::timeline) {
            snap.workers = tl
                .snapshot(snap.elapsed_us)
                .workers
                .into_iter()
                .map(|lane| pmkm_obs::WorkerStatus {
                    worker: lane.worker,
                    state: lane.current,
                    utilization: lane.utilization,
                })
                .collect();
        }
        status.publish(snap);
    }
}

fn worker(w: usize, jobs: usize, shared: &Shared<'_>) {
    loop {
        if shared.kill.load(Ordering::Relaxed) {
            shared.set_state(w, WorkerState::Idle);
            return;
        }
        // Own queue front-first; steal from the back of the others. The
        // own-queue guard must drop before stealing: two workers that run
        // dry together would otherwise each hold their own queue while
        // locking the other's.
        let own = shared.queues[w].lock().pop_front();
        let task = own.or_else(|| {
            shared.set_state(w, WorkerState::Stealing);
            (1..jobs).find_map(|d| {
                let victim = (w + d) % jobs;
                let stolen = shared.queues[victim].lock().pop_back();
                if stolen.is_some() {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                }
                stolen
            })
        });
        let Some(i) = task else {
            shared.set_state(w, WorkerState::Idle);
            return;
        };

        let cost = shared.costs[i];
        if let Some(b) = &shared.budget {
            shared.set_state(w, WorkerState::BudgetWait);
            b.acquire(cost);
            if shared.kill.load(Ordering::Relaxed) {
                b.release(cost);
                shared.set_state(w, WorkerState::Idle);
                return;
            }
            // The wait ends here: pipeline setup is the cell's scan, not
            // budget wait.
            shared.set_state(w, WorkerState::Scan);
        }
        // The cell's own pipeline states (scan → partial → merge) land on
        // this worker's lane via the binding.
        shared.bind_cell(w, i);
        shared.running.fetch_add(1, Ordering::Relaxed);
        let res = run_one_cell(shared, i);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.unbind_cell(i);
        if let Some(b) = &shared.budget {
            b.release(cost);
        }
        match res {
            Err(e) => {
                let mut err = shared.first_err.lock();
                if err.is_none() {
                    *err = Some(e);
                }
                shared.kill.store(true, Ordering::Relaxed);
                shared.set_state(w, WorkerState::Idle);
                return;
            }
            Ok(outcome) => {
                // The record is encoded before the commit lock; the append
                // under it is the commit point.
                let record = shared.checkpoint_dir.as_ref().map(|_| {
                    shared.set_state(w, WorkerState::Checkpoint);
                    encode_checkpoint(shared.fingerprint, &outcome)
                });
                // Checkpoint + commit atomically with the kill check: a
                // cell whose checkpoint was not written before the "kill"
                // is treated as died-in-flight and discarded, exactly what
                // a real process death would leave behind.
                let mut commit = shared.commit.lock();
                if shared.kill.load(Ordering::Relaxed) {
                    shared.set_state(w, WorkerState::Idle);
                    return;
                }
                // Bytes appended, or `None` when the run does not checkpoint.
                let appended = match (record, commit.journal.as_mut()) {
                    (Some(record), Some(journal)) => record.and_then(|text| {
                        journal.write_all(text.as_bytes()).map(|()| Some(text.len())).map_err(|e| {
                            EngineError::InvalidPlan(format!("checkpoint journal append: {e}"))
                        })
                    }),
                    _ => Ok(None),
                };
                match appended {
                    Ok(bytes) => {
                        commit.written += 1;
                        if let (Some(bytes), Some(rec)) = (bytes, shared.rec.as_deref()) {
                            let cell = outcome
                                .clustering
                                .as_ref()
                                .map(|c| c.cell.index().to_string())
                                .unwrap_or_else(|| file_name(&outcome.path));
                            rec.event(
                                "cell.checkpoint",
                                &[
                                    ("cell", cell.into()),
                                    ("seq", (commit.written as u64).into()),
                                    ("bytes", (bytes as u64).into()),
                                ],
                            );
                        }
                    }
                    Err(e) => {
                        drop(commit);
                        let mut err = shared.first_err.lock();
                        if err.is_none() {
                            *err = Some(e);
                        }
                        shared.kill.store(true, Ordering::Relaxed);
                        shared.set_state(w, WorkerState::Idle);
                        return;
                    }
                }
                if shared.kill_after == Some(commit.written) {
                    shared.kill.store(true, Ordering::Relaxed);
                    shared.interrupted.store(true, Ordering::Relaxed);
                }
                drop(commit);
                shared.outcomes.lock()[i] = Some(outcome);
                shared.set_state(w, WorkerState::Idle);
                shared.publish_status("running");
            }
        }
    }
}

fn run_one_cell(shared: &Shared<'_>, i: usize) -> Result<CellOutcome> {
    let path = shared.plan.logical.inputs[i].clone();
    let mut cell_plan = shared.plan.clone();
    cell_plan.logical.inputs = vec![path.clone()];
    cell_plan.scan_clones = 1;
    // Coreset runs report their anytime clustering on /status: route the
    // orchestrator's status cell into the operator unless the caller
    // already wired a probe of their own.
    if let Some(spec) = cell_plan.coreset.as_mut() {
        if spec.probe.is_none() {
            spec.probe = shared.status.clone();
        }
    }
    let report = execute_cell(&cell_plan, shared.rec.clone(), shared.fault_plan.clone())?;
    Ok(CellOutcome {
        input: i,
        path,
        clustering: report.cells.into_iter().next(),
        faults: report.faults,
        degraded: report.degraded,
        elapsed: report.elapsed,
        resumed: false,
    })
}

/// In-flight bytes one cell's pipeline holds: one chunk per partial clone
/// plus the chunker's build buffer and the merge's gathered set.
fn cell_cost(plan: &PhysicalPlan, dim: usize) -> usize {
    let chunk_bytes = match plan.chunk_policy {
        ChunkPolicy::MemoryBudget { bytes } => bytes,
        ChunkPolicy::FixedPoints(p) => p * dim * std::mem::size_of::<f64>(),
    };
    chunk_bytes * (plan.partial_clones + 2)
}

/// Every plan knob that changes clustering results or fault injection —
/// parallelism knobs (clones, queue capacities, jobs) are deliberately
/// excluded because results are invariant to them.
fn plan_fingerprint(plan: &PhysicalPlan, fault_plan: Option<&FaultPlan>) -> u64 {
    // `CoresetSpec`'s manual Debug omits the status probe, so attaching a
    // live dashboard never invalidates checkpoints.
    // The scan backend is part of the key: backends change injection
    // granularity under chaos, so checkpoints must not cross backends.
    let key = format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        plan.logical.kmeans,
        plan.logical.merge_mode,
        plan.logical.merge_restarts,
        plan.chunk_policy,
        plan.fault_policy,
        plan.coreset,
        fault_plan,
        plan.scan_backend
    );
    fnv1a(key.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn file_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// The checkpoint journal inside a checkpoint directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// One checkpoint record (header line + payload line) for `outcome`.
fn encode_checkpoint(fingerprint: u64, outcome: &CellOutcome) -> Result<String> {
    let payload = CheckpointPayload {
        clustering: outcome.clustering.clone(),
        faults: outcome.faults,
        degraded: outcome.degraded,
        elapsed: outcome.elapsed,
    };
    let payload_line = serde_json::to_string(&payload)
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint serialization failed: {e}")))?;
    let header = CheckpointHeader {
        checkpoint: CHECKPOINT_VERSION,
        fingerprint: format!("{fingerprint:016x}"),
        checksum: format!("{:016x}", fnv1a(payload_line.as_bytes())),
        input: file_name(&outcome.path),
    };
    let header_line = serde_json::to_string(&header)
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint serialization failed: {e}")))?;
    Ok(format!("{header_line}\n{payload_line}\n"))
}

/// Opens (creating) the journal for append. Returns the handle and
/// whether the journal already held bytes. A record torn by a crash has
/// no trailing newline, so one is appended first: the torn record stays
/// invalid and the next record starts on a line of its own.
fn open_journal(dir: &Path) -> Result<(File, bool)> {
    let err = |e: std::io::Error| {
        EngineError::InvalidPlan(format!("checkpoint journal in {}: {e}", dir.display()))
    };
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(journal_path(dir))
        .map_err(err)?;
    let len = file.metadata().map_err(err)?.len();
    if len > 0 {
        let mut last = [0u8];
        file.seek(SeekFrom::Start(len - 1))
            .and_then(|_| file.read_exact(&mut last))
            .map_err(err)?;
        if last[0] != b'\n' {
            file.write_all(b"\n").map_err(err)?;
        }
    }
    Ok((file, len > 0))
}

/// One entry of a parsed journal.
enum Entry<'a> {
    /// A header line and the payload line after it (not yet validated).
    Record { header: CheckpointHeader, header_line: &'a [u8], payload: &'a [u8] },
    /// A header whose payload line never reached the file.
    Torn(CheckpointHeader),
    /// A run of lines no header could be read from (garbage, or a torn or
    /// corrupted header with its payload).
    Garbage,
}

/// Splits journal bytes into entries. Never fails: anything that is not
/// a header + payload pair becomes a `Torn` or `Garbage` entry, and
/// parsing resynchronizes on the next header line.
fn parse_journal(bytes: &[u8]) -> Vec<Entry<'_>> {
    let header_of = |line: &[u8]| -> Option<CheckpointHeader> {
        if !line.starts_with(HEADER_PREFIX) {
            return None;
        }
        serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
    };
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let mut entries = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        match header_of(lines[i]) {
            None => {
                if !matches!(entries.last(), Some(Entry::Garbage)) {
                    entries.push(Entry::Garbage);
                }
                i += 1;
            }
            Some(header) => match lines.get(i + 1) {
                Some(&payload) if !payload.starts_with(HEADER_PREFIX) => {
                    entries.push(Entry::Record { header, header_line: lines[i], payload });
                    i += 2;
                }
                _ => {
                    entries.push(Entry::Torn(header));
                    i += 1;
                }
            },
        }
    }
    entries
}

/// True when a record belongs to this run's plan and its payload is
/// intact: version not newer than ours, matching fingerprint, matching
/// checksum.
fn record_current(header: &CheckpointHeader, payload: &[u8], fingerprint: &str) -> bool {
    header.checkpoint <= CHECKPOINT_VERSION
        && header.fingerprint == fingerprint
        && header.checksum == format!("{:016x}", fnv1a(payload))
}

/// What a resume found in the journal.
#[derive(Default)]
struct JournalScan {
    /// The newest valid record of each input, by bucket file name.
    loaded: HashMap<String, CheckpointPayload>,
    /// Inputs with records but no valid one.
    rejected: HashSet<String>,
    /// Journal stretches no record header could be read from.
    unattributed: usize,
}

/// Reads the journal once for resume. The newest valid record of each
/// input wins. A missing journal resumes nothing; an unreadable one
/// resumes nothing and counts as one invalid stretch.
fn read_journal(dir: &Path, fingerprint: u64) -> JournalScan {
    let mut scan = JournalScan::default();
    let bytes = match std::fs::read(journal_path(dir)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return scan,
        Err(_) => {
            scan.unattributed = 1;
            return scan;
        }
    };
    let want = format!("{fingerprint:016x}");
    // Newest first, so the first valid record seen for an input wins.
    for entry in parse_journal(&bytes).into_iter().rev() {
        match entry {
            Entry::Garbage => scan.unattributed += 1,
            Entry::Torn(header) => {
                if !scan.loaded.contains_key(&header.input) {
                    scan.rejected.insert(header.input);
                }
            }
            Entry::Record { header, payload, .. } => {
                if scan.loaded.contains_key(&header.input) {
                    continue;
                }
                let parsed = if record_current(&header, payload, &want) {
                    std::str::from_utf8(payload)
                        .ok()
                        .and_then(|text| serde_json::from_str::<CheckpointPayload>(text).ok())
                } else {
                    None
                };
                match parsed {
                    Some(p) => {
                        scan.rejected.remove(&header.input);
                        scan.loaded.insert(header.input, p);
                    }
                    None => {
                        scan.rejected.insert(header.input);
                    }
                }
            }
        }
    }
    scan
}

/// Garbage-collects what a completed run can no longer use: legacy
/// per-cell `*.ckpt` / `*.ckpt.tmp` files and, when the journal held
/// records before this run opened it (`compact`), every journal record
/// except the newest valid one of each planned cell. The journal is then
/// rewritten once, tmp-then-rename. A journal this run created holds only
/// this run's records, one per cell, so it is left as written. Returns
/// files plus records removed; I/O errors skip the step, never fail the
/// run.
fn gc_checkpoints(dir: &Path, inputs: &[PathBuf], fingerprint: u64, compact: bool) -> usize {
    let mut removed = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.ends_with(".ckpt") || name.ends_with(".ckpt.tmp"))
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
    }
    if compact {
        removed += compact_journal(dir, inputs, fingerprint);
    }
    removed
}

/// Rewrites the journal down to the newest valid record of each planned
/// cell, in journal order. Returns the records dropped.
fn compact_journal(dir: &Path, inputs: &[PathBuf], fingerprint: u64) -> usize {
    let path = journal_path(dir);
    let Ok(bytes) = std::fs::read(&path) else { return 0 };
    let planned: HashSet<String> = inputs.iter().map(|p| file_name(p)).collect();
    let want = format!("{fingerprint:016x}");
    let entries = parse_journal(&bytes);
    let mut seen: HashSet<&str> = HashSet::new();
    let mut keep: Vec<(&[u8], &[u8])> = Vec::new();
    for entry in entries.iter().rev() {
        if let Entry::Record { header, header_line, payload } = entry {
            if planned.contains(&header.input)
                && !seen.contains(header.input.as_str())
                && record_current(header, payload, &want)
            {
                seen.insert(&header.input);
                keep.push((header_line, payload));
            }
        }
    }
    let dropped = entries.len() - keep.len();
    if dropped == 0 {
        return 0;
    }
    let mut text = Vec::with_capacity(bytes.len());
    for (header_line, payload) in keep.into_iter().rev() {
        text.extend_from_slice(header_line);
        text.push(b'\n');
        text.extend_from_slice(payload);
        text.push(b'\n');
    }
    let tmp = path.with_extension("journal.tmp");
    match std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &path)) {
        Ok(()) => dropped,
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            0
        }
    }
}

fn add_faults(into: &mut FaultReport, from: &FaultReport) {
    into.scan_retries += from.scan_retries;
    into.scan_failures += from.scan_failures;
    into.chunks_poisoned += from.chunks_poisoned;
    into.chunks_quarantined += from.chunks_quarantined;
    into.worker_panics += from.worker_panics;
    into.chunk_retries += from.chunk_retries;
    into.queue_stalls += from.queue_stalls;
    into.cells_degraded += from.cells_degraded;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use crate::optimizer::optimize_fixed_split;
    use crate::plan::LogicalPlan;
    use crate::resources::Resources;
    use pmkm_core::{Dataset, KMeansConfig};
    use pmkm_data::{GridBucket, GridCell};

    fn write_cell(dir: &Path, idx: u16, n: usize, seed: u64) -> PathBuf {
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

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_orch_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn mk_plan(paths: &[PathBuf], seed: u64) -> PhysicalPlan {
        optimize_fixed_split(
            LogicalPlan::new(
                paths.to_vec(),
                KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, seed) },
            ),
            &Resources::fixed(1 << 20, 2),
            40,
        )
    }

    fn assert_same_cells(a: &PlanetReport, b: &PlanetReport) {
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.input, y.input);
            assert_eq!(x.path, y.path);
            let (cx, cy) = (x.clustering.as_ref().unwrap(), y.clustering.as_ref().unwrap());
            assert_eq!(cx.output.centroids, cy.output.centroids);
            assert_eq!(cx.output.epm.to_bits(), cy.output.epm.to_bits());
            assert_eq!(cx.expected_points.to_bits(), cy.expected_points.to_bits());
        }
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn orchestrated_cells_match_a_serial_execute_loop() {
        let dir = tmpdir("serial_parity");
        let paths: Vec<PathBuf> =
            (1..=5).map(|i| write_cell(&dir, i, 80 + 30 * i as usize, 9)).collect();
        let plan = mk_plan(&paths, 11);
        let planet = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_eq!(planet.cells.len(), 5);
        assert_eq!(planet.cells_executed, 5);
        for (i, outcome) in planet.cells.iter().enumerate() {
            let mut one = plan.clone();
            one.logical.inputs = vec![paths[i].clone()];
            one.scan_clones = 1;
            let solo = execute(&one).unwrap();
            let orch = outcome.clustering.as_ref().unwrap();
            assert_eq!(orch.output.centroids, solo.cells[0].output.centroids);
            assert_eq!(orch.output.epm.to_bits(), solo.cells[0].output.epm.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn planet_report_ordering_is_independent_of_worker_count() {
        let dir = tmpdir("ordering");
        // Mixed sizes so completion order differs from input order.
        let sizes = [400usize, 60, 250, 90, 300, 70];
        let paths: Vec<PathBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| write_cell(&dir, (i + 1) as u16, n, 5))
            .collect();
        let plan = mk_plan(&paths, 3);
        let one = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        let four = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_same_cells(&one, &four);
        // Deterministic input-order reporting regardless of completion order.
        for (i, o) in four.cells.iter().enumerate() {
            assert_eq!(o.input, i);
            assert_eq!(o.path, paths[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_workers_steal_and_no_cell_starves() {
        let dir = tmpdir("steal");
        // jobs=2 deals cells [0,2] to worker 0 and [1] to worker 1. Cell 0
        // is much bigger, so worker 1 finishes its own cell and must steal
        // cell 2 from worker 0's deque for the run to stay balanced.
        let paths = vec![
            write_cell(&dir, 1, 4000, 13),
            write_cell(&dir, 2, 40, 13),
            write_cell(&dir, 3, 40, 13),
        ];
        let mut plan = mk_plan(&paths, 29);
        plan.logical.kmeans.restarts = 3;
        let planet = orchestrate(&plan, &OrchestratorOptions::new(2), None, None).unwrap();
        assert_eq!(planet.cells.len(), 3, "a cell starved");
        assert!(planet.steals >= 1, "expected at least one steal, got {}", planet.steals);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Workers that run dry together all steal at once; holding the own
    /// queue's lock while locking a victim's used to deadlock them. Many
    /// tiny-cell planets at 2–4 workers end in exactly that race.
    #[test]
    fn workers_running_dry_together_never_deadlock() {
        const ROUNDS: usize = 600;
        let dir = tmpdir("dry_steal");
        let paths: Vec<PathBuf> = (1..=24).map(|i| write_cell(&dir, i, 6, 3)).collect();
        let plan = mk_plan(&paths, 5);
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached only while it might hang; joined once every round is in.
        let runner = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let jobs = 2 + round % 3;
                // A timeline makes the steal-state transition do real work,
                // which widens the race window.
                let rec = Recorder::new().with_timeline(Arc::new(pmkm_obs::Timeline::new()));
                let opts = OrchestratorOptions::new(jobs);
                let planet = orchestrate(&plan, &opts, Some(Arc::new(rec)), None);
                tx.send(planet.map(|p| p.cells.len())).unwrap();
            }
        });
        for round in 0..ROUNDS {
            match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(cells) => assert_eq!(cells.unwrap(), 24, "round {round}"),
                Err(_) => panic!("orchestrate hung in round {round}: workers deadlocked"),
            }
        }
        runner.join().expect("runner thread");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tight_budget_backpressures_but_never_exceeds() {
        let dir = tmpdir("budget");
        let paths: Vec<PathBuf> = (1..=6).map(|i| write_cell(&dir, i, 120, 21)).collect();
        let plan = mk_plan(&paths, 7);
        // Budget for exactly one cell: 4 workers must serialize admission.
        let one_cell = cell_cost(&plan, 2);
        let opts = OrchestratorOptions::new(4).with_budget(one_cell);
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.cells.len(), 6);
        assert!(planet.budget_peak > 0);
        assert!(
            planet.budget_peak <= one_cell,
            "budget exceeded: {} > {}",
            planet.budget_peak,
            one_cell
        );
        // Results are unchanged by the backpressure.
        let free = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_same_cells(&planet, &free);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_smaller_than_one_cell_is_rejected() {
        let dir = tmpdir("budget_reject");
        let paths = vec![write_cell(&dir, 9, 100, 2)];
        let plan = mk_plan(&paths, 7);
        let opts = OrchestratorOptions::new(2).with_budget(16);
        match orchestrate(&plan, &opts, None, None) {
            Err(EngineError::InvalidPlan(msg)) => assert!(msg.contains("budget")),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_budget_tracks_peak() {
        let b = MemoryBudget::new(100);
        b.acquire(60);
        b.acquire(30);
        assert_eq!(b.peak(), 90);
        b.release(60);
        b.acquire(40);
        assert_eq!(b.peak(), 90);
        b.release(30);
        b.release(40);
        assert_eq!(b.capacity(), 100);
    }

    #[test]
    fn strict_failure_aborts_the_whole_run() {
        let dir = tmpdir("strict_abort");
        let mut paths = vec![write_cell(&dir, 1, 80, 3)];
        paths.push(PathBuf::from("/nonexistent/cell.gb"));
        let plan = mk_plan(&paths, 1);
        assert!(matches!(
            orchestrate(&plan, &OrchestratorOptions::new(2), None, None),
            Err(EngineError::Data(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn bare_outcome(path: &Path) -> CellOutcome {
        CellOutcome {
            input: 0,
            path: path.to_path_buf(),
            clustering: None,
            faults: FaultReport::default(),
            degraded: false,
            elapsed: Duration::ZERO,
            resumed: false,
        }
    }

    /// Appends one record the way a commit does.
    fn append(dir: &Path, fingerprint: u64, outcome: &CellOutcome) {
        let (mut journal, _) = open_journal(dir).unwrap();
        journal.write_all(encode_checkpoint(fingerprint, outcome).unwrap().as_bytes()).unwrap();
    }

    fn journal_records(dir: &Path) -> usize {
        parse_journal(&std::fs::read(journal_path(dir)).unwrap()).len()
    }

    #[test]
    fn checkpoint_gc_keeps_current_run_and_deletes_stale_files() {
        let dir = tmpdir("ckpt_gc");
        let ckpt_dir = dir.join("ckpt");
        let keep_bucket = write_cell(&dir, 21, 50, 3);
        let foreign_bucket = write_cell(&dir, 22, 50, 3);
        // A superseded and a current record of a planned cell, a stale
        // fingerprint, and a garbage line.
        let mut older = bare_outcome(&keep_bucket);
        older.elapsed = Duration::from_micros(1);
        append(&ckpt_dir, 0x1111, &older);
        append(&ckpt_dir, 0x9999, &bare_outcome(&foreign_bucket));
        std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&ckpt_dir))
            .unwrap()
            .write_all(b"junk\n")
            .unwrap();
        append(&ckpt_dir, 0x1111, &bare_outcome(&keep_bucket));
        // Legacy per-cell files, including a crash's orphaned temp file.
        std::fs::write(ckpt_dir.join("orphan.gb.ckpt"), "junk\n").unwrap();
        std::fs::write(ckpt_dir.join("cell_001_001.gb.ckpt.tmp"), "half").unwrap();
        // A non-checkpoint file is never touched.
        std::fs::write(ckpt_dir.join("notes.txt"), "keep me").unwrap();

        let inputs = vec![keep_bucket.clone(), foreign_bucket.clone()];
        let removed = gc_checkpoints(&ckpt_dir, &inputs, 0x1111, true);
        assert_eq!(removed, 5, "2 legacy files + superseded, stale and garbage records");
        assert!(!ckpt_dir.join("orphan.gb.ckpt").exists(), "legacy file deleted");
        assert!(!ckpt_dir.join("cell_001_001.gb.ckpt.tmp").exists(), "orphaned tmp deleted");
        assert!(ckpt_dir.join("notes.txt").exists(), "non-ckpt untouched");
        assert_eq!(journal_records(&ckpt_dir), 1, "only the newest current record is kept");
        // The kept record is the newest one and still loads.
        let scan = read_journal(&ckpt_dir, 0x1111);
        assert_eq!(scan.loaded[&file_name(&keep_bucket)].elapsed, Duration::ZERO);
        assert!(scan.rejected.is_empty());
        assert_eq!(scan.unattributed, 0);
        // A compacted journal has nothing left to drop.
        assert_eq!(gc_checkpoints(&ckpt_dir, &inputs, 0x1111, true), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_prunes_orphaned_legacy_temp_files_without_compacting() {
        let dir = tmpdir("ckpt_tmp_gc");
        let ckpt_dir = dir.join("ckpt");
        let bucket = write_cell(&dir, 23, 50, 3);
        append(&ckpt_dir, 0x1111, &bare_outcome(&bucket));
        append(&ckpt_dir, 0x2222, &bare_outcome(&bucket));
        std::fs::write(ckpt_dir.join("cell_023_023.gb.ckpt.tmp"), "torn").unwrap();
        std::fs::write(ckpt_dir.join("cell_023_023.gb.ckpt"), "old format").unwrap();
        // Without `compact` only the legacy files go; the journal stays.
        assert_eq!(gc_checkpoints(&ckpt_dir, &[bucket], 0x1111, false), 2);
        assert_eq!(journal_records(&ckpt_dir), 2);
        let names: Vec<String> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![JOURNAL_FILE.to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_prunes_stale_checkpoints_after_a_clean_run() {
        let dir = tmpdir("gc_e2e");
        let paths: Vec<PathBuf> = (1..=2).map(|i| write_cell(&dir, i, 60, 4)).collect();
        let plan = mk_plan(&paths, 5);
        let ckpt_dir = dir.join("ckpt");
        // Seed legacy files from a run of the per-cell format.
        std::fs::create_dir_all(&ckpt_dir).unwrap();
        std::fs::write(ckpt_dir.join("old_run.gb.ckpt"), "junk\n").unwrap();
        std::fs::write(ckpt_dir.join("old_run.gb.ckpt.tmp"), "junk").unwrap();
        let opts = OrchestratorOptions::new(2).with_checkpoints(&ckpt_dir);
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.checkpoints_written, 2);
        assert_eq!(planet.checkpoints_pruned, 2, "legacy files pruned");
        assert!(!ckpt_dir.join("old_run.gb.ckpt").exists());
        assert!(!ckpt_dir.join("old_run.gb.ckpt.tmp").exists());
        assert_eq!(journal_records(&ckpt_dir), 2, "own checkpoints kept");
        // An interrupted run must NOT prune (resume still needs the dir).
        std::fs::write(ckpt_dir.join("old_run.gb.ckpt"), "junk\n").unwrap();
        let killed = orchestrate(&plan, &opts.clone().kill_after(1), None, None).unwrap();
        assert!(killed.interrupted);
        assert_eq!(killed.checkpoints_pruned, 0);
        assert!(ckpt_dir.join("old_run.gb.ckpt").exists());
        assert_eq!(journal_records(&ckpt_dir), 3);
        // A clean re-run appends two more records, then compacts the
        // journal back to one per cell: 3 superseded records + 1 file.
        let rerun = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(rerun.checkpoints_pruned, 4);
        assert_eq!(journal_records(&ckpt_dir), 2);
        let resumed = orchestrate(&plan, &opts.clone().resuming(), None, None).unwrap();
        assert_eq!(resumed.cells_resumed, 2);
        assert_eq!(resumed.checkpoints_pruned, 0, "nothing stale left");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With a budget that never blocks, a lane's budget-wait dwell covers
    /// only the `acquire` call: the worker leaves the state as soon as
    /// admission returns, before the cell's pipeline is built. With one
    /// worker the ledger order pins this exactly: every `budget-wait`
    /// transition is followed by the lane's `scan` transition before the
    /// scan operator announces the cell (`cell.open`).
    #[test]
    fn ample_budget_wait_ends_when_acquire_returns() {
        let dir = tmpdir("budget_dwell");
        let paths: Vec<PathBuf> = (1..=4).map(|i| write_cell(&dir, i, 90, 6)).collect();
        let plan = mk_plan(&paths, 3);
        let ring = Arc::new(pmkm_obs::RingBufferSink::new(1 << 16));
        let rec = Recorder::new()
            .with_sink(ring.clone())
            .with_timeline(Arc::new(pmkm_obs::Timeline::new()));
        let opts = OrchestratorOptions::new(1).with_budget(cell_cost(&plan, 2) * 8);
        let planet = orchestrate(&plan, &opts, Some(Arc::new(rec)), None).unwrap();
        assert_eq!(planet.cells.len(), 4);
        let events = ring.events();
        let state = |e: &pmkm_obs::Event| match e.fields.iter().find(|(k, _)| k == "state") {
            Some((_, pmkm_obs::FieldValue::Str(s))) => s.clone(),
            _ => String::new(),
        };
        let mut waits = 0;
        for (i, e) in events.iter().enumerate() {
            if e.name != "worker.state" || state(e) != "budget-wait" {
                continue;
            }
            waits += 1;
            let next = events[i + 1..]
                .iter()
                .find(|n| n.name == "worker.state" || n.name == "cell.open")
                .expect("the admitted cell runs");
            assert_eq!(next.name, "worker.state", "budget wait still open at cell.open");
            assert_eq!(state(next), "scan");
        }
        assert_eq!(waits, 4, "one admission per cell");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coreset_orchestrate_publishes_anytime_status_and_report_block() {
        let dir = tmpdir("coreset");
        let paths: Vec<PathBuf> = (1..=3).map(|i| write_cell(&dir, i, 120, 8)).collect();
        let mut plan = mk_plan(&paths, 13);
        plan.coreset = Some(crate::plan::CoresetSpec::new(32));
        let status = Arc::new(StatusCell::new());
        let opts = OrchestratorOptions::new(2).with_status(status.clone());
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.cells.len(), 3);
        for c in planet.clusterings() {
            let stats = c.coreset.expect("coreset stats per cell");
            assert_eq!(stats.builds, 3); // 120 points / 40-point chunks
            let total: f64 = c.output.cluster_weights.iter().sum();
            assert_eq!(total, 120.0);
        }
        // The orchestrator's status cell doubles as the anytime probe.
        let cs = status.coreset().expect("anytime clustering published to /status");
        assert!(cs.builds > 0);
        assert_eq!(cs.centroids.len(), cs.k);
        // The planet report carries the aggregated v7 block.
        let block = planet.run_report(None).coreset.expect("coreset block");
        assert_eq!(block.trees, 3);
        assert_eq!(block.builds, 9);
        assert_eq!(block.ingested_points, 360.0);
        // Worker count and the probe never change the clustering.
        let one = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        assert_same_cells(&planet, &one);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_records_round_trip_and_detect_tampering() {
        let dir = tmpdir("ckpt_unit");
        let bucket = write_cell(&dir, 4, 90, 17);
        let name = file_name(&bucket);
        let outcome = CellOutcome {
            faults: FaultReport { scan_retries: 2, ..FaultReport::default() },
            degraded: true,
            elapsed: Duration::from_micros(123),
            ..bare_outcome(&bucket)
        };
        let ckpt_dir = dir.join("ckpt");
        // Missing journal: nothing loaded, nothing invalid.
        let scan = read_journal(&ckpt_dir, 0xabcd);
        assert!(scan.loaded.is_empty() && scan.rejected.is_empty() && scan.unattributed == 0);
        append(&ckpt_dir, 0xabcd, &outcome);
        let scan = read_journal(&ckpt_dir, 0xabcd);
        let p = &scan.loaded[&name];
        assert_eq!(p.faults.scan_retries, 2);
        assert!(p.degraded);
        assert_eq!(p.elapsed, Duration::from_micros(123));
        // Wrong fingerprint → invalid, not panic.
        let scan = read_journal(&ckpt_dir, 0xabce);
        assert!(scan.loaded.is_empty());
        assert!(scan.rejected.contains(&name));
        // Flip one payload byte → checksum catches it.
        let path = journal_path(&ckpt_dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 3;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_journal(&ckpt_dir, 0xabcd);
        assert!(scan.loaded.is_empty());
        assert!(scan.rejected.contains(&name));
        // A later intact record supersedes the corrupt one, and a newer
        // stale record does not shadow it.
        append(&ckpt_dir, 0xabcd, &outcome);
        append(&ckpt_dir, 0x9999, &outcome);
        let scan = read_journal(&ckpt_dir, 0xabcd);
        assert!(scan.loaded.contains_key(&name));
        assert!(scan.rejected.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_parser_resyncs_after_torn_and_garbage_records() {
        let dir = tmpdir("ckpt_parse");
        let a = write_cell(&dir, 5, 30, 1);
        let b = write_cell(&dir, 6, 30, 1);
        let record = |p: &Path| encode_checkpoint(7, &bare_outcome(p)).unwrap();
        let rec_a = record(&a);
        let header_a = rec_a.split_inclusive('\n').next().unwrap();
        // A header whose payload never landed, a torn payload terminated
        // by the next open, garbage over two lines, then an intact record.
        let rec_b = record(&b);
        let torn_b = &rec_b[..rec_b.len() - 5];
        let text = format!("{header_a}{torn_b}\ngarbage\nmore garbage\n{rec_a}");
        let entries = parse_journal(text.as_bytes());
        assert!(matches!(entries[0], Entry::Torn(_)));
        assert!(matches!(entries[1], Entry::Record { .. }));
        assert!(matches!(entries[2], Entry::Garbage));
        assert!(matches!(entries[3], Entry::Record { .. }));
        assert_eq!(entries.len(), 4);
        std::fs::create_dir_all(dir.join("ckpt")).unwrap();
        std::fs::write(journal_path(&dir.join("ckpt")), &text).unwrap();
        let scan = read_journal(&dir.join("ckpt"), 7);
        assert!(scan.loaded.contains_key(&file_name(&a)), "newest record of a wins");
        assert!(!scan.rejected.contains(&file_name(&a)));
        assert!(scan.rejected.contains(&file_name(&b)), "torn payload fails its checksum");
        assert_eq!(scan.unattributed, 1, "one garbage stretch");
        std::fs::remove_dir_all(&dir).ok();
    }
}
