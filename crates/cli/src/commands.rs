//! The `pmkm` subcommands. Each command is a function from parsed [`Args`]
//! to an exit outcome, writing human-readable output to the supplied
//! writer so tests can capture it.

use crate::args::{ArgError, Args};
use pmkm_compress::compress_cell;
use pmkm_core::{KMeansConfig, MergeMode, PartialMergeConfig, PartitionSpec, PointSource};
use pmkm_data::binner::bin_stripes;
use pmkm_data::{GridBucket, SwathConfig, SwathSimulator};
use pmkm_stream::prelude::*;
use std::io::Write;
use std::path::PathBuf;

/// Any command failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Underlying library failure.
    Run(String),
    /// No such subcommand.
    UnknownCommand(String),
    /// `pmkm diff` detected a performance regression — a distinct variant
    /// so the binary can exit with a machine-readable code (3) that CI
    /// gates can tell apart from plain failures (1).
    Regression(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Run(msg) => write!(f, "{msg}"),
            CliError::Regression(msg) => write!(f, "{msg}"),
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command '{c}'; try: generate, bin, inspect, cluster, orchestrate, \
                     convert, diff, compress, query, serve-demo"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The `pmkm` binary's exit status for this failure: 3 for detected
    /// regressions, so CI gates can tell "B is slower" (3) apart from "the
    /// diff itself failed" (1); 1 for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Regression(_) => 3,
            _ => 1,
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn run_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// Dispatches a subcommand.
pub fn dispatch<W: Write>(command: &str, args: &Args, out: &mut W) -> Result<(), CliError> {
    match command {
        "generate" => generate(args, out),
        "bin" => bin(args, out),
        "inspect" => inspect(args, out),
        "cluster" => cluster(args, out),
        "orchestrate" => orchestrate_cmd(args, out),
        "convert" => convert(args, out),
        "diff" => diff_runs(args, out),
        "compress" => compress(args, out),
        "query" => query(args, out),
        "serve-demo" => serve_demo(args, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// Usage text.
pub const USAGE: &str = "\
pmkm — partial/merge k-means over data streams (ICDE 2004 reproduction)

USAGE: pmkm <command> [options] [paths…]

COMMANDS
  generate  --out=DIR [--orbits=4] [--dim=6] [--seed=0] [--lat=20]
            [--step=0.05] [--samples=16]
            Simulate a satellite swath; writes stripe files into DIR.
  bin       --out=DIR <stripe files…>
            Sort stripe observations into per-cell grid-bucket files.
  inspect   [--timeline=TRACE.json] <bucket files… | ledger.jsonl… | report.json…>
            Print each bucket's header and per-dimension statistics. Given
            a run ledger (JSONL, from cluster --ledger) instead, print its
            rollup: per-phase table, per-cell mass audit, the slowest
            chunks, kernel dispatches, the fault timeline, and an ASCII
            Gantt of per-worker states when the run journaled a timeline.
            Given a RunReport JSON (from --metrics-out), print its headline
            numbers and per-worker utilization. --timeline exports the run
            as a Chrome trace-event JSON (chrome://tracing, Perfetto).
  cluster   [--k=40] [--restarts=10] [--seed=0] [--splits=P | --memory=BYTES]
            [--workers=N] [--kernel=auto] [--backend=local-file]
            [--incremental]
            [--coreset=SIZE] [--coreset-window=CHUNKS] [--coreset-decay=L]
            [--tolerant] [--chaos=LEVEL:SEED]
            [--metrics-out=REPORT.json] [--trace=TRACE.jsonl]
            [--ledger=LEDGER.jsonl] [--serve=ADDR] [--folded=STACKS.txt]
            <bucket files…>
            Cluster each bucket with partial/merge k-means on the stream
            engine; prints centroids summary and operator telemetry.
            --kernel picks the assignment strategy (auto, scalar,
            fused); --backend picks the storage backend for GB02 block
            containers (local-file, mmap, sim-object-store) — GB01
            buckets always use the legacy buffered reader, and
            sim-object-store adds per-GET latency (plus seeded
            flakiness under --chaos); --tolerant enables the
            fault-tolerant policy (scan retries, poison quarantine,
            degraded merge with lost-mass accounting) instead of the
            strict fail-fast default; --chaos injects a seeded fault
            schedule (light:SEED or heavy:SEED) for chaos drills —
            combine with --tolerant to watch the engine degrade instead
            of erroring; --metrics-out writes a structured RunReport
            (JSON); --trace streams structured events as JSON lines;
            --ledger journals the run as an append-only JSONL event
            ledger (inspect or diff it afterwards); --serve exposes
            /metrics, /report.json, /healthz — plus /events and
            /ledger.jsonl when a ledger is active — over HTTP for the
            duration of the run; --folded writes the span profiler's
            folded stacks (pipe into inferno-flamegraph for an SVG
            flamegraph). --coreset=SIZE replaces the buffer-everything
            merge with a merge-reduce coreset tree: each chunk becomes a
            SIZE-point weighted coreset and live memory stays bounded by
            levels x SIZE regardless of stream length;
            --coreset-window=CHUNKS keeps only the last CHUNKS chunks
            (bucket-granularity eviction) and --coreset-decay=L scales
            live weights by L in (0,1] per chunk for recency-weighted
            clustering.
  orchestrate [--jobs=4] [--cells=N] [--k=40] [--restarts=10] [--seed=0]
            [--splits=P | --memory=BYTES] [--workers=1] [--budget=BYTES]
            [--backend=local-file]
            [--checkpoint-dir=DIR] [--resume] [--kill-after=K]
            [--coreset=SIZE] [--coreset-window=CHUNKS] [--coreset-decay=L]
            [--tolerant] [--chaos=LEVEL:SEED]
            [--metrics-out=REPORT.json] [--ledger=LEDGER.jsonl]
            [--serve=ADDR] [--watchdog=SECS]
            <bucket files…>
            Run many cells through the pipeline concurrently on --jobs
            work-stealing workers, each cell an independent pipeline
            (--workers partial clones inside it). --cells caps how many
            of the given buckets run; --budget bounds the total in-flight
            chunk memory across cells (workers block when exhausted);
            --checkpoint-dir appends each cell's merged result as a
            versioned, checksummed record to the directory's one
            checkpoint journal (checkpoints.journal) as it completes, and
            --resume loads the newest valid record of each cell instead
            of re-scanning — a resumed run is bit-identical to an
            uninterrupted one; corrupt, torn or stale records count as
            invalid and their cells re-run. --kill-after=K is the chaos
            drill: simulate the process dying right after the K-th
            checkpoint write (pair with a later --resume to exercise
            recovery end-to-end). After a clean run, the journal is
            compacted to one current record per cell (stale, superseded
            and corrupt records dropped) and legacy per-cell *.ckpt and
            *.ckpt.tmp files are removed. --serve exposes the
            live dashboard for the duration of the run: /status (planet
            progress, per-worker state and utilization, ETA) plus
            /metrics, /report.json, /healthz, /events, /ledger.jsonl.
            --watchdog=SECS starts a stall watchdog: no progress for SECS
            emits watchdog.stall to the ledger, a cell open longer than
            SECS and 4x the median cell time emits watchdog.straggler,
            and a worker parked on the memory budget past the deadline
            is flagged. --coreset=SIZE runs every cell on the bounded-
            memory merge-reduce coreset tree (see cluster); with --serve
            the anytime query — the mid-stream clustering over the live
            buckets — is published into /status as the `coreset` block
            on every tree level-up and at completion. --backend picks
            the GB02 storage backend (see cluster); the backend is part
            of the checkpoint plan fingerprint, so --resume only
            accepts checkpoints written under the same backend.
  convert   [--codec=shuffle-rle] [--block-points=4096] [--out=DIR]
            <bucket files…>
            Re-encode buckets as PMKMGB02 block containers: the payload
            is split into fixed-point-count blocks, each independently
            compressed and covered by an FNV-1a entry in a trailing
            index that enables ranged reads. Reads either format (GB01
            blobs or existing GB02 files, e.g. to recompress); writes
            NAME.gb2 next to each input, or into --out=DIR. --codec
            picks the block codec (raw, shuffle-rle); --block-points
            sets the points per block. Prints the block count and the
            payload compression ratio per file.
  diff      [--threshold=0.10] <A> <B>
            Compare two runs (each a run ledger or a RunReport JSON, mixed
            freely): prints the elapsed ratio, per-phase attribution of
            the delta with a confidence score, kernel dispatch changes,
            fault-counter deltas, and mass-conservation drift. Exits 3
            when B is more than --threshold slower than A, so CI gates
            can tell a regression (3) from a plain failure (1).
  serve-demo [--addr=127.0.0.1:0] [--iters=3] [--n=2000] [--k=8]
            [--splits=4] [--restarts=2] [--seed=0]
            Run a synthetic partial/merge workload while serving live
            telemetry over HTTP; self-probes /healthz and /metrics and
            prints the results. Useful for demos and smoke tests.
  compress  [--k=40] [--restarts=10] [--splits=5] [--seed=0] [--out=DIR]
            <bucket files…>
            Compress each bucket into a multivariate histogram (JSON).
  query     --range=DIM:LO:HI [--range=…] [--exact=BUCKET.gb] <histogram.json>
            Estimate range count/mean from a compressed histogram;
            --exact compares against the original bucket file.
";

fn generate<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["out", "orbits", "dim", "seed", "lat", "step", "samples"])?;
    let dir: PathBuf = PathBuf::from(args.get_str("out", "stripes"));
    let lat: f64 = args.get("lat", 20.0)?;
    let cfg = SwathConfig {
        orbits: args.get("orbits", 4usize)?,
        attrs_dim: args.get("dim", 6usize)?,
        seed: args.get("seed", 0u64)?,
        lat_range: (-lat.abs(), lat.abs()),
        along_track_step_deg: args.get("step", 0.05f64)?,
        cross_track_samples: args.get("samples", 16usize)?,
        ..SwathConfig::default()
    };
    let mut sim = SwathSimulator::new(cfg).map_err(run_err)?;
    let stripes = sim.write_stripes(&dir).map_err(run_err)?;
    writeln!(out, "wrote {} stripe files to {}", stripes.len(), dir.display()).map_err(run_err)?;
    Ok(())
}

fn bin<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["out"])?;
    let dir = PathBuf::from(args.get_str("out", "buckets"));
    let stripes: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    if stripes.is_empty() {
        return Err(CliError::Run("bin: no stripe files given".into()));
    }
    let summary = bin_stripes(&stripes, &dir).map_err(run_err)?;
    writeln!(
        out,
        "binned {} observations into {} buckets under {}",
        summary.observations,
        summary.buckets.len(),
        dir.display()
    )
    .map_err(run_err)?;
    Ok(())
}

/// True when the file's first byte is `{` — a JSONL run ledger rather than
/// a binary grid bucket (whose magic never starts with `{`).
fn looks_like_ledger(path: &str) -> bool {
    std::fs::read(path)
        .is_ok_and(|bytes| bytes.iter().find(|b| !b.is_ascii_whitespace()).copied() == Some(b'{'))
}

/// Prints the per-cell / per-phase rollup of one run ledger.
fn inspect_ledger<W: Write>(
    path: &str,
    records: &[pmkm_obs::LedgerRecord],
    out: &mut W,
) -> Result<(), CliError> {
    let roll = pmkm_obs::rollup(records);
    writeln!(
        out,
        "{path}: ledger v{}, {} events, elapsed {} µs, mass ratio {:.6}",
        roll.version,
        roll.events,
        roll.elapsed_us,
        roll.mass_ratio()
    )
    .map_err(run_err)?;
    if !roll.phases.is_empty() {
        writeln!(out, "  [phases] path, calls, total µs, self µs, wall µs").map_err(run_err)?;
        for p in &roll.phases {
            writeln!(
                out,
                "    {:<24} {:>6} {:>10} {:>10} {:>10}",
                p.path, p.calls, p.total_us, p.self_us, p.wall_us
            )
            .map_err(run_err)?;
        }
    }
    for c in &roll.cells {
        let flag = if c.degraded { " DEGRADED" } else { "" };
        writeln!(
            out,
            "  [cell {}] {} chunks, expected {:.0}, lost {:.0} in {} chunk(s), \
             mse {:.3}, E_pm {:.1}{flag}",
            c.cell, c.chunks, c.expected_points, c.lost_points, c.lost_chunks, c.mse, c.epm
        )
        .map_err(run_err)?;
    }
    for ch in roll.slowest_chunks(5) {
        writeln!(
            out,
            "  [slow chunk] cell {} chunk {}: {} points in {} µs ({} attempt(s))",
            ch.cell, ch.chunk, ch.points, ch.duration_us, ch.attempts
        )
        .map_err(run_err)?;
    }
    for k in &roll.kernels {
        writeln!(
            out,
            "  [kernel] {}: {} dispatches, {} points, {:.1}% screens skipped by bounds",
            k.kind,
            k.runs,
            k.points,
            100.0 * k.skip_rate()
        )
        .map_err(run_err)?;
    }
    for f in &roll.fault_timeline {
        writeln!(out, "  [fault +{} µs] {} {}", f.ts_us, f.kind, f.detail).map_err(run_err)?;
    }
    if roll.resumed_cells > 0 || roll.invalid_checkpoints > 0 {
        writeln!(
            out,
            "  [resume] {} cell(s) restored from checkpoint, {} invalid checkpoint(s) re-scanned",
            roll.resumed_cells, roll.invalid_checkpoints
        )
        .map_err(run_err)?;
    }
    for ck in &roll.checkpoints {
        writeln!(
            out,
            "  [checkpoint +{} µs] cell {} seq {} ({} bytes)",
            ck.ts_us, ck.cell, ck.seq, ck.bytes
        )
        .map_err(run_err)?;
    }
    if roll.worker_transitions > 0 {
        writeln!(
            out,
            "  [workers] {} state transition(s) journaled (--timeline exports a Chrome trace)",
            roll.worker_transitions
        )
        .map_err(run_err)?;
    }
    if roll.watchdog_stalls > 0 || roll.watchdog_stragglers > 0 {
        writeln!(
            out,
            "  [watchdog] {} stall(s), {} straggler(s)",
            roll.watchdog_stalls, roll.watchdog_stragglers
        )
        .map_err(run_err)?;
    }
    if !roll.scan.is_empty() {
        writeln!(
            out,
            "  [scan] {} block(s), {} stored / {} payload bytes ({:.2}x), \
             {} zero-copy, prefetch hit rate {:.0}%",
            roll.scan.blocks,
            roll.scan.stored_bytes,
            roll.scan.payload_bytes,
            roll.scan.compression_ratio(),
            roll.scan.zero_copy_blocks,
            roll.scan.prefetch_hit_rate() * 100.0
        )
        .map_err(run_err)?;
    }
    if !roll.coreset.is_empty() {
        writeln!(
            out,
            "  [coreset] {} build(s), {} compaction(s), {} eviction(s), {} query(s); \
             net live {} bucket(s) / {:.0} point(s) across {} level(s), expired {:.0}",
            roll.coreset.builds,
            roll.coreset.compactions,
            roll.coreset.evictions,
            roll.coreset.queries,
            roll.coreset.live_buckets(),
            roll.coreset.live_weight(),
            roll.coreset.levels.len(),
            roll.coreset.expired_points
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Prints the headline numbers of a structured `RunReport` JSON, including
/// the v6 per-worker timeline rollup when present.
fn inspect_report<W: Write>(
    path: &str,
    report: &pmkm_obs::RunReport,
    out: &mut W,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{path}: run report v{}, {} cells, elapsed {:.0} ms",
        report.schema_version,
        report.cells.len(),
        report.elapsed.as_secs_f64() * 1e3
    )
    .map_err(run_err)?;
    if let Some(tl) = &report.timeline {
        writeln!(
            out,
            "  [timeline] {} worker(s), busy wall {} µs (per-thread max), span {} µs",
            tl.workers.len(),
            tl.wall_us,
            tl.span_us
        )
        .map_err(run_err)?;
        for w in &tl.workers {
            writeln!(
                out,
                "    {:<4} {:>3.0}% busy ({} transitions; scan {} µs, partial {} µs, \
                 merge {} µs, checkpoint {} µs, budget-wait {} µs)",
                w.worker,
                w.utilization * 100.0,
                w.transitions,
                w.scan_us,
                w.partial_us,
                w.merge_us,
                w.checkpoint_us,
                w.budget_wait_us
            )
            .map_err(run_err)?;
        }
    }
    Ok(())
}

fn inspect<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["timeline"])?;
    let timeline_out = args.get_str("timeline", "");
    if args.positionals().is_empty() {
        return Err(CliError::Run("inspect: no bucket or ledger files given".into()));
    }
    let mut trace_json: Option<String> = None;
    for path in args.positionals() {
        if looks_like_ledger(path) {
            let text = std::fs::read_to_string(path).map_err(run_err)?;
            // A RunReport is one JSON document; a ledger is JSON lines.
            // Try the report first — a ledger always fails that parse.
            if let Ok(report) = serde_json::from_str::<pmkm_obs::RunReport>(&text) {
                inspect_report(path, &report, out)?;
                trace_json = Some(pmkm_obs::chrome_trace_from_report(&report));
            } else {
                let records = pmkm_obs::parse_ledger(&text).map_err(run_err)?;
                inspect_ledger(path, &records, out)?;
                if let Some(gantt) = pmkm_obs::ascii_gantt(&records, 72) {
                    for line in gantt.lines() {
                        writeln!(out, "  {line}").map_err(run_err)?;
                    }
                }
                trace_json = Some(pmkm_obs::chrome_trace(&records));
            }
            continue;
        }
        let p = PathBuf::from(path);
        let info = pmkm_data::probe(&p).map_err(run_err)?;
        let bucket = match info.format {
            pmkm_data::BucketFormat::Gb01 => GridBucket::read_from(&p).map_err(run_err)?,
            pmkm_data::BucketFormat::Gb02 => {
                let reader =
                    pmkm_data::Gb02Reader::open_path(&p, pmkm_data::BackendKind::LocalFile)
                        .map_err(run_err)?;
                writeln!(
                    out,
                    "{path}: gb02 container, {} block(s) of ≤{} points, codec {}",
                    reader.n_blocks(),
                    reader.block_points,
                    reader.default_codec
                )
                .map_err(run_err)?;
                reader.read_all().map_err(run_err)?
            }
        };
        let (lat, lon) = bucket.cell.center();
        writeln!(
            out,
            "{path}: cell {} (center {lat:.1}°, {lon:.1}°), {} points × {} dims [{}]",
            bucket.cell.index(),
            bucket.points.len(),
            bucket.points.dim(),
            info.format.label()
        )
        .map_err(run_err)?;
        if let Some(stats) = pmkm_data::stats::summarize(&bucket.points) {
            for (d, s) in stats.iter().enumerate() {
                writeln!(
                    out,
                    "  dim {d}: mean {:.2}, sd {:.2}, range [{:.2}, {:.2}]",
                    s.mean,
                    s.variance.sqrt(),
                    s.min,
                    s.max
                )
                .map_err(run_err)?;
            }
        }
    }
    if !timeline_out.is_empty() {
        let json = trace_json.ok_or_else(|| {
            CliError::Run(
                "inspect: --timeline needs a run ledger or RunReport JSON among the inputs".into(),
            )
        })?;
        std::fs::write(&timeline_out, json).map_err(run_err)?;
        writeln!(
            out,
            "wrote Chrome trace to {timeline_out} (open in chrome://tracing or ui.perfetto.dev)"
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Loads one side of a `pmkm diff` as a comparable [`pmkm_obs::RunProfile`].
///
/// Accepts either a structured `RunReport` JSON (from `--metrics-out`) or a
/// JSONL run ledger (from `--ledger`); the two sides of a diff may mix the
/// formats freely. A whole-file `RunReport` parse is tried first — a JSONL
/// ledger always fails it (trailing lines) and falls through to the ledger
/// parser.
fn load_profile(path: &str) -> Result<pmkm_obs::RunProfile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Run(format!("diff: cannot read {path}: {e}")))?;
    if let Ok(report) = serde_json::from_str::<pmkm_obs::RunReport>(&text) {
        return Ok(pmkm_obs::RunProfile::from_run_report(path, &report));
    }
    let records = pmkm_obs::parse_ledger(&text).map_err(|e| {
        CliError::Run(format!("diff: {path} is neither a RunReport nor a ledger: {e}"))
    })?;
    Ok(pmkm_obs::RunProfile::from_rollup(path, &pmkm_obs::rollup(&records)))
}

fn diff_runs<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["threshold"])?;
    let threshold: f64 = args.get("threshold", 0.10)?;
    let paths = args.positionals();
    if paths.len() != 2 {
        return Err(CliError::Run(
            "diff: give exactly two runs to compare (each a ledger or a RunReport JSON)".into(),
        ));
    }
    let a = load_profile(&paths[0])?;
    let b = load_profile(&paths[1])?;
    let diff = pmkm_obs::diff_profiles(&a, &b, threshold);
    write!(out, "{}", diff.render()).map_err(run_err)?;
    if diff.regression {
        let culprit = diff
            .attributed_phase()
            .map(|p| format!(" (attributed to phase '{}')", p.path))
            .unwrap_or_default();
        return Err(CliError::Regression(format!(
            "regression: {} is {:.2}x slower than {}{culprit}",
            diff.label_b, diff.slowdown, diff.label_a
        )));
    }
    Ok(())
}

fn cluster<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "k",
        "restarts",
        "seed",
        "splits",
        "memory",
        "workers",
        "kernel",
        "backend",
        "incremental",
        "metrics-out",
        "trace",
        "ledger",
        "serve",
        "folded",
        "tolerant",
        "chaos",
        "coreset",
        "coreset-window",
        "coreset-decay",
    ])?;
    let paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(CliError::Run("cluster: no bucket files given".into()));
    }
    let kernel_name = args.get_str("kernel", "auto");
    let kernel = pmkm_core::KernelKind::parse(&kernel_name).ok_or_else(|| {
        CliError::Run(format!("cluster: unknown kernel '{kernel_name}' (auto, scalar, fused)"))
    })?;
    let mut kcfg = KMeansConfig {
        restarts: args.get("restarts", 10usize)?,
        ..KMeansConfig::paper(args.get("k", 40usize)?, args.get("seed", 0u64)?)
    };
    kcfg.lloyd.kernel = kernel;
    let mut logical = LogicalPlan::new(paths, kcfg);
    if args.flag("incremental") {
        logical.merge_mode = MergeMode::Incremental;
    }
    let workers = args.get("workers", 0usize)?;
    let resources = if workers > 0 {
        Resources { workers, ..Resources::detect() }
    } else {
        Resources::detect()
    };
    let fault_plan = parse_chaos("cluster", &args.get_str("chaos", ""))?;
    let mut plan = match args.get::<usize>("splits", 0)? {
        0 => {
            let memory = args.get("memory", resources.chunk_memory_bytes)?;
            optimize(logical, &Resources { chunk_memory_bytes: memory, ..resources })
        }
        splits => {
            // Resolve splits per the largest bucket so every bucket gets at
            // most `splits` chunks. probe() reads only the header, and
            // understands both bucket formats.
            let max_points = logical
                .inputs
                .iter()
                .map(|p| pmkm_data::probe(p).map(|info| info.count))
                .collect::<Result<Vec<_>, _>>()
                .map_err(run_err)?
                .into_iter()
                .max()
                .unwrap_or(1);
            optimize_fixed_split(logical, &resources, max_points.div_ceil(splits).max(1))
        }
    };
    plan.scan_backend = parse_backend("cluster", args)?;
    if args.flag("tolerant") {
        plan.fault_policy = pmkm_stream::FaultPolicy::tolerant();
    }
    plan.coreset = parse_coreset("cluster", args)?;
    let metrics_out = args.get_str("metrics-out", "");
    let trace_out = args.get_str("trace", "");
    let ledger_out = args.get_str("ledger", "");
    let serve_addr = args.get_str("serve", "");
    let folded_out = args.get_str("folded", "");
    // A ledger backs the /events long-poll, so --serve without --ledger
    // still gets an in-memory journal; a bare run gets none at all.
    let ledger = if !ledger_out.is_empty() {
        Some(std::sync::Arc::new(pmkm_obs::LedgerSink::create(&ledger_out).map_err(run_err)?))
    } else if !serve_addr.is_empty() {
        Some(std::sync::Arc::new(pmkm_obs::LedgerSink::in_memory()))
    } else {
        None
    };
    let recorder = if metrics_out.is_empty()
        && trace_out.is_empty()
        && serve_addr.is_empty()
        && folded_out.is_empty()
        && ledger.is_none()
    {
        None
    } else {
        let mut rec =
            pmkm_obs::Recorder::new().with_profiler(std::sync::Arc::new(pmkm_obs::Profiler::new()));
        if !trace_out.is_empty() {
            let sink = pmkm_obs::JsonlSink::create(&trace_out).map_err(run_err)?;
            rec = rec.with_sink(std::sync::Arc::new(sink));
        }
        if let Some(ledger) = &ledger {
            rec = rec.with_sink(ledger.clone());
        }
        Some(std::sync::Arc::new(rec))
    };
    let server = if serve_addr.is_empty() {
        None
    } else {
        let rec = recorder.clone().expect("recorder is built whenever --serve is given");
        let ledger = ledger.clone().expect("ledger is built whenever --serve is given");
        let server = pmkm_obs::MetricsServer::serve_with_ledger(serve_addr.as_str(), rec, ledger)
            .map_err(run_err)?;
        writeln!(
            out,
            "serving telemetry at http://{} (/metrics, /report.json, /healthz, /events, \
             /ledger.jsonl)",
            server.local_addr()
        )
        .map_err(run_err)?;
        Some(server)
    };
    let report = pmkm_stream::execute(&plan, recorder.clone(), fault_plan).map_err(run_err)?;
    writeln!(
        out,
        "clustered {} cells in {:.0} ms",
        report.cells.len(),
        report.elapsed.as_secs_f64() * 1e3
    )
    .map_err(run_err)?;
    for cell in &report.cells {
        let weight: f64 = cell.output.cluster_weights.iter().sum();
        let degraded = if cell.degraded {
            format!(
                " [degraded: lost {} points in {} chunk(s)]",
                cell.lost_points, cell.lost_chunks
            )
        } else {
            String::new()
        };
        let tree = coreset_tag(cell.coreset.as_ref());
        writeln!(
            out,
            "  cell {}: {} chunks, {} centroids, E_pm {:.1}, {} points{tree}{degraded}",
            cell.cell.index(),
            cell.chunks.len(),
            cell.output.centroids.k(),
            cell.output.epm,
            weight as u64
        )
        .map_err(run_err)?;
    }
    if report.faults.any() {
        let f = &report.faults;
        writeln!(
            out,
            "  [faults] scan retries {}, scan failures {}, poisoned {}, quarantined {}, \
             worker panics {}, chunk retries {}, stalls {}, degraded cells {}",
            f.scan_retries,
            f.scan_failures,
            f.chunks_poisoned,
            f.chunks_quarantined,
            f.worker_panics,
            f.chunk_retries,
            f.queue_stalls,
            f.cells_degraded
        )
        .map_err(run_err)?;
    }
    for op in &report.op_stats {
        writeln!(
            out,
            "  [op] {} #{}: busy {:.1} ms, blocked {:.1} ms, util {:.0}%, {} in / {} out",
            op.name,
            op.clone_id,
            op.busy.as_secs_f64() * 1e3,
            op.blocked.as_secs_f64() * 1e3,
            op.utilization() * 100.0,
            op.items_in,
            op.items_out
        )
        .map_err(run_err)?;
    }
    if let Some(rec) = &recorder {
        rec.flush();
    }
    if !metrics_out.is_empty() {
        let run_report = report.run_report(recorder.as_deref());
        let json = serde_json::to_string_pretty(&run_report).map_err(run_err)?;
        std::fs::write(&metrics_out, json).map_err(run_err)?;
        writeln!(out, "wrote run report to {metrics_out}").map_err(run_err)?;
    }
    if !trace_out.is_empty() {
        writeln!(out, "wrote trace to {trace_out}").map_err(run_err)?;
    }
    if !ledger_out.is_empty() {
        writeln!(out, "wrote ledger to {ledger_out}").map_err(run_err)?;
    }
    if !folded_out.is_empty() {
        let folded =
            recorder.as_ref().and_then(|r| r.profiler()).map(|p| p.folded()).unwrap_or_default();
        std::fs::write(&folded_out, folded).map_err(run_err)?;
        writeln!(out, "wrote folded stacks to {folded_out}").map_err(run_err)?;
    }
    if let Some(server) = server {
        // Publish the final report so a last scrape sees the complete run,
        // then release the socket.
        server.set_report(report.run_report(recorder.as_deref()));
        server.shutdown();
    }
    Ok(())
}

/// Parses the coreset-engine knobs: `--coreset=SIZE` switches the plan's
/// tail from the buffer-everything merge to the bounded-memory
/// merge-reduce tree; `--coreset-window=CHUNKS` adds a sliding window and
/// `--coreset-decay=LAMBDA` an exponential weight decay. Returns `None`
/// when `--coreset` is absent (the classic merge path).
fn parse_coreset(cmd: &str, args: &Args) -> Result<Option<pmkm_stream::CoresetSpec>, CliError> {
    let size = args.get("coreset", 0usize)?;
    let window = args.get("coreset-window", 0usize)?;
    let decay = args.get("coreset-decay", 0.0f64)?;
    if size == 0 {
        if window > 0 || decay != 0.0 {
            return Err(CliError::Run(format!(
                "{cmd}: --coreset-window/--coreset-decay need --coreset=SIZE"
            )));
        }
        return Ok(None);
    }
    let mut spec = pmkm_stream::CoresetSpec::new(size);
    if window > 0 {
        spec.window = Some(window);
    }
    if decay != 0.0 {
        spec.decay = Some(decay);
    }
    Ok(Some(spec))
}

/// One-line tree summary for the per-cell rows of `cluster`/`orchestrate`.
fn coreset_tag(stats: Option<&pmkm_core::CoresetStats>) -> String {
    match stats {
        Some(s) => format!(
            " [coreset: {} bucket(s), {} level(s), {} compaction(s)]",
            s.live_buckets, s.levels, s.compactions
        ),
        None => String::new(),
    }
}

/// Parses `--backend=KIND` into the plan's scan-backend knob.
fn parse_backend(cmd: &str, args: &Args) -> Result<pmkm_data::BackendKind, CliError> {
    let name = args.get_str("backend", "local-file");
    pmkm_data::BackendKind::parse(&name).ok_or_else(|| {
        CliError::Run(format!(
            "{cmd}: unknown backend '{name}' (local-file, mmap, sim-object-store)"
        ))
    })
}

/// Reads either bucket format fully into memory: a GB01 blob via the
/// legacy reader, a GB02 block container via the local-file backend.
fn read_bucket_any(path: &std::path::Path) -> Result<GridBucket, CliError> {
    match pmkm_data::probe(path).map_err(run_err)?.format {
        pmkm_data::BucketFormat::Gb01 => GridBucket::read_from(path).map_err(run_err),
        pmkm_data::BucketFormat::Gb02 => {
            pmkm_data::Gb02Reader::open_path(path, pmkm_data::BackendKind::LocalFile)
                .and_then(|r| r.read_all())
                .map_err(run_err)
        }
    }
}

fn convert<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["out", "codec", "block-points"])?;
    let paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(CliError::Run("convert: no bucket files given".into()));
    }
    let codec_name = args.get_str("codec", "shuffle-rle");
    let codec = pmkm_data::Codec::parse(&codec_name).ok_or_else(|| {
        CliError::Run(format!("convert: unknown codec '{codec_name}' (raw, shuffle-rle)"))
    })?;
    let block_points = args.get("block-points", pmkm_data::DEFAULT_BLOCK_POINTS)?;
    let out_dir = args.get_str("out", "");
    if !out_dir.is_empty() {
        std::fs::create_dir_all(&out_dir).map_err(run_err)?;
    }
    for path in &paths {
        let bucket = read_bucket_any(path)?;
        let dst = if out_dir.is_empty() {
            path.with_extension("gb2")
        } else {
            let name = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
            PathBuf::from(&out_dir).join(format!("{name}.gb2"))
        };
        let stats = pmkm_data::write_gb02(&bucket, &dst, codec, block_points).map_err(run_err)?;
        writeln!(
            out,
            "{}: {} points -> {} ({} block(s), {codec}, {:.2}x payload ratio, {} bytes)",
            path.display(),
            bucket.points.len(),
            dst.display(),
            stats.blocks,
            stats.ratio(),
            stats.file_bytes
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Parses `--chaos=LEVEL:SEED` into a fault plan (`""` → `None`).
fn parse_chaos(cmd: &str, chaos: &str) -> Result<Option<pmkm_stream::FaultPlan>, CliError> {
    if chaos.is_empty() {
        return Ok(None);
    }
    let (level, seed) = chaos.split_once(':').ok_or_else(|| {
        CliError::Run(format!("{cmd}: --chaos takes LEVEL:SEED (e.g. light:11), got '{chaos}'"))
    })?;
    let seed: u64 =
        seed.parse().map_err(|_| CliError::Run(format!("{cmd}: bad chaos seed '{seed}'")))?;
    Ok(Some(match level {
        "light" => pmkm_stream::FaultPlan::light(seed),
        "heavy" => pmkm_stream::FaultPlan::heavy(seed),
        other => {
            return Err(CliError::Run(format!(
                "{cmd}: unknown chaos level '{other}' (light, heavy)"
            )))
        }
    }))
}

fn orchestrate_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "jobs",
        "cells",
        "k",
        "restarts",
        "seed",
        "splits",
        "memory",
        "workers",
        "backend",
        "budget",
        "checkpoint-dir",
        "resume",
        "kill-after",
        "tolerant",
        "chaos",
        "metrics-out",
        "ledger",
        "serve",
        "watchdog",
        "coreset",
        "coreset-window",
        "coreset-decay",
    ])?;
    let mut paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(CliError::Run("orchestrate: no bucket files given".into()));
    }
    let cells_cap = args.get("cells", 0usize)?;
    if cells_cap > 0 {
        paths.truncate(cells_cap);
    }
    let kcfg = KMeansConfig {
        restarts: args.get("restarts", 10usize)?,
        ..KMeansConfig::paper(args.get("k", 40usize)?, args.get("seed", 0u64)?)
    };
    let logical = LogicalPlan::new(paths, kcfg);
    // Inside each cell the pipeline stays narrow by default — the
    // orchestrator's cross-cell workers are the parallelism axis.
    let workers = args.get("workers", 1usize)?.max(1);
    let resources = Resources { workers, ..Resources::detect() };
    let mut plan = match args.get::<usize>("splits", 0)? {
        0 => {
            let memory = args.get("memory", resources.chunk_memory_bytes)?;
            optimize(logical, &Resources { chunk_memory_bytes: memory, ..resources })
        }
        splits => {
            let max_points = logical
                .inputs
                .iter()
                .map(|p| pmkm_data::probe(p).map(|info| info.count))
                .collect::<Result<Vec<_>, _>>()
                .map_err(run_err)?
                .into_iter()
                .max()
                .unwrap_or(1);
            optimize_fixed_split(logical, &resources, max_points.div_ceil(splits).max(1))
        }
    };
    plan.scan_backend = parse_backend("orchestrate", args)?;
    if args.flag("tolerant") {
        plan.fault_policy = pmkm_stream::FaultPolicy::tolerant();
    }
    plan.coreset = parse_coreset("orchestrate", args)?;
    let fault_plan = parse_chaos("orchestrate", &args.get_str("chaos", ""))?;

    let mut opts = pmkm_stream::OrchestratorOptions::new(args.get("jobs", 4usize)?);
    let budget = args.get("budget", 0usize)?;
    if budget > 0 {
        opts = opts.with_budget(budget);
    }
    let ckpt_dir = args.get_str("checkpoint-dir", "");
    if !ckpt_dir.is_empty() {
        opts = opts.with_checkpoints(&ckpt_dir);
    }
    if args.flag("resume") {
        if ckpt_dir.is_empty() {
            return Err(CliError::Run("orchestrate: --resume needs --checkpoint-dir".into()));
        }
        opts = opts.resuming();
    }
    let kill_after = args.get("kill-after", 0usize)?;
    if kill_after > 0 {
        if ckpt_dir.is_empty() {
            return Err(CliError::Run("orchestrate: --kill-after needs --checkpoint-dir".into()));
        }
        opts = opts.kill_after(kill_after);
    }

    let metrics_out = args.get_str("metrics-out", "");
    let ledger_out = args.get_str("ledger", "");
    let serve_addr = args.get_str("serve", "");
    let watchdog_secs = args.get("watchdog", 0u64)?;
    // A ledger backs the /events long-poll, so --serve without --ledger
    // still gets an in-memory journal; a bare run gets none at all.
    let ledger = if !ledger_out.is_empty() {
        Some(std::sync::Arc::new(pmkm_obs::LedgerSink::create(&ledger_out).map_err(run_err)?))
    } else if !serve_addr.is_empty() {
        Some(std::sync::Arc::new(pmkm_obs::LedgerSink::in_memory()))
    } else {
        None
    };
    let watchdog_sink =
        (watchdog_secs > 0).then(|| std::sync::Arc::new(pmkm_stream::WatchdogSink::new()));
    let status = (!serve_addr.is_empty()).then(|| std::sync::Arc::new(pmkm_obs::StatusCell::new()));
    if let Some(status) = &status {
        opts = opts.with_status(status.clone());
    }
    let recorder = if metrics_out.is_empty() && ledger.is_none() && watchdog_sink.is_none() {
        None
    } else {
        // Any observed run gets a worker timeline: it feeds the /status
        // worker rows, the report's v6 rollup and the Chrome-trace export,
        // and costs nothing when nobody reads it.
        let mut rec = pmkm_obs::Recorder::new()
            .with_profiler(std::sync::Arc::new(pmkm_obs::Profiler::new()))
            .with_timeline(std::sync::Arc::new(pmkm_obs::Timeline::new()));
        if let Some(ledger) = &ledger {
            rec = rec.with_sink(ledger.clone());
        }
        if let Some(sink) = &watchdog_sink {
            rec = rec.with_sink(sink.clone());
        }
        Some(std::sync::Arc::new(rec))
    };
    let server = if serve_addr.is_empty() {
        None
    } else {
        let rec = recorder.clone().expect("recorder is built whenever --serve is given");
        let server = pmkm_obs::MetricsServer::serve_full(
            serve_addr.as_str(),
            rec,
            4,
            ledger.clone(),
            status.clone(),
        )
        .map_err(run_err)?;
        writeln!(
            out,
            "serving telemetry at http://{} (/metrics, /report.json, /healthz, /status, \
             /events, /ledger.jsonl)",
            server.local_addr()
        )
        .map_err(run_err)?;
        Some(server)
    };
    let watchdog = watchdog_sink.as_ref().map(|sink| {
        pmkm_stream::Watchdog::start(
            recorder.clone().expect("recorder is built whenever --watchdog is given"),
            sink.clone(),
            pmkm_stream::WatchdogConfig::after(std::time::Duration::from_secs(watchdog_secs)),
        )
    });

    let planet =
        pmkm_stream::orchestrate(&plan, &opts, recorder.clone(), fault_plan).map_err(run_err)?;
    if let Some(watchdog) = watchdog {
        watchdog.stop();
    }
    let interrupted = if planet.interrupted { " INTERRUPTED" } else { "" };
    writeln!(
        out,
        "orchestrated {} cells on {} workers in {:.0} ms ({} resumed, {} executed, \
         {} checkpoint(s) written, {} invalid, {} steal(s)){interrupted}",
        planet.cells.len(),
        planet.jobs,
        planet.elapsed.as_secs_f64() * 1e3,
        planet.cells_resumed,
        planet.cells_executed,
        planet.checkpoints_written,
        planet.checkpoints_invalid,
        planet.steals
    )
    .map_err(run_err)?;
    if planet.budget_peak > 0 {
        writeln!(out, "  [budget] peak in-flight {} bytes", planet.budget_peak).map_err(run_err)?;
    }
    for o in &planet.cells {
        let tag = if o.resumed { " [resumed]" } else { "" };
        match &o.clustering {
            Some(c) => {
                let weight: f64 = c.output.cluster_weights.iter().sum();
                let degraded = if c.degraded {
                    format!(
                        " [degraded: lost {} points in {} chunk(s)]",
                        c.lost_points, c.lost_chunks
                    )
                } else {
                    String::new()
                };
                let tree = coreset_tag(c.coreset.as_ref());
                writeln!(
                    out,
                    "  cell {}: {} chunks, {} centroids, E_pm {:.1}, {} points{tree}{degraded}{tag}",
                    c.cell.index(),
                    c.chunks.len(),
                    c.output.centroids.k(),
                    c.output.epm,
                    weight as u64
                )
                .map_err(run_err)?;
            }
            None => {
                writeln!(out, "  cell #{}: no surviving chunks [degraded]{tag}", o.input)
                    .map_err(run_err)?;
            }
        }
    }
    if planet.faults.any() {
        let f = &planet.faults;
        writeln!(
            out,
            "  [faults] scan retries {}, scan failures {}, poisoned {}, quarantined {}, \
             worker panics {}, chunk retries {}, stalls {}, degraded cells {}",
            f.scan_retries,
            f.scan_failures,
            f.chunks_poisoned,
            f.chunks_quarantined,
            f.worker_panics,
            f.chunk_retries,
            f.queue_stalls,
            f.cells_degraded
        )
        .map_err(run_err)?;
    }
    if let Some(rec) = &recorder {
        rec.flush();
    }
    if let Some(ledger) = &ledger {
        let roll = pmkm_obs::rollup(&ledger.records_after(0));
        if roll.watchdog_stalls > 0 || roll.watchdog_stragglers > 0 {
            writeln!(
                out,
                "  [watchdog] {} stall(s), {} straggler(s) — see the ledger for details",
                roll.watchdog_stalls, roll.watchdog_stragglers
            )
            .map_err(run_err)?;
        }
    }
    if !metrics_out.is_empty() {
        let run_report = planet.run_report(recorder.as_deref());
        let json = serde_json::to_string_pretty(&run_report).map_err(run_err)?;
        std::fs::write(&metrics_out, json).map_err(run_err)?;
        writeln!(out, "wrote run report to {metrics_out}").map_err(run_err)?;
    }
    if !ledger_out.is_empty() {
        writeln!(out, "wrote ledger to {ledger_out}").map_err(run_err)?;
    }
    if let Some(server) = server {
        // Publish the final report so a last scrape sees the complete run,
        // then release the socket.
        server.set_report(planet.run_report(recorder.as_deref()));
        server.shutdown();
    }
    Ok(())
}

fn compress<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["k", "restarts", "splits", "seed", "out"])?;
    let paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(CliError::Run("compress: no bucket files given".into()));
    }
    let out_dir = PathBuf::from(args.get_str("out", "histograms"));
    std::fs::create_dir_all(&out_dir).map_err(run_err)?;
    let cfg = PartialMergeConfig {
        kmeans: KMeansConfig {
            restarts: args.get("restarts", 10usize)?,
            ..KMeansConfig::paper(args.get("k", 40usize)?, args.get("seed", 0u64)?)
        },
        partitions: PartitionSpec::Count(args.get("splits", 5usize)?),
        ..PartialMergeConfig::paper(40, 5, 0)
    };
    for path in &paths {
        let bucket = read_bucket_any(path)?;
        if bucket.points.is_empty() {
            writeln!(out, "{}: empty, skipped", path.display()).map_err(run_err)?;
            continue;
        }
        let mut cell_cfg = cfg;
        cell_cfg.kmeans.k = cfg.kmeans.k.min(bucket.points.len());
        let compressed = compress_cell(&bucket.points, &cell_cfg).map_err(run_err)?;
        let json_path = out_dir.join(format!("cell_{}.json", bucket.cell.index()));
        let json = serde_json::to_string_pretty(&compressed.histogram).map_err(run_err)?;
        std::fs::write(&json_path, json).map_err(run_err)?;
        writeln!(
            out,
            "{}: {} points -> {} buckets, ratio {:.1}x, rms {:.2} -> {}",
            path.display(),
            bucket.points.len(),
            compressed.histogram.k(),
            compressed.summary.ratio,
            compressed.summary.mse.sqrt(),
            json_path.display()
        )
        .map_err(run_err)?;
    }
    Ok(())
}

fn parse_ranges(args: &Args, dim: usize) -> Result<pmkm_compress::RangeQuery, CliError> {
    let mut q = pmkm_compress::RangeQuery::all(dim);
    for value in args.get_all("range") {
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() != 3 {
            return Err(CliError::Run(format!("--range={value}: expected DIM:LO:HI")));
        }
        let d: usize =
            parts[0].parse().map_err(|_| CliError::Run(format!("bad dim '{}'", parts[0])))?;
        let lo: f64 =
            parts[1].parse().map_err(|_| CliError::Run(format!("bad lo '{}'", parts[1])))?;
        let hi: f64 =
            parts[2].parse().map_err(|_| CliError::Run(format!("bad hi '{}'", parts[2])))?;
        if d >= dim {
            return Err(CliError::Run(format!("dim {d} out of range for {dim}-d histogram")));
        }
        q = q.with(d, lo, hi);
    }
    Ok(q)
}

fn query<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["range", "exact"])?;
    let paths = args.positionals();
    if paths.len() != 1 {
        return Err(CliError::Run("query: give exactly one histogram.json".into()));
    }
    let text = std::fs::read_to_string(&paths[0]).map_err(run_err)?;
    let hist: pmkm_compress::MultivariateHistogram =
        serde_json::from_str(&text).map_err(run_err)?;
    let q = parse_ranges(args, hist.dim)?;
    let est = pmkm_compress::estimate_count(&hist, &q).map_err(run_err)?;
    writeln!(
        out,
        "estimated count: {:.1} of {} ({:.2}% selectivity)",
        est.count,
        hist.total_count as u64,
        est.selectivity * 100.0
    )
    .map_err(run_err)?;
    if let Some(mean) = pmkm_compress::estimate_mean(&hist, &q).map_err(run_err)? {
        let pretty: Vec<String> = mean.iter().map(|m| format!("{m:.2}")).collect();
        writeln!(out, "estimated mean: [{}]", pretty.join(", ")).map_err(run_err)?;
    }
    let exact_path = args.get_str("exact", "");
    if !exact_path.is_empty() {
        let bucket = read_bucket_any(&PathBuf::from(&exact_path))?;
        let exact = pmkm_compress::exact_answer(&bucket.points, &q).map_err(run_err)?;
        writeln!(
            out,
            "exact count:     {} (estimate error {:.2}% of cell)",
            exact.count,
            (est.count - exact.count as f64).abs() / bucket.points.len().max(1) as f64 * 100.0
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Issues one `GET path` against the exporter and returns the status line.
fn probe(addr: &std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: pmkm\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response.lines().next().unwrap_or_default().to_string())
}

fn serve_demo<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["addr", "iters", "n", "k", "splits", "restarts", "seed"])?;
    let addr = args.get_str("addr", "127.0.0.1:0");
    let iters = args.get("iters", 3usize)?;
    let n = args.get("n", 2_000usize)?;
    let k = args.get("k", 8usize)?;
    let splits = args.get("splits", 4usize)?;
    let restarts = args.get("restarts", 2usize)?;
    let seed = args.get("seed", 0u64)?;

    let rec = std::sync::Arc::new(
        pmkm_obs::Recorder::new().with_profiler(std::sync::Arc::new(pmkm_obs::Profiler::new())),
    );
    let server = pmkm_obs::MetricsServer::serve(addr.as_str(), rec.clone()).map_err(run_err)?;
    let local = server.local_addr();
    writeln!(out, "serving telemetry at http://{local} (/metrics, /report.json, /healthz)")
        .map_err(run_err)?;

    let points =
        pmkm_data::generator::generate_cell(&pmkm_data::generator::CellConfig::paper(n, seed))
            .map_err(run_err)?;
    for iter in 0..iters {
        let cfg = PartialMergeConfig {
            kmeans: KMeansConfig {
                restarts,
                ..KMeansConfig::paper(k, seed.wrapping_add(iter as u64))
            },
            partitions: PartitionSpec::Count(splits),
            ..PartialMergeConfig::paper(k, splits, seed)
        };
        let (result, run_report) =
            pmkm_core::partial_merge_observed(&points, &cfg, Some(&rec)).map_err(run_err)?;
        rec.registry().counter("demo_iterations_total").inc();
        server.set_report(run_report);
        writeln!(
            out,
            "iter {iter}: E_pm {:.1}, {} merge iterations",
            result.merge.epm, result.merge.iterations
        )
        .map_err(run_err)?;
    }

    // Self-probe so scripted runs (and CI smoke tests) verify liveness
    // end-to-end without an external HTTP client.
    for path in ["/healthz", "/metrics", "/report.json"] {
        let status = probe(&local, path).map_err(run_err)?;
        writeln!(out, "self-probe {path}: {status}").map_err(run_err)?;
    }
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str, argv: &[String]) -> Result<String, CliError> {
        let args = Args::parse(argv.to_vec());
        let mut buf = Vec::new();
        dispatch(cmd, &args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp("flow");
        let stripes_dir = dir.join("stripes");
        // generate
        let out = run(
            "generate",
            &[
                format!("--out={}", stripes_dir.display()),
                "--orbits=2".into(),
                "--dim=3".into(),
                "--lat=3".into(),
                "--step=0.2".into(),
                "--samples=6".into(),
            ],
        )
        .unwrap();
        assert!(out.contains("2 stripe files"), "{out}");

        // bin
        let buckets_dir = dir.join("buckets");
        let mut argv: Vec<String> = vec![format!("--out={}", buckets_dir.display())];
        for e in std::fs::read_dir(&stripes_dir).unwrap() {
            argv.push(e.unwrap().path().display().to_string());
        }
        let out = run("bin", &argv).unwrap();
        assert!(out.contains("buckets under"), "{out}");

        // pick the biggest bucket
        let mut buckets: Vec<PathBuf> =
            std::fs::read_dir(&buckets_dir).unwrap().map(|e| e.unwrap().path()).collect();
        buckets.sort_by_key(|p| std::cmp::Reverse(std::fs::metadata(p).unwrap().len()));
        let biggest = buckets[0].display().to_string();

        // inspect
        let out = run("inspect", std::slice::from_ref(&biggest)).unwrap();
        assert!(out.contains("points ×"), "{out}");
        assert!(out.contains("dim 0"), "{out}");

        // cluster
        let out = run(
            "cluster",
            &["--k=4".into(), "--restarts=2".into(), "--splits=3".into(), biggest.clone()],
        )
        .unwrap();
        assert!(out.contains("clustered 1 cells"), "{out}");
        assert!(out.contains("E_pm"), "{out}");

        // cluster with an explicit assignment kernel
        let out = run(
            "cluster",
            &[
                "--k=4".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                "--kernel=fused".into(),
                biggest.clone(),
            ],
        )
        .unwrap();
        assert!(out.contains("clustered 1 cells"), "{out}");
        let err =
            run("cluster", &["--k=4".into(), "--kernel=warp".into(), biggest.clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown kernel 'warp'"), "{err}");

        // --adaptive is not an option: it fails like any other unknown flag.
        let adaptive = run("cluster", &["--adaptive".into(), biggest.clone()]).unwrap_err();
        let bogus = run("cluster", &["--bogus".into(), biggest.clone()]).unwrap_err();
        assert!(
            matches!(&adaptive, CliError::Args(ArgError::Unknown(k)) if k == "adaptive"),
            "{adaptive:?}"
        );
        assert!(
            matches!(&bogus, CliError::Args(ArgError::Unknown(k)) if k == "bogus"),
            "{bogus:?}"
        );
        assert_eq!(adaptive.to_string(), "unknown option --adaptive");
        assert_eq!(adaptive.exit_code(), bogus.exit_code());

        // compress
        let hist_dir = dir.join("hist");
        let out = run(
            "compress",
            &[
                "--k=4".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                format!("--out={}", hist_dir.display()),
                biggest.clone(),
            ],
        )
        .unwrap();
        assert!(out.contains("ratio"), "{out}");
        assert!(std::fs::read_dir(&hist_dir).unwrap().count() == 1);

        // query the compressed form, with exact comparison
        let hist_json = std::fs::read_dir(&hist_dir).unwrap().next().unwrap().unwrap().path();
        let out = run(
            "query",
            &[
                "--range=0:-10000:10000".into(),
                format!("--exact={biggest}"),
                hist_json.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("estimated count"), "{out}");
        assert!(out.contains("exact count"), "{out}");
        // Unbounded range: estimate equals the full cell.
        assert!(out.contains("100.00% selectivity"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_metrics_out_round_trips_losslessly() {
        let dir = tmp("metrics");
        // Build a small bucket directly.
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.32_f64;
        for i in 0..180 {
            // Deterministic pseudo-random points around two separated blobs.
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 30.0 };
            points.push(&[blob + x, blob + (1.0 - x)]).unwrap();
        }
        let cell = pmkm_data::GridCell::new(21, 21).unwrap();
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        let report_path = dir.join("report.json");
        let trace_path = dir.join("trace.jsonl");
        let out = run(
            "cluster",
            &[
                "--k=2".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                format!("--metrics-out={}", report_path.display()),
                format!("--trace={}", trace_path.display()),
                bucket_path.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("wrote run report"), "{out}");
        assert!(out.contains("wrote trace"), "{out}");
        assert!(out.contains("util"), "{out}");

        // The written report parses, matches the dataset, and survives a
        // serialize → deserialize → serialize cycle without loss.
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: pmkm_obs::RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.schema_version, pmkm_obs::report::SCHEMA_VERSION);
        assert_eq!(report.total_points(), 180);
        assert_eq!(report.cells.len(), 1);
        assert!(!report.metrics.counters.is_empty());
        let again = serde_json::to_string_pretty(&report).unwrap();
        let report2: pmkm_obs::RunReport = serde_json::from_str(&again).unwrap();
        assert_eq!(report, report2);

        // The trace is valid JSONL with at least one event per operator.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let events: Vec<serde::Value> =
            trace.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert!(events.len() >= 4, "only {} events", events.len());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_serve_and_folded_expose_profiler_output() {
        let dir = tmp("serve");
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.41_f64;
        for i in 0..160 {
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 25.0 };
            points.push(&[blob + x, blob - x]).unwrap();
        }
        let cell = pmkm_data::GridCell::new(22, 22).unwrap();
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        let folded_path = dir.join("stacks.folded");
        let report_path = dir.join("report.json");
        let out = run(
            "cluster",
            &[
                "--k=2".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                "--serve=127.0.0.1:0".into(),
                format!("--folded={}", folded_path.display()),
                format!("--metrics-out={}", report_path.display()),
                bucket_path.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("serving telemetry at http://127.0.0.1:"), "{out}");
        assert!(out.contains("wrote folded stacks"), "{out}");

        // Folded stacks carry the pipeline phases in `name;name value` form.
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(folded.lines().any(|l| l.starts_with("partial ")), "{folded}");
        assert!(folded.lines().any(|l| l.starts_with("partial;assign ")), "{folded}");
        for line in folded.lines() {
            let (_, value) = line.rsplit_once(' ').expect("folded line has a value");
            value.parse::<u64>().expect("folded value is integral microseconds");
        }

        // The run report now carries the phase breakdown.
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: pmkm_obs::RunReport = serde_json::from_str(&text).unwrap();
        assert!(report.phases.iter().any(|p| p.path == "partial"), "{:?}", report.phases);
        assert!(report.phases.iter().any(|p| p.path == "merge"), "{:?}", report.phases);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_chaos_flags_inject_and_degrade_deterministically() {
        let dir = tmp("chaos");
        let cell = pmkm_data::GridCell::new(5, 5).unwrap();
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        for i in 0..200 {
            let blob = if i % 2 == 0 { 0.0 } else { 40.0 };
            points.push(&[blob + (i % 7) as f64 * 0.1, blob + (i % 5) as f64 * 0.1]).unwrap();
        }
        let bucket = dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&bucket).unwrap();
        let path = bucket.display().to_string();

        // Chunk faults are keyed by (cell, chunk_id), independent of the
        // temp path, so a seed whose schedule corrupts at least one of the
        // four chunks can be found deterministically.
        let seed = (0..500u64)
            .find(|&s| {
                let plan = pmkm_stream::FaultPlan::heavy(s);
                (0..4).any(|c| plan.chunk_fault(cell.index(), c).is_some())
            })
            .expect("some seed corrupts a chunk");
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=4".into()];

        // Strict policy (the default): the injected corruption is an error,
        // never a silently wrong clustering.
        let mut argv = base.clone();
        argv.push(format!("--chaos=heavy:{seed}"));
        argv.push(path.clone());
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));

        // Tolerant policy: the run completes, reports the fault counters,
        // and flags the degradation in the RunReport.
        let report_path = dir.join("chaos_report.json");
        let mut argv = base.clone();
        argv.push(format!("--chaos=heavy:{seed}"));
        argv.push("--tolerant".into());
        argv.push(format!("--metrics-out={}", report_path.display()));
        argv.push(path.clone());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("clustered"), "{out}");
        assert!(out.contains("[faults]"), "{out}");
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert!(report.degraded, "chaos run must flag degradation");
        assert!(report.faults.any(), "fault counters must reach the report");

        // Malformed chaos specs fail with usage errors.
        let mut argv = base.clone();
        argv.push("--chaos=heavy".into());
        argv.push(path.clone());
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));
        let mut argv = base;
        argv.push("--chaos=cosmic:1".into());
        argv.push(path);
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_demo_self_probe_reports_ok() {
        let out = run(
            "serve-demo",
            &[
                "--addr=127.0.0.1:0".into(),
                "--iters=1".into(),
                "--n=300".into(),
                "--k=3".into(),
                "--splits=2".into(),
                "--restarts=1".into(),
            ],
        )
        .unwrap();
        assert!(out.contains("serving telemetry at http://127.0.0.1:"), "{out}");
        assert!(out.contains("iter 0: E_pm"), "{out}");
        for path in ["/healthz", "/metrics", "/report.json"] {
            assert!(out.contains(&format!("self-probe {path}: HTTP/1.1 200 OK")), "{out}");
        }
    }

    #[test]
    fn query_rejects_malformed_ranges() {
        let dir = tmp("queryerr");
        let path = dir.join("h.json");
        let hist = pmkm_compress::MultivariateHistogram {
            dim: 2,
            total_count: 1.0,
            buckets: vec![pmkm_compress::Bucket {
                centroid: vec![0.0, 0.0],
                count: 1.0,
                spread: vec![1.0, 1.0],
            }],
        };
        std::fs::write(&path, serde_json::to_string(&hist).unwrap()).unwrap();
        let p = path.display().to_string();
        assert!(matches!(run("query", &["--range=0:1".into(), p.clone()]), Err(CliError::Run(_))));
        assert!(matches!(
            run("query", &["--range=9:0:1".into(), p.clone()]),
            Err(CliError::Run(_))
        ));
        assert!(run("query", &["--range=1:-5:5".into(), p]).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_bad_args() {
        assert!(matches!(run("frobnicate", &[]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(
            run("cluster", &["--bogus=1".into()]),
            Err(CliError::Args(ArgError::Unknown(_)))
        ));
        assert!(matches!(run("cluster", &[]), Err(CliError::Run(_))));
        assert!(matches!(run("bin", &[]), Err(CliError::Run(_))));
        assert!(matches!(run("inspect", &[]), Err(CliError::Run(_))));
        assert!(matches!(run("compress", &[]), Err(CliError::Run(_))));
    }

    #[test]
    fn inspect_rejects_garbage_file() {
        let dir = tmp("garbage");
        let path = dir.join("junk.gb");
        std::fs::write(&path, b"not a bucket").unwrap();
        assert!(matches!(run("inspect", &[path.display().to_string()]), Err(CliError::Run(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_ledger_inspect_and_diff_round_trip() {
        let dir = tmp("ledger");
        let cell = pmkm_data::GridCell::new(30, 30).unwrap();
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.27_f64;
        for i in 0..200 {
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 35.0 };
            points.push(&[blob + x, blob - x]).unwrap();
        }
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        // Two identical chaos runs, each journaling a ledger; one also
        // writes a RunReport so the diff can mix formats.
        let base = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--tolerant".into(),
            "--chaos=light:7".into(),
        ];
        let ledger_a = dir.join("a.jsonl").display().to_string();
        let ledger_b = dir.join("b.jsonl").display().to_string();
        let report_a = dir.join("a_report.json").display().to_string();
        let mut argv = base.clone();
        argv.push(format!("--ledger={ledger_a}"));
        argv.push(format!("--metrics-out={report_a}"));
        argv.push(bucket_path.display().to_string());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("wrote ledger to"), "{out}");
        let mut argv = base;
        argv.push(format!("--ledger={ledger_b}"));
        argv.push(bucket_path.display().to_string());
        run("cluster", &argv).unwrap();

        // The ledger rollup reproduces the RunReport's fault counters.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_a).unwrap()).unwrap();
        let records = pmkm_obs::read_ledger(&ledger_a).unwrap();
        let roll = pmkm_obs::rollup(&records);
        assert_eq!(roll.faults, report.faults, "ledger rollup must match the report");

        // inspect understands ledgers.
        let out = run("inspect", std::slice::from_ref(&ledger_a)).unwrap();
        assert!(out.contains("ledger v"), "{out}");
        assert!(out.contains("[phases]"), "{out}");
        assert!(out.contains("[cell "), "{out}");

        // Two same-machine same-workload runs diff clean under a generous
        // threshold — including the ledger-vs-RunReport mixed form.
        let out =
            run("diff", &["--threshold=1000".into(), ledger_a.clone(), ledger_b.clone()]).unwrap();
        assert!(out.contains("elapsed"), "{out}");
        let out =
            run("diff", &["--threshold=1000".into(), report_a.clone(), ledger_b.clone()]).unwrap();
        assert!(out.contains(&report_a), "{out}");

        // Usage errors: wrong arity, unreadable input.
        assert!(matches!(run("diff", std::slice::from_ref(&ledger_a)), Err(CliError::Run(_))));
        assert!(matches!(
            run("diff", &[ledger_a, "no_such_file.jsonl".into()]),
            Err(CliError::Run(_))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `n` two-blob buckets under `dir` and returns their paths.
    fn write_buckets(dir: &std::path::Path, n: usize) -> Vec<String> {
        (1..=n as u16)
            .map(|idx| {
                let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
                let mut points = pmkm_core::Dataset::new(2).unwrap();
                let mut x = 0.19_f64 + idx as f64;
                for i in 0..(80 + 20 * idx as usize) {
                    x = (x * 997.13 + 0.7).fract();
                    let blob = if i % 2 == 0 { 0.0 } else { 30.0 };
                    points.push(&[blob + x, blob - x]).unwrap();
                }
                let path = dir.join(cell.bucket_file_name());
                pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
                path.display().to_string()
            })
            .collect()
    }

    #[test]
    fn coreset_flags_run_both_commands_and_reject_bad_combinations() {
        let dir = tmp("coreset_cli");
        let buckets = write_buckets(&dir, 2);

        // cluster --coreset: the summary carries the tree tag and the
        // v7 report grows the coreset block.
        let report_path = dir.join("coreset_report.json").display().to_string();
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=4".into(),
            "--coreset=16".into(),
            format!("--metrics-out={report_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("[coreset:"), "{out}");
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let block = report.coreset.as_ref().expect("v7 coreset block");
        assert_eq!(block.trees, 2);
        assert!(block.builds >= 2, "{block:?}");
        assert!(block.lost_points == 0.0, "{block:?}");

        // orchestrate --coreset with decay still answers every cell, and
        // the journaled coreset events surface in the inspect rollup.
        let ledger_path = dir.join("coreset_run.jsonl").display().to_string();
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=4".into(),
            "--jobs=2".into(),
            "--coreset=16".into(),
            "--coreset-decay=0.9".into(),
            format!("--ledger={ledger_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");
        assert!(out.contains("[coreset:"), "{out}");
        let out = run("inspect", &[ledger_path]).unwrap();
        assert!(out.contains("[coreset]"), "{out}");
        assert!(out.contains("build(s)"), "{out}");

        // Window/decay without a size is an error.
        let err = run("cluster", &["--coreset-window=4".into(), buckets[0].clone()]).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_and_backend_flags_round_trip() {
        let dir = tmp("convert");
        let buckets = write_buckets(&dir, 2);

        // convert writes .gb2 siblings and reports block/ratio stats.
        let mut argv: Vec<String> = vec!["--block-points=37".into()];
        argv.extend(buckets.iter().cloned());
        let out = run("convert", &argv).unwrap();
        assert!(out.contains(".gb2"), "{out}");
        assert!(out.contains("block(s)"), "{out}");
        let gb2: Vec<String> = buckets
            .iter()
            .map(|p| PathBuf::from(p).with_extension("gb2").display().to_string())
            .collect();
        for p in &gb2 {
            assert!(std::path::Path::new(p).exists(), "missing {p}");
        }

        // inspect understands the container: block map plus the usual
        // cell header and per-dimension stats.
        let out = run("inspect", std::slice::from_ref(&gb2[0])).unwrap();
        assert!(out.contains("gb02 container"), "{out}");
        assert!(out.contains("[gb02]"), "{out}");
        assert!(out.contains("dim 0"), "{out}");

        // Clustering is bit-identical across formats and backends: the
        // per-cell summary lines (chunks, centroids, E_pm, points) of
        // every GB02 backend must match the GB01 baseline exactly.
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=3".into()];
        let mut argv = base.clone();
        argv.extend(buckets.iter().cloned());
        let reference = run("cluster", &argv).unwrap();
        let ref_cells: Vec<&str> =
            reference.lines().filter(|l| l.trim_start().starts_with("cell ")).collect();
        assert_eq!(ref_cells.len(), 2, "{reference}");
        for backend in ["local-file", "mmap", "sim-object-store"] {
            let mut argv = base.clone();
            argv.push(format!("--backend={backend}"));
            argv.extend(gb2.iter().cloned());
            let out = run("cluster", &argv).unwrap();
            let cells: Vec<&str> =
                out.lines().filter(|l| l.trim_start().starts_with("cell ")).collect();
            assert_eq!(cells, ref_cells, "backend {backend} diverged");
        }

        // orchestrate accepts the knob too.
        let mut argv = base.clone();
        argv.push("--jobs=2".into());
        argv.push("--backend=mmap".into());
        argv.extend(gb2.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");

        // A ledgered GB02 run journals scan.block events; inspect
        // surfaces the block I/O rollup.
        let ledger = dir.join("gb2.jsonl").display().to_string();
        let mut argv = base.clone();
        argv.push(format!("--ledger={ledger}"));
        argv.extend(gb2.iter().cloned());
        run("cluster", &argv).unwrap();
        let out = run("inspect", &[ledger]).unwrap();
        assert!(out.contains("[scan]"), "{out}");
        assert!(out.contains("zero-copy, prefetch hit rate"), "{out}");

        // convert --out=DIR with the raw codec (ratio exactly 1.00), and
        // recompression of an already-GB02 input.
        let out_dir = dir.join("converted");
        let out = run(
            "convert",
            &[format!("--out={}", out_dir.display()), "--codec=raw".into(), gb2[0].clone()],
        )
        .unwrap();
        assert!(out.contains("1.00x"), "{out}");

        // Usage errors: bad codec, bad backend, no inputs.
        let err = run("convert", &["--codec=zstd".into(), buckets[0].clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown codec"), "{err}");
        let err = run("cluster", &["--backend=s3".into(), buckets[0].clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
        assert!(matches!(run("convert", &[]), Err(CliError::Run(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_kill_resume_inspect_round_trip() {
        let dir = tmp("orch");
        let buckets = write_buckets(&dir, 4);
        let ckpt = dir.join("ckpt").display().to_string();
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=3".into()];

        // Kill after 2 checkpoints (jobs=1 keeps the drill deterministic).
        let mut argv = base.clone();
        argv.push("--jobs=1".into());
        argv.push(format!("--checkpoint-dir={ckpt}"));
        argv.push("--kill-after=2".into());
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("INTERRUPTED"), "{out}");
        assert!(out.contains("2 checkpoint(s) written"), "{out}");

        // Resume with a ledger and a report: 2 restored, 2 executed.
        let ledger = dir.join("orch.jsonl").display().to_string();
        let report_path = dir.join("orch_report.json").display().to_string();
        let mut argv = base.clone();
        argv.push("--jobs=2".into());
        argv.push(format!("--checkpoint-dir={ckpt}"));
        argv.push("--resume".into());
        argv.push(format!("--ledger={ledger}"));
        argv.push(format!("--metrics-out={report_path}"));
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("2 resumed, 2 executed"), "{out}");
        assert!(out.contains("[resumed]"), "{out}");
        assert!(!out.contains("INTERRUPTED"), "{out}");

        // The RunReport carries the v5 orchestrator block.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let orch = report.orchestrator.expect("orchestrate writes the orchestrator block");
        assert_eq!(orch.cells_total, 4);
        assert_eq!(orch.cells_resumed, 2);
        assert_eq!(orch.cells_executed, 2);
        assert_eq!(report.cells.len(), 4);

        // inspect rolls the multi-cell ledger up, resume events included.
        let out = run("inspect", std::slice::from_ref(&ledger)).unwrap();
        assert!(out.contains("ledger v"), "{out}");
        assert!(out.contains("[resume] 2 cell(s) restored"), "{out}");
        assert!(out.contains("[checkpoint +"), "{out}");
        assert_eq!(out.matches("[cell ").count(), 4, "{out}");

        // A budget smaller than one cell's footprint is a clean error.
        let mut argv = base.clone();
        argv.push("--budget=1".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));

        // --resume / --kill-after without --checkpoint-dir are usage errors.
        let mut argv = base.clone();
        argv.push("--resume".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));
        let mut argv = base.clone();
        argv.push("--kill-after=1".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));
        assert!(matches!(run("orchestrate", &[]), Err(CliError::Run(_))));

        // --cells caps the planet.
        let mut argv = base;
        argv.push("--cells=2".into());
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_watchdog_timeline_and_chrome_export_round_trip() {
        let dir = tmp("orch_obs");
        let buckets = write_buckets(&dir, 3);
        let ledger = dir.join("obs.jsonl").display().to_string();
        let report_path = dir.join("obs_report.json").display().to_string();

        // An observed run with the watchdog armed at a sane deadline: it
        // must stay silent, and the ledger must carry worker transitions.
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--jobs=2".into(),
            "--watchdog=30".into(),
            format!("--ledger={ledger}"),
            format!("--metrics-out={report_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 3 cells"), "{out}");
        assert!(!out.contains("[watchdog]"), "silent watchdog: {out}");

        // The report carries the v6 timeline block with one lane per job.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let tl = report.timeline.as_ref().expect("v6 timeline block");
        assert_eq!(tl.workers.len(), 2);

        // inspect on the ledger prints the Gantt and exports a Chrome trace.
        let trace_path = dir.join("trace.json").display().to_string();
        let out = run("inspect", &[format!("--timeline={trace_path}"), ledger.clone()]).unwrap();
        assert!(out.contains("[workers]"), "{out}");
        assert!(out.contains("[gantt"), "{out}");
        assert!(
            out.contains("[kernel] fused:") && out.contains("screens skipped by bounds"),
            "{out}"
        );
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"displayTimeUnit\":\"ms\""), "{trace}");

        // inspect on the RunReport prints the per-worker rollup and also
        // renders a trace (summary slices from the report's timeline).
        let out = run("inspect", &[format!("--timeline={trace_path}"), report_path]).unwrap();
        assert!(out.contains("run report v7"), "{out}");
        assert!(out.contains("[timeline] 2 worker(s)"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");

        // --timeline without a ledger or report among the inputs errors.
        let err =
            run("inspect", &[format!("--timeline={trace_path}"), buckets[0].clone()]).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err:?}");

        // --serve on orchestrate announces the dashboard routes and shuts
        // down cleanly when the run completes.
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--serve=127.0.0.1:0".into(),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("serving telemetry"), "{out}");
        assert!(out.contains("/status"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_detects_regression_and_attributes_phase() {
        use std::sync::Arc;
        let dir = tmp("diffreg");
        // Synthesize two ledgers whose only difference is a 3x slower
        // assignment phase, dominating the elapsed delta.
        let write_ledger = |path: &PathBuf, assign_us: u64| {
            let sink = Arc::new(pmkm_obs::LedgerSink::create(path).unwrap());
            let rec = pmkm_obs::Recorder::new().with_sink(sink);
            for (phase, self_us) in [("partial;assign", assign_us), ("merge", 40u64)] {
                rec.event(
                    "run.phase",
                    &[
                        ("path", phase.into()),
                        ("calls", 1u64.into()),
                        ("total_us", self_us.into()),
                        ("self_us", self_us.into()),
                        ("wall_us", self_us.into()),
                    ],
                );
            }
            rec.event(
                "run.close",
                &[
                    ("elapsed_us", (assign_us + 40).into()),
                    ("cells", 1u64.into()),
                    ("degraded", false.into()),
                ],
            );
            rec.flush();
        };
        let fast = dir.join("fast.jsonl");
        let slow = dir.join("slow.jsonl");
        write_ledger(&fast, 1000);
        write_ledger(&slow, 3000);

        let fast = fast.display().to_string();
        let slow = slow.display().to_string();
        let err = run("diff", &[fast.clone(), slow.clone()]).unwrap_err();
        let CliError::Regression(msg) = &err else {
            panic!("expected Regression, got {err:?}");
        };
        assert!(msg.contains("partial;assign"), "{msg}");

        // Same pair in the non-regressing direction passes and renders the
        // attribution table.
        let out = run("diff", &[slow, fast]).unwrap();
        assert!(out.contains("partial;assign"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
