#!/usr/bin/env python3
"""Planet benchmark: partial/merge k-means throughput at stated quality.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` worker (perfbench/Cargo.toml, into $CARGO_TARGET_DIR,
default .bench_build), generates the workload's buckets from the seed, and
then:

* --trace 0: runs whole-planet passes through pmkm_stream::orchestrate with
  tracing off, one child process per pass, until S seconds are used; checks
  every output; prints the end-to-end metrics.
* --trace 1: replays the same cells single-threaded through the layers'
  public functions with a span around each call, alternates untraced and
  traced (timeline + counters) passes for S seconds, and prints the
  per-layer metrics. Spans are written to .perfbench_work/<workload>/.

Every run prints a table of medians and quartiles, then, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
output check exits 1 after that line. Metric names, units and bounds are
declared in BENCHMARK.json at the repository root.

Self-test options: --scale tiny (a few small cells) and --corrupt
drop-cell|perturb-weight (damages one saved output before it is checked).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("planet-small", "planet-dense", "stream-coreset")
# Set-up is timed several times per run; setup_s is the median.
SETUP_REPEATS = 5
# Whole-planet passes per run never drop below this, however long they take.
MIN_PASSES = 2
# A child still running after this long is killed and counted as failed: a
# full pass takes seconds, so only a hang (e.g. deadlocked workers) gets here.
CHILD_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "pmkm-perfbench"


class Worker:
    """Runs the worker binary; each call is one child process."""

    def __init__(self, binary, workload, seed, scale, work):
        self.binary = binary
        self.common = ["--workload", workload, "--seed", str(seed), "--scale", scale,
                       "--dir", str(work / "data"), "--work", str(work / "run")]

    def __call__(self, sub, *args):
        """Returns (parsed JSON line, exit code, CPU seconds, peak RSS in MB);
        the JSON is None when a pass hung and was killed."""
        with tempfile.TemporaryFile(dir=ROOT / ".perfbench_work") as out:
            proc = subprocess.Popen([str(self.binary), sub, *self.common, *args],
                                    cwd=ROOT, stdout=out)
            hung = threading.Event()
            timer = threading.Timer(CHILD_TIMEOUT_S, lambda: (hung.set(), proc.kill()))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            if hung.is_set():
                msg = f"`{sub}` still running after {CHILD_TIMEOUT_S} s; killed"
                if sub != "pass":
                    fail(msg)
                print(f"perfbench: {msg}", file=sys.stderr)
                return None, code, 0.0, 0.0
            out.seek(0)
            lines = out.read().decode().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail(f"`{sub}` printed no result (exit {code})")
        return result, code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def cell_times_ms(pass_file):
    """Per-cell service times (CellOutcome.elapsed) of one saved pass."""
    with open(pass_file) as f:
        return [int(line.split()[3]) / 1e6 for line in f if line.startswith("cell ")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def table(title, rows):
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(c).rjust(14) if i else str(c).ljust(42) for i, c in enumerate(row)))


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def spread_rows(samples):
    rows = [("metric", "median", "q1", "q3", "n")]
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        rows.append((name, fmt(q2), fmt(q1), fmt(q3), len(values)))
    return rows


def measure_passes(run, work, seconds, traced_too):
    """Whole-planet passes until `seconds` are used (at least MIN_PASSES
    untraced and one traced). Returns the untraced passes, the traced
    passes, and how many passes failed (measuring stops at the first)."""
    plain, traced = [], []
    started = time.monotonic()
    longest = 0.0
    while True:
        for kind, bucket in (("plain", plain), ("traced", traced)):
            if kind == "traced" and not traced_too:
                continue
            out = work / f"pass-{kind}-{len(bucket)}.txt"
            t0 = time.monotonic()
            args = ["--out", str(out)] + (["--traced"] if kind == "traced" else [])
            result, code, cpu_s, rss_mb = run("pass", *args)
            longest = max(longest, time.monotonic() - t0)
            if code != 0:
                print(f"perfbench: {kind} pass {len(bucket)} failed (exit {code})", file=sys.stderr)
                if not plain or (traced_too and not traced):
                    fail("no pass completed")
                return plain, traced, 1
            bucket.append(dict(result, cpu_s=cpu_s, rss_mb=rss_mb, file=out))
        used = time.monotonic() - started
        enough = len(plain) >= MIN_PASSES and (not traced_too or traced)
        step = longest * (2 if traced_too else 1)
        if enough and used + step > seconds:
            return plain, traced, 0


def count_lost(checked, lost_passes, cells):
    """Books failed passes as attempted-and-failed cells."""
    checked["attempted"] += lost_passes * cells
    checked["failed"] += lost_passes * cells
    checked["correct"] = checked["correct"] and not lost_passes


def verify(run, passes, corrupt):
    args = ["--passes", ",".join(str(p["file"]) for p in passes)]
    if corrupt:
        args += ["--corrupt", corrupt]
    result, code, _, _ = run("verify", *args)
    result["correct"] = result["correct"] and code == 0
    return result


def end_to_end(run, work, seconds, corrupt, setup_runs):
    plain, _, lost = measure_passes(run, work, seconds, traced_too=False)
    checked = verify(run, plain, corrupt)
    count_lost(checked, lost, plain[0]["cells"])
    cell_ms = [cell_times_ms(p["file"]) for p in plain]
    samples = {
        "points_per_s": [p["points"] / p["wall_s"] for p in plain],
        "cell_ms_p50": [statistics.median(c) for c in cell_ms],
        "cell_ms_p90": [p90(c) for c in cell_ms],
        "cpu_s": [p["cpu_s"] for p in plain],
        "peak_rss_mb": [p["rss_mb"] for p in plain],
        "setup_s": setup_runs,
    }
    table("end-to-end samples (per pass; setup_s per repeat)", spread_rows(samples))
    units = {"points_per_s": "points/s", "cell_ms_p50": "ms", "cell_ms_p90": "ms",
             "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {name: (statistics.median(samples[name]), unit) for name, unit in units.items()}
    metrics["sse_per_point"] = (checked["sse_per_point"], "sse/point")
    failed = checked["failed"]
    print(f"\ncell_ms: percentiles of each pass's {len(cell_ms[0])} cells, median over "
          f"{len(plain)} passes; cell_fail_ratio: {failed / checked['attempted']:.6g} "
          f"({failed}/{checked['attempted']})")
    return metrics, checked


def per_layer(run, work, seconds, corrupt):
    _, code, _, _ = run("pass", "--out", str(work / "pass-replay-ref.txt"))
    if code != 0:
        fail("reference pass failed")
    replay, replay_code, _, _ = run("replay", "--passes", str(work / "pass-replay-ref.txt"),
                                    "--out", str(work / "spans.json"))
    plain, traced, lost = measure_passes(run, work, seconds, traced_too=True)
    checked = verify(run, plain + traced, corrupt)
    count_lost(checked, lost, plain[0]["cells"])

    points = replay["points"]
    cells = replay["replay.cell.spans"]
    layer = lambda name, field: replay.get(f"{name}.{field}", 0.0)
    work_layers = ("data.scan", "core.partial", "core.merge",
                   "core.coreset.build", "core.coreset.insert", "core.coreset.query")
    replay_ms_per_cell = sum(layer(n, "self_ms") for n in work_layers) / cells
    cell_ms = [t for p in plain for t in cell_times_ms(p["file"])]
    med = lambda passes, key: statistics.median(p[key] for p in passes)
    pps = lambda passes: statistics.median(p["points"] / p["wall_s"] for p in passes)
    scan_s = layer("data.scan", "self_ms") / 1e3
    ledger = (lambda key: med(plain, key)) if "ledger_events" in plain[0] else (lambda key: 0)

    rows = [("layer (replay, single thread)", "spans", "wall_ms", "self_ms", "self_cpu_ms")]
    for name in ("replay.cell",) + work_layers:
        if layer(name, "spans"):
            cpu = layer(name, "self_cpu_ms")
            rows.append((name, int(layer(name, "spans")), fmt(layer(name, "wall_ms")),
                         fmt(layer(name, "self_ms")), "n/a" if cpu is None else fmt(cpu)))
    table("per-layer self time", rows)
    table("orchestrator dwell, summed over worker lanes (traced passes)", spread_rows(
        {k: [p[k] for p in traced] for k in ("idle_ms", "checkpoint_ms", "budget_wait_ms")}))

    checks = {
        "replay outputs bit-identical to the orchestrated pass": replay_code == 0,
        "lloyd iterations: replay == recorder counter":
            all(p["lloyd_iterations"] == replay["lloyd_iterations"] for p in traced),
        "distance evaluations: replay == recorder kernel points x k":
            all(p["kernel_points"] * replay["k"] == replay["lloyd_dist_evals"] for p in traced),
    }
    table("consistency checks", [(k, "ok" if v else "FAILED") for k, v in checks.items()])

    metrics = {
        "data.scan.self_ms": (layer("data.scan", "self_ms"), "ms"),
        "data.scan.bytes": (replay["scan_bytes"], "bytes"),
        "data.scan.mb_per_s": (replay["scan_bytes"] / 1e6 / scan_s if scan_s else 0.0, "MB/s"),
        "stream.executor.overhead_ms_per_cell": (statistics.mean(cell_ms) - replay_ms_per_cell, "ms"),
        "stream.orchestrator.idle_ms": (med(traced, "idle_ms"), "ms"),
        "stream.orchestrator.checkpoint_ms": (med(traced, "checkpoint_ms"), "ms"),
        "stream.orchestrator.budget_wait_ms": (med(traced, "budget_wait_ms"), "ms"),
        "stream.orchestrator.steals": (med(plain, "steals"), "count"),
        "stream.orchestrator.checkpoint_bytes": (med(plain, "checkpoint_bytes"), "bytes"),
        "core.partial.self_ms": (layer("core.partial", "self_ms"), "ms"),
        "core.lloyd.iterations": (replay["lloyd_iterations"], "count"),
        "core.kernel.dist_evals_per_point": (replay["lloyd_dist_evals"] / points, "count"),
        "core.kernel.rescues_per_point":
            (traced[0]["kernel_rescued"] / traced[0]["kernel_points"] if traced[0]["kernel_points"] else 0.0,
             "count"),
        "core.merge.self_ms": (layer("core.merge", "self_ms"), "ms"),
        "core.merge.input_centroids": (replay["merge_input_centroids"], "count"),
        "core.merge.iterations": (replay["merge_iterations"], "count"),
        "core.coreset.build_ms": (layer("core.coreset.build", "self_ms"), "ms"),
        "core.coreset.insert_ms": (layer("core.coreset.insert", "self_ms"), "ms"),
        "core.coreset.query_ms": (layer("core.coreset.query", "self_ms"), "ms"),
        "core.coreset.compactions": (replay["coreset_compactions"], "count"),
        "core.coreset.live_buckets_max": (replay["coreset_live_buckets_max"], "count"),
        "core.coreset.dist_evals_per_point": (replay["coreset_dist_evals"] / points, "count"),
        "obs.ledger.events": (ledger("ledger_events"), "count"),
        "obs.ledger.bytes": (ledger("ledger_bytes"), "bytes"),
        "trace.overhead_pct": ((pps(plain) - pps(traced)) / pps(plain) * 100.0, "%"),
    }
    checked["correct"] = checked["correct"] and all(checks.values())
    checked["attempted"] += cells
    checked["failed"] += replay["mismatches"]
    return metrics, checked


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--corrupt", choices=("drop-cell", "perturb-weight"))
    args = ap.parse_args()

    binary = build()
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Worker(binary, args.workload, args.seed, args.scale, work)

    setup_runs = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        result, code, _, _ = run("setup")
        if code != 0:
            fail("setup failed")
        setup_runs.append(result["setup_s"])
    print(f"{args.workload}: {result['cells']} cells, {result['points']} points, "
          f"{result['bytes']} bytes; seed {args.seed}; {args.seconds:g} s; "
          f"{os.cpu_count()} cpus")

    if args.trace:
        metrics, checked = per_layer(run, work, args.seconds, args.corrupt)
    else:
        metrics, checked = end_to_end(run, work, args.seconds, args.corrupt, setup_runs)
    shutil.rmtree(work / "data", ignore_errors=True)

    table("metrics", [(name, fmt(v), unit) for name, (v, unit) in metrics.items()])
    print(json.dumps({
        "correct": bool(checked["correct"]),
        "attempted": int(checked["attempted"]),
        "failed": int(checked["failed"]),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    sys.exit(0 if checked["correct"] else 1)


if __name__ == "__main__":
    main()
