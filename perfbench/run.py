"""End-to-end benchmark of the DP-Sync reproduction: one command per run.

Run from the repository root::

    python3 perfbench/run.py --workload paper-oblidb --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fleet-supervised --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --check                  # short self-check, ~15 s
    python3 perfbench/run.py --record-digests --workload fleet-supervised

Each run starts the measurement in a fresh interpreter (``replay.py``),
captures its standard error and the ``/dev/shm`` arena segments it leaves,
checks every replay's paper-level observables against the digest recorded in
``digests.json``, prints every metric by name with its unit, and prints one
JSON object as its last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SRC = Path("src")

#: The child's time limit; every run must end within 180 s.
CHILD_TIMEOUT_S = 170.0

#: Scale of the check mode's small replays.
CHECK_SCALE = 0.05

#: Traced self times plus ``other.self_s`` must cover the traced wall time
#: to within this share.
COVERAGE_TOLERANCE = 0.05

#: A percentile is reported only when at least this many samples lie above it.
TAIL_SAMPLES = 10

TRACKER_WARNING = re.compile(r"resource_tracker: There appear to be \d+ leaked shared_memory")
TEARDOWN_ERROR = "AssertionError: can only test a child process"


def _workloads() -> tuple[str, ...]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple(workload["name"] for workload in spec["workloads"])


def _arena_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-arena")}
    except OSError:
        return set()


def _stop_group(pgid: int, wait_s: float = 5.0) -> None:
    """Kill whatever is left of the child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args: list[str]) -> tuple[dict | None, str, int]:
    """Run ``replay.py`` in a fresh interpreter; returns (payload, stderr,
    leaked arena segments)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The same string hashes, and so the same dict and set layouts, in
    # every run.
    env["PYTHONHASHSEED"] = "0"
    before = _arena_segments()
    # A session of its own, so the shard workers and the resource tracker
    # the child forks can be stopped with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "replay.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nperfbench: replay exceeded {CHILD_TIMEOUT_S:.0f} s and was killed\n"
    _stop_group(proc.pid)
    leaked = len(_arena_segments() - before)
    payload = None
    if proc.returncode == 0 and stdout.strip():
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            payload = None
    return payload, stderr, leaked


def percentile_ms(samples: list[float], q: int) -> float | None:
    """The ``q``-th percentile in ms, or None when fewer than
    :data:`TAIL_SAMPLES` samples lie above it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    if sum(1 for sample in samples if sample > cut) < TAIL_SAMPLES:
        return None
    return cut * 1e3


def end_to_end(raw: dict) -> dict[str, tuple[float, str]]:
    run = raw["untraced"]
    per_unit = len(run["replay_wall_s"]) // run["units"]
    walls, setups = run["replay_wall_s"], run["replay_setup_s"]
    rates = []
    for unit in range(run["units"]):
        span = slice(unit * per_unit, (unit + 1) * per_unit)
        busy = sum(w - s for w, s in zip(walls[span], setups[span]))
        rates.append(run["arrivals"] / run["units"] / busy)
    metrics = {
        "setup_s": (statistics.median(raw["setup_probe_s"] + setups), "s"),
        "records_per_s": (statistics.median(rates), "records/s"),
    }
    for name in ("sync", "query"):
        # The p50 within each block of consecutive calls, averaged over the
        # run: host speed drifts during a run, and the average moves with
        # the share of the run spent slow, where a pooled median jumps.
        blocks = run[f"{name}_block_p50_s"]
        if blocks:
            metrics[f"{name}_p50_ms"] = (statistics.fmean(blocks) * 1e3, "ms")
        value = percentile_ms(run[f"{name}_s"], 99)
        if value is not None:
            metrics[f"{name}_p99_ms"] = (value, "ms")
    metrics["peak_rss_mb"] = ((raw["coordinator_maxrss_kib"] + run["worker_hwm_kib"]) / 1024, "MB")
    metrics["l1_error_mean"] = (run["l1_error_mean"], "records")
    metrics["storage_overhead"] = (run["storage_overhead"], "ratio")
    metrics["qet_sim_ms"] = (run["qet_sim_ms"], "ms")
    return metrics


def per_layer(raw: dict, stderr: str, leaked: int) -> dict[str, tuple[float, str]]:
    traced, trace = raw["traced"], raw["trace"]
    units = traced["units"]
    own = trace["exclusive_main"]
    spans = trace["inclusive_all"]
    calls = trace["calls"]
    counts = trace["counts"]
    wall = sum(traced["replay_wall_s"])
    untraced = raw["untraced"]
    per_unit = len(untraced["replay_wall_s"]) // untraced["units"]
    untraced_wall = statistics.median(
        sum(untraced["replay_wall_s"][u * per_unit:(u + 1) * per_unit]) * units
        for u in range(untraced["units"])
    )

    def s(layer: str, table: dict = own) -> tuple[float, str]:
        return (table.get(layer, 0.0) / units, "s")

    def n(value: float) -> tuple[float, str]:
        return (value / units, "count")

    events = counts.get("engine.events", 0)
    released = counts.get("core.strategies.released", 0)
    skews = [x for x in traced["shard_skew"] if x > 0]
    return {
        "engine.self_s": s("engine"),
        "engine.events": n(events),
        "engine.stale_share": (counts.get("engine.stale", 0) / events if events else 0.0, "ratio"),
        "core.owner.ticks": n(counts.get("core.owner.ticks", 0)),
        "core.owner.self_s": s("core.owner"),
        "core.strategies.self_s": s("core.strategies"),
        "core.strategies.syncs": n(counts.get("core.strategies.syncs", 0)),
        "core.strategies.dummy_share": (
            counts.get("core.strategies.dummies", 0) / released if released else 0.0,
            "ratio",
        ),
        "edb.update.calls": n(calls.get("edb.update", 0)),
        "edb.update.self_s": s("edb.update"),
        "edb.update.records": n(counts.get("edb.update.records", 0)),
        "edb.crypto.self_s": s("edb.crypto"),
        "edb.crypto.records": n(counts.get("edb.crypto.records", 0)),
        "edb.crypto.bytes": (counts.get("edb.crypto.bytes", 0) / units, "bytes"),
        "query.columnar.append_s": s("query.columnar.append"),
        "query.columnar.scan_s": s("query.columnar.scan"),
        "query.columnar.rows_scanned": n(counts.get("query.columnar.rows_scanned", 0)),
        "edb.query.calls": n(calls.get("edb.query", 0)),
        "edb.query.self_s": s("edb.query"),
        "query.incremental.ingest_s": s("query.incremental.ingest"),
        "query.incremental.answer_s": s("query.incremental.answer"),
        "core.analyst.self_s": s("core.analyst"),
        "edb.router.update_s": s("edb.router.update"),
        "edb.router.query_s": s("edb.router.query"),
        "edb.router.shard_busy_s": (traced["shard_busy_s"] / units, "s"),
        "edb.router.shard_skew": (statistics.median(skews) if skews else 0.0, "ratio"),
        "edb.shard_worker.commands": n(traced["worker_commands"]),
        "edb.shard_worker.pipe_s": (traced["pipe_s"] / units, "s"),
        "edb.shard_worker.tracker_warnings": (len(TRACKER_WARNING.findall(stderr)), "count"),
        "edb.shard_worker.teardown_errors": (stderr.count(TEARDOWN_ERROR), "count"),
        "edb.shard_worker.leaked_segments": (leaked, "count"),
        "fleet.supervisor.snapshots": n(calls.get("fleet.supervisor", 0)),
        "fleet.supervisor.snapshot_s": s("fleet.supervisor", spans),
        "fleet.supervisor.retries": n(traced["retries"]),
        "fleet.supervisor.recoveries": n(traced["recoveries"]),
        "edb.store.saves": n(calls.get("edb.store.save", 0)),
        "edb.store.save_s": s("edb.store.save", spans),
        "edb.store.journal_flush_s": s("edb.store.journal", spans),
        "other.self_s": s("other"),
        "trace.overhead": (wall / untraced_wall, "ratio"),
        "trace.coverage": (sum(own.values()) / wall, "ratio"),
        "host.ref_loop_ms": (statistics.median(raw["reference_loop_ms"]), "ms"),
    }


def _digest_table() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def recorded_digest(workload: str, scale: float, variant: int) -> str | None:
    return _digest_table().get(workload, {}).get(f"scale={scale:g}", {}).get(str(variant))


def evaluate(args, raw: dict | None, stderr: str, leaked: int) -> tuple[dict, list[str]]:
    """The result object and the reasons the run is not correct."""
    if raw is None:
        tail = "\n".join(stderr.strip().splitlines()[-20:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [
            "replay failed:\n" + tail
        ]
    problems = []
    expected = recorded_digest(args.workload, args.scale, raw["variant"])
    passes = [raw["untraced"]] + ([raw["traced"]] if "traced" in raw else [])
    attempted = sum(len(p["sync_s"]) + len(p["query_s"]) for p in passes)
    mismatches = 0
    for p in passes:
        for digest in p["digests"]:
            if digest != expected:
                mismatches += 1
    if expected is None:
        problems.append("no recorded digest for this workload, scale and seed")
    elif mismatches:
        problems.append(f"{mismatches} replay unit(s) do not match the recorded digest {expected[:16]}")
    failures = sum(p["failures"] for p in passes)
    if failures:
        problems.append(f"{failures} failed protocol calls, retries, recoveries or degraded shards")
    if args.trace:
        metrics = per_layer(raw, stderr, leaked)
        coverage = metrics["trace.coverage"][0]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"traced self times cover {coverage:.3f} of the traced wall time")
        if raw["trace"]["missing"]:
            problems.append("trace targets missing: " + ", ".join(raw["trace"]["missing"]))
    else:
        metrics = end_to_end(raw)
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failures + mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems


def report(args, raw: dict | None, result: dict, stderr: str, leaked: int) -> None:
    if raw is not None:
        env = raw["env"]
        ref = raw["reference_loop_ms"]
        run = raw["untraced"]
        print(
            f"perfbench {args.workload} seed={args.seed} scale={args.scale:g} "
            f"trace={args.trace} nproc={env['nproc']} affinity={env['affinity']} "
            f"python={env['python']} numpy={env['numpy']}"
        )
        print(
            f"  host reference loop: median {statistics.median(ref):.2f} ms, "
            f"max {max(ref):.2f} ms over {len(ref)} samples; "
            f"CPU steal {raw['steal_share']:.1%} while measuring"
        )
        print(
            f"  measured {run['units']} unit(s), {run['replays']} replay(s), "
            f"{len(run['sync_s'])} Update calls, {len(run['query_s'])} Query calls"
        )
        print(
            f"  teardown: {len(TRACKER_WARNING.findall(stderr))} resource_tracker warnings, "
            f"{stderr.count(TEARDOWN_ERROR)} finalizer errors, {leaked} leaked arena segments"
        )
        for name in ("sync", "query"):
            if args.trace == 0 and f"{name}_p99_ms" not in result["metrics"]:
                print(f"  {name}_p99_ms omitted: fewer than {TAIL_SAMPLES} samples above it")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def measure(args) -> tuple[dict, list[str]]:
    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", repr(args.scale),
    ]
    raw, stderr, leaked = run_child(child_args)
    result, problems = evaluate(args, raw, stderr, leaked)
    report(args, raw, result, stderr, leaked)
    return result, problems


def record_digests(args) -> int:
    """Maintenance: replay every input variant once and store its digest."""
    digests = _digest_table()
    table = digests.setdefault(args.workload, {}).setdefault(f"scale={args.scale:g}", {})
    variant, variants = 0, 1
    while variant < variants:
        raw, stderr, _ = run_child(
            ["--workload", args.workload, "--seed", str(variant), "--seconds", "0",
             "--trace", "0", "--scale", repr(args.scale), "--digest-only"]
        )
        if raw is None:
            print(stderr, file=sys.stderr)
            return 1
        variants = raw["variants"]
        table[str(variant)] = raw["untraced"]["digests"][0]
        print(f"{args.workload} scale={args.scale:g} variant {variant}: {table[str(variant)]}")
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        variant += 1
    return 0


def check(args) -> int:
    """Short self-check: every workload at a small scale, both modes."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in _workloads():
        for trace in (0, 1):
            sub = argparse.Namespace(
                workload=workload, seed=args.seed, seconds=0.0, trace=trace, scale=CHECK_SCALE
            )
            result, problems = measure(sub)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            missing = [
                m for m in names
                if m not in result["metrics"] and not re.fullmatch(r"(sync|query)_p99_ms", m)
            ]
            bad = [
                k for k, v in result["metrics"].items()
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])
            ]
            if problems or missing or bad:
                ok = False
                print(f"CHECK FAILED {workload} trace={trace}: {problems} missing={missing} bad={bad}")
    print("check passed" if ok else "check failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help="short self-check of the benchmark")
    parser.add_argument("--record-digests", action="store_true",
                        help="replay every input variant of --workload and record its digest")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.check:
        return check(args)
    if args.workload not in _workloads():
        print(f"perfbench: --workload must be one of {_workloads()}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args)
    result, problems = measure(args)
    for problem in problems:
        print(f"perfbench: NOT CORRECT: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
