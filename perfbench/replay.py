"""One benchmark run in a fresh interpreter (started by ``run.py``).

Builds the workload's inputs from the seed, discards a warm-up, then replays
whole units of the workload (every cell once) for about the requested seconds,
timing a few set-up-only replays before each measured one.
Untraced, it times only the public protocol calls, from outside, by wrapping
the EDB or router instance the run builds.
With ``--trace 1`` it then replays one more unit under the layer tracer
(:mod:`spans`).

It prints one JSON object (the raw measurements ``run.py`` turns into
metrics) as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.edb.leakage import update_pattern_observables
from repro.simulation.results import TimePoint

from spans import Tracer
from workloads import VARIANTS, Cell, Marker, build_cells

clock = time.perf_counter

#: Set-up-only replays (horizon 1) timed before each measured replay, so the
#: set-up samples spread over the whole run like the replays themselves.
#: Process-fleet set-ups fork workers, so fewer.
SETUP_PROBES = {"paper-oblidb": 4, "fleet-supervised": 2}

#: Simulated minutes of the discarded warm-up replay of each cell.
WARMUP_HORIZON = {"paper-oblidb": 2000, "fleet-supervised": 400}

#: Protocol calls per block: each replay's calls are cut into consecutive
#: blocks of at least this many, and the p50 is taken within each block.
BLOCK_CALLS = 64


def reference_loop_ms(rounds: int = 5) -> list[float]:
    """Fixed pure-Python CPU work, timed: a host-speed diagnostic."""
    samples = []
    for _ in range(rounds):
        start = clock()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((clock() - start) * 1e3)
    return samples


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _canonical(value):
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class Probe:
    """What one replay's protocol calls did, recorded from outside."""

    def __init__(self) -> None:
        self.sync: list[float] = []
        self.query: list[float] = []
        self.failed_calls = 0
        self.answers: list[tuple] = []
        self.transcript: tuple = ()
        self.per_shard: tuple = ()
        self.health: dict = {}
        self.worker_hwm_kib = 0
        self.shard_busy: dict = {}
        self.pipe_s = 0.0
        self.worker_commands = 0

    def instrument(self, edb):
        """Time the Update and Query protocol calls of ``edb`` and capture
        its transcripts and ledgers just before it is closed."""
        insert_many, query, close = edb.insert_many, edb.query, edb.close
        probe = self

        def timed_insert_many(batches, time):
            start = clock()
            try:
                result = insert_many(batches, time)
            except Exception:
                probe.failed_calls += 1
                raise
            probe.sync.append(clock() - start)
            return result

        def timed_query(q, time=0, **kwargs):
            start = clock()
            try:
                result = query(q, time, **kwargs)
            except Exception:
                probe.failed_calls += 1
                raise
            probe.query.append(clock() - start)
            probe.answers.append(
                (q.name, time, result.answer, result.qet_seconds, result.noise_injected)
            )
            return result

        def capturing_close():
            probe.capture(edb)
            close()

        edb.insert_many = timed_insert_many
        edb.query = timed_query
        edb.close = capturing_close
        return edb

    def capture(self, edb) -> None:
        self.transcript = update_pattern_observables(edb.update_history)
        if hasattr(edb, "per_shard_observables"):
            self.per_shard = edb.per_shard_observables()
        measured = getattr(edb, "measured", None)
        if measured is not None:
            self.health = measured.health()
            self.shard_busy = dict(measured.per_shard_busy_seconds)
            self.pipe_s = measured.serialization_seconds
            self.worker_commands = measured.worker_commands
        for shard in getattr(edb, "shards", ()):
            process = getattr(shard, "process", None)
            if process is not None and process.pid is not None:
                self.worker_hwm_kib += _vm_hwm_kib(process.pid)

    @property
    def failures(self) -> int:
        """Failed protocol calls plus supervisor retries, recoveries and
        degraded shards."""
        return (
            self.failed_calls
            + self.health.get("retries", 0)
            + self.health.get("recoveries", 0)
            + self.health.get("degraded_shards", 0)
        )

    def digest(self, label: str, result) -> str:
        """Digest of the replay's paper-level observables."""
        payload = {
            "cell": label,
            "answers": _canonical(self.answers),
            "result": result.to_dict(),
            "transcript": _canonical(self.transcript),
            "per_shard": _canonical(self.per_shard),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Replay:
    """One finished replay of one cell, reduced to what the metrics need."""

    cell: Cell
    probe: Probe
    wall: float
    setup: float
    digest: str
    final: TimePoint
    traces: list[tuple[float, float]]


def replay(cell, marker: Marker, horizon: int | None = None) -> Replay:
    probe = Probe()
    simulation = cell.simulation(probe.instrument, horizon=horizon)
    gc.collect()
    marker.reset()
    start = clock()
    result = simulation.run()
    wall = clock() - start
    setup = (marker.first if marker.first is not None else clock()) - start
    digest = probe.digest(cell.label, result)
    # Keep nothing of the run alive into the next one: retained answers
    # would grow the heap every later replay's collections walk.
    probe.answers = []
    return Replay(
        cell,
        probe,
        wall,
        setup,
        digest,
        result.final_time_point(),
        [(t.l1_error, t.qet_seconds) for t in result.query_traces],
    )


def unit_digest(replays: list[Replay]) -> str:
    return hashlib.sha256("".join(r.digest for r in replays).encode()).hexdigest()


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def run_units(
    cells,
    marker,
    seconds: float | None,
    count: int | None,
    setups: list | None = None,
    probes: int = 0,
) -> tuple[list[list[Replay]], int]:
    """Whole units (every cell once), or exactly ``count`` of them.  Given
    ``seconds``, a further unit starts only while the run would end nearer
    to ``seconds`` with it than without it, so a run lasts ``seconds`` give
    or take half a unit.  Each measured replay is preceded by ``probes``
    set-up-only replays (horizon 1), whose set-up times are appended to
    ``setups``.

    Also returns the process's peak RSS (KiB) at the end of the first unit,
    so the memory figure does not grow with the number of units that fit.
    """
    units = []
    start = clock()
    while True:
        unit = []
        for cell in cells:
            for _ in range(probes):
                setups.append(replay(cell, marker, horizon=1).setup)
            unit.append(replay(cell, marker))
        units.append(unit)
        if len(units) == 1:
            first_unit_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if count is not None:
            if len(units) >= count:
                return units, first_unit_maxrss
        else:
            elapsed = clock() - start
            if elapsed + elapsed / len(units) / 2 >= seconds:
                return units, first_unit_maxrss


def _skew(busy: dict) -> float:
    """Busiest shard over the mean shard (1.0 is balanced; 0 without shards)."""
    if not busy or sum(busy.values()) <= 0:
        return 0.0
    return max(busy.values()) / statistics.fmean(busy.values())


def block_medians(samples: list[float]) -> list[float]:
    """Medians of consecutive blocks of at least :data:`BLOCK_CALLS`
    samples (one block when there are fewer)."""
    if not samples:
        return []
    blocks = max(1, len(samples) // BLOCK_CALLS)
    bounds = [len(samples) * i // blocks for i in range(blocks + 1)]
    return [statistics.median(samples[a:b]) for a, b in zip(bounds, bounds[1:])]


def summarize(units: list[list[Replay]]) -> dict:
    replays = [r for unit in units for r in unit]
    final = [r.final for r in units[0]]
    traces = [t for r in units[0] for t in r.traces]
    return {
        "units": len(units),
        "replays": len(replays),
        "arrivals": sum(r.cell.arrivals for r in replays),
        "replay_wall_s": [r.wall for r in replays],
        "replay_setup_s": [r.setup for r in replays],
        "sync_s": [s for r in replays for s in r.probe.sync],
        "query_s": [s for r in replays for s in r.probe.query],
        "sync_block_p50_s": [m for r in replays for m in block_medians(r.probe.sync)],
        "query_block_p50_s": [m for r in replays for m in block_medians(r.probe.query)],
        "failures": sum(r.probe.failures for r in replays),
        "worker_hwm_kib": max(r.probe.worker_hwm_kib for r in units[0]),
        "l1_error_mean": statistics.fmean(l1 for l1, _ in traces),
        "qet_sim_ms": statistics.fmean(qet for _, qet in traces) * 1e3,
        "storage_overhead": sum(p.outsourced_records for p in final)
        / sum(p.logical_size for p in final),
        "digests": [unit_digest(unit) for unit in units],
        "shard_busy_s": sum(sum(r.probe.shard_busy.values()) for r in replays),
        "shard_skew": [_skew(r.probe.shard_busy) for r in replays],
        "pipe_s": sum(r.probe.pipe_s for r in replays),
        "worker_commands": sum(r.probe.worker_commands for r in replays),
        "retries": sum(r.probe.health.get("retries", 0) for r in replays),
        "recoveries": sum(r.probe.health.get("recoveries", 0) for r in replays),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--digest-only", action="store_true", help="one unit, no warm-up: for recording digests"
    )
    args = parser.parse_args(argv)

    reference = reference_loop_ms()
    marker = Marker()
    cells = build_cells(args.workload, args.seed, marker, scale=args.scale)

    setups: list[float] = []
    probes = 0
    if not args.digest_only:
        # Warm-up (discarded): every cell on a short prefix of its streams.
        warm = max(1, int(WARMUP_HORIZON[args.workload] * args.scale))
        for cell in cells:
            replay(cell, marker, horizon=warm)
        # The inputs are built up front, so the program's collections would
        # otherwise walk records it has not received yet; freeze them.
        gc.collect()
        gc.freeze()
        probes = SETUP_PROBES[args.workload]

    steal0 = cpu_steal()
    units, maxrss_kib = run_units(cells, marker, args.seconds, None, setups, probes)
    steal1 = cpu_steal()
    out = {
        "variant": args.seed % VARIANTS,
        "variants": VARIANTS,
        "untraced": summarize(units),
        "setup_probe_s": setups,
        "coordinator_maxrss_kib": maxrss_kib,
        "steal_share": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
    }

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_units, _ = run_units(cells, marker, None, 1)
        finally:
            tracer.remove()
        out["traced"] = summarize(traced_units)
        out["trace"] = {
            "exclusive_main": tracer.totals("exclusive", main_only=True),
            "inclusive_all": tracer.totals("inclusive"),
            "calls": tracer.totals("calls"),
            "counts": tracer.totals("counts"),
            "missing": tracer.missing,
        }

    reference += reference_loop_ms()
    out["reference_loop_ms"] = reference
    out["env"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
