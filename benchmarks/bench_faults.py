"""Self-healing fleet: fault-free supervision overhead and recovery latency.

Emits ``BENCH_faults.json`` at the repository root with two sections:

* ``fault_free_overhead`` -- the supervision tax nobody should notice: the
  same encrypted 2-shard drive (setup + update/query ticks, sized to fit
  one checkpoint window of the default cadence) run plain and under
  ``supervisor="on"``.  The headline assertion pins ``ratio <=
  REPRO_BENCH_MAX_FAULT_OVERHEAD`` (default 1.05x): staging journal
  entries in memory and flushing at snapshot boundaries keeps the hot
  path at dictionary-insert cost.  Byte-equality of every observable is
  asserted on the side -- the ratio is only meaningful if supervision
  stayed invisible.

  Resolving a few percent on a noisy 1-CPU container takes a deliberate
  protocol: both routers are driven *in lockstep*, tick by tick, with the
  timed arm order alternating every tick, so each comparison window is
  milliseconds wide and the container's +-10% wall-clock drift hits both
  arms alike.  The ratio is the median over ``REPRO_BENCH_FAULT_ROUNDS``
  lockstep passes after one warmup pass, with the allocator's cyclic GC
  paused during measurement (the journal retains the in-flight window's
  records for replay; gen-2 collections would otherwise land on whichever
  arm the threshold falls in and swamp the signal).  A single retry is
  allowed -- the floor is a regression tripwire, not a latency SLO.

* ``recovery_latency`` -- per fault kind (kill, delay, drop, raise,
  tornsnap) against persistent worker processes: wall-clock spent
  inside recovery (teardown, snapshot restore, journal replay, worker
  respawn) per heal.  Each kind fires at shard 0's 3rd mutating command,
  before its first cadence generation, so it replays from generation 0;
  one more ``kill`` row fires on a longer drive past that generation, so
  it shows what a late recovery replays.  Informational -- absolute
  numbers depend on the container -- with correctness pinned: every
  fault heals, answers match the fault-free twin's.

Knobs: ``REPRO_BENCH_MAX_FAULT_OVERHEAD`` (default 1.05),
``REPRO_BENCH_FAULT_ROUNDS`` (lockstep passes per attempt, default 5),
``REPRO_BENCH_FAULT_TIMEOUT_S`` (pipe deadline for the latency section;
the delay/drop kinds wait it out, default 1.0).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from pathlib import Path

from benchmarks.conftest import bench_environment, emit_report, merge_bench_json
from repro.edb.records import Record
from repro.edb.router import ShardRouter
from repro.fleet.supervisor import SupervisorConfig
from repro.query.ast import CountQuery
from repro.simulation.runner import make_backend
from repro.testing.chaos import FAULT_KINDS

MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_FAULT_OVERHEAD", "1.05"))
ROUNDS = int(os.environ.get("REPRO_BENCH_FAULT_ROUNDS", "5"))
TIMEOUT_S = float(os.environ.get("REPRO_BENCH_FAULT_TIMEOUT_S", "1.0"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

QUERY = CountQuery(table="events", label="Q1")

#: Overhead workload: 2 encrypted ObliDB shards, serial executor (no
#: process noise), 24 update ticks of 800 records with a query every 4 --
#: 31 mutating commands per shard, inside the default 32-command
#: checkpoint cadence, so the measured tax is pure supervision (dispatch,
#: fault-point check, staged journaling), not the amortized checkpoint.
SETUP_N, TICKS, BATCH = 2000, 24, 800

#: Recovery drives: (kind, schedule, ticks of 50 records).  A drive of
#: ``t`` ticks gives shard 0 ``1 + t + t // 4`` mutating commands; the
#: first cadence generation is taken after its 32nd (the default
#: ``snapshot_every``), at tick 25, so the late kill at command 40 (tick 32)
#: restores that generation and replays what followed it.
RECOVERY_CASES = [(kind, f"{kind}:0@3", 6) for kind in sorted(FAULT_KINDS)] + [
    ("kill", "kill:0@40", 40)
]


def _records(n: int, start: int = 0, t: int = 0) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 7, "value": start + i},
            arrival_time=t,
            table="events",
        )
        for i in range(n)
    ]


def _router(executor="serial", supervisor=None, faults="") -> ShardRouter:
    shards = [
        make_backend("oblidb", seed=40 + i, simulate_encryption=True)()
        for i in range(2)
    ]
    return ShardRouter(
        shards,
        route_seed=9,
        executor=executor,
        supervisor=supervisor,
        faults=faults,
    )


def _drive(router: ShardRouter, ticks: int = TICKS, batch: int = BATCH):
    observed = [router.setup(_records(SETUP_N)).records_added]
    for t in range(1, ticks + 1):
        update = router.update(_records(batch, start=SETUP_N + batch * t, t=t), t)
        observed.append((update.records_added, update.bytes_added))
        if t % 4 == 0:
            result = router.query(QUERY, time=t)
            observed.append((result.answer, result.qet_seconds))
    return observed


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _lockstep_pass() -> tuple[float, float]:
    """One tick-interleaved plain/supervised drive; returns arm totals."""
    plain, supervised = _router(), _router(supervisor="on")
    plain_obs, supervised_obs = [], []
    totals = {"plain": 0.0, "supervised": 0.0}
    observed = {"plain": plain_obs, "supervised": supervised_obs}
    try:
        result, elapsed = _timed(lambda: plain.setup(_records(SETUP_N)))
        plain_obs.append(result.records_added)
        totals["plain"] += elapsed
        result, elapsed = _timed(lambda: supervised.setup(_records(SETUP_N)))
        supervised_obs.append(result.records_added)
        totals["supervised"] += elapsed
        for t in range(1, TICKS + 1):
            batch = _records(BATCH, start=SETUP_N + BATCH * t, t=t)

            def tick(router):
                update = router.update(batch, t)
                out = [(update.records_added, update.bytes_added)]
                if t % 4 == 0:
                    q = router.query(QUERY, time=t)
                    out.append((q.answer, q.qet_seconds))
                return out

            arms = [("plain", plain), ("supervised", supervised)]
            if t % 2:  # alternate order so phase-locked stalls cancel
                arms.reverse()
            for name, router in arms:
                out, elapsed = _timed(lambda: tick(router))
                observed[name].extend(out)
                totals[name] += elapsed
    finally:
        plain.close()
        supervised.close()
    assert supervised_obs == plain_obs  # supervision is observably invisible
    return totals["plain"], totals["supervised"]


def _overhead_attempt() -> dict:
    gc.collect()
    gc.disable()
    try:
        _lockstep_pass()  # warmup: imports, allocator growth, code caches
        passes = [_lockstep_pass() for _ in range(ROUNDS)]
    finally:
        gc.enable()
    ratios = [supervised / plain for plain, supervised in passes]
    plain = min(plain for plain, _ in passes)
    supervised = min(supervised for _, supervised in passes)
    ratio = statistics.median(ratios)
    commands_per_shard = 1 + TICKS + TICKS // 4
    return {
        "workload": {
            "backend": "oblidb",
            "simulate_encryption": True,
            "n_shards": 2,
            "executor": "serial",
            "setup_records": SETUP_N,
            "ticks": TICKS,
            "batch": BATCH,
            "mutating_commands_per_shard": commands_per_shard,
        },
        "rounds": ROUNDS,
        "plain_seconds": plain,
        "supervised_seconds": supervised,
        "pass_ratios": ratios,
        "overhead_ratio": ratio,
        "overhead_per_command_us": (ratio - 1.0) * plain / commands_per_shard * 1e6,
        "max_overhead_ratio": MAX_OVERHEAD,
        "gc_paused_during_measurement": True,
    }


def _overhead() -> dict:
    outcome = _overhead_attempt()
    if outcome["overhead_ratio"] > MAX_OVERHEAD:  # one retry: tripwire, not SLO
        retry = _overhead_attempt()
        if retry["overhead_ratio"] < outcome["overhead_ratio"]:
            outcome = retry
        outcome["retried"] = True
    return outcome


def _recovery_latency() -> list[dict]:
    config = SupervisorConfig(timeout_s=TIMEOUT_S, backoff_base_s=0.01)
    expected = {}
    for ticks in sorted({ticks for _, _, ticks in RECOVERY_CASES}):
        reference = _router(executor="processes")
        try:
            expected[ticks] = _drive(reference, ticks=ticks, batch=50)
        finally:
            reference.close()
    results = []
    for kind, faults, ticks in RECOVERY_CASES:
        chaotic = _router(executor="processes", supervisor=config, faults=faults)
        try:
            start = time.perf_counter()
            observed = _drive(chaotic, ticks=ticks, batch=50)
            elapsed = time.perf_counter() - start
            health = chaotic.measured.health()
        finally:
            chaotic.close()
        assert observed == expected[ticks], f"{faults} recovery changed an observable"
        assert health["recoveries"] == 1, f"{faults} did not heal exactly once"
        results.append(
            {
                "kind": kind,
                "faults": faults,
                "ticks": ticks,
                "recovery_seconds": health["recovery_seconds"],
                "replayed_batches": health["replayed_batches"],
                "run_seconds": elapsed,
            }
        )
    return results


def test_fault_free_supervision_overhead(benchmark):
    outcome = benchmark.pedantic(_overhead, rounds=1, iterations=1)

    lines = [
        "Fault-free supervision overhead "
        f"(2 encrypted ObliDB shards, {TICKS} ticks x {BATCH} records, "
        f"median of {ROUNDS} tick-lockstep passes)",
        "",
        f"  plain drive          {outcome['plain_seconds'] * 1e3:9.1f} ms (best)",
        f"  supervised drive     {outcome['supervised_seconds'] * 1e3:9.1f} ms (best)",
        f"  overhead ratio       {outcome['overhead_ratio']:9.3f}x"
        f"  (floor: <= {MAX_OVERHEAD}x)",
        f"  per mutating command {outcome['overhead_per_command_us']:9.1f} us",
    ]
    emit_report("fault_overhead", "\n".join(lines))

    merge_bench_json(
        OUTPUT_PATH,
        "fault_free_overhead",
        {**outcome, "environment": bench_environment()},
    )

    assert outcome["overhead_ratio"] <= MAX_OVERHEAD, (
        f"fault-free supervision overhead {outcome['overhead_ratio']:.3f}x "
        f"exceeds the {MAX_OVERHEAD}x floor"
    )


def test_recovery_latency_per_fault_kind(benchmark):
    results = benchmark.pedantic(_recovery_latency, rounds=1, iterations=1)

    lines = [
        "Recovery latency by fault kind "
        f"(2 encrypted shards, worker processes, {TIMEOUT_S}s pipe deadline)",
        "",
    ]
    for row in results:
        lines.append(
            f"  {row['faults']:<12} heal {row['recovery_seconds'] * 1e3:8.1f} ms"
            f"  ({row['replayed_batches']} batches replayed,"
            f" run {row['run_seconds'] * 1e3:7.1f} ms)"
        )
    emit_report("fault_recovery", "\n".join(lines))

    merge_bench_json(
        OUTPUT_PATH,
        "recovery_latency",
        {
            "timeout_s": TIMEOUT_S,
            "kinds": results,
            "environment": bench_environment(),
        },
    )
