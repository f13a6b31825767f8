"""Engine wall-clock benchmarks: segment replay and the EDB fast path.

Two comparisons are recorded into ``BENCH_engine.json`` at the repo root:

1. **engine vs per-tick loop** -- a sparse 50,000-tick, 3-table DP-Timer
   workload replayed through the per-tick reference loop
   (:func:`repro.testing.reference.run_per_tick`) and the segment engine
   (:meth:`Simulation.run`).  On a sparse stream the per-tick loop spends
   almost all of its time on dead iterations, which the engine's segment
   kernels never visit.
2. **EDB fast path vs reference** -- a Figure-2-scale dp-timer run (full
   June taxi workload, paper query schedule) on the engine, once under the
   row-interpreter oracle (:func:`repro.testing.reference.row_interpreter`,
   the row-at-a-time operators every EDB ran before the columnar executor)
   and once on the columnar EDB.  Results are asserted bit-identical; the
   acceptance floor is a 5x speedup.

Shared CI runners set lower smoke floors via the ``REPRO_BENCH_MIN_SPEEDUP``
/ ``REPRO_BENCH_MIN_EDB_SPEEDUP`` knobs because wall-clock ratios are noisy
there.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit_report, merge_bench_json
from repro.core.strategies.flush import FlushPolicy
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.query.ast import CountQuery
from repro.query.predicates import RangePredicate
from repro.simulation.runner import CellSpec, run_cell
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.testing.reference import row_interpreter, run_per_tick
from repro.workload.stream import GrowingDatabase

HORIZON = 50_000
TABLES = 3
RECORDS_PER_TABLE = 500  # occupancy 1%: the stream is quiet 99% of the time
TIMER_PERIOD = 120  # sparse sync schedule to match the sparse stream
# The acceptance floor is 3x (local margin ~4.6x); shared CI runners set a
# lower smoke floor because wall-clock ratios are noisy there.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Acceptance floor for the figure-2-scale EDB fast path (local margin ~7x).
MIN_EDB_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_EDB_SPEEDUP", "5.0"))
#: Workload scale of the fast-path comparison (1.0 = the paper's Figure 2).
FIG2_SCALE = float(os.environ.get("REPRO_BENCH_FIG2_SCALE", "1.0"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def sparse_workloads(seed: int = 0) -> dict[str, GrowingDatabase]:
    """Three sparse streams with a fixed arrival layout per seed."""
    rng = np.random.default_rng(seed)
    workloads: dict[str, GrowingDatabase] = {}
    for index in range(TABLES):
        table = f"Sensor{index}"
        times = np.sort(
            rng.choice(np.arange(1, HORIZON + 1), size=RECORDS_PER_TABLE, replace=False)
        )
        updates: list[Record | None] = [None] * HORIZON
        for t in times:
            t = int(t)
            updates[t - 1] = Record(
                values={"sensor_id": index, "value": t % 97},
                arrival_time=t,
                table=table,
            )
        workloads[table] = GrowingDatabase(table=table, updates=updates)
    return workloads


def build_simulation(workloads) -> Simulation:
    config = SimulationConfig(
        strategy="dp-timer",
        epsilon=0.5,
        timer_period=TIMER_PERIOD,
        flush=FlushPolicy(interval=2000, size=15),
        query_interval=5000,
        seed=7,
    )
    queries = [
        CountQuery(
            table="Sensor0",
            predicate=RangePredicate("value", 10, 60),
            label="Q1",
        )
    ]
    return Simulation(
        edb_factory=lambda: ObliDB(rng=np.random.default_rng(1)),
        workloads=workloads,
        queries=queries,
        config=config,
    )


def test_engine_speedup_over_legacy_loop(bench_settings):
    workloads = sparse_workloads()

    start = time.perf_counter()
    legacy_result = run_per_tick(build_simulation(workloads))
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine_result = build_simulation(workloads).run()
    engine_seconds = time.perf_counter() - start

    assert engine_result == legacy_result, "engine run diverged from the per-tick loop"
    speedup = legacy_seconds / max(engine_seconds, 1e-9)

    payload = {
        "benchmark": "engine_speed",
        "horizon": HORIZON,
        "tables": TABLES,
        "records_per_table": RECORDS_PER_TABLE,
        "strategy": "dp-timer",
        "timer_period": TIMER_PERIOD,
        "legacy_seconds": round(legacy_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "speedup": round(speedup, 2),
        "sync_count": legacy_result.sync_count,
        "total_update_volume": legacy_result.total_update_volume,
    }
    merge_bench_json(OUTPUT_PATH, "engine_speed", payload)

    emit_report(
        "engine_speed",
        "Segment engine vs. per-tick reference loop "
        f"({TABLES} tables x {HORIZON} ticks, {RECORDS_PER_TABLE} records/table)\n\n"
        f"per-tick    : {legacy_seconds:8.3f} s\n"
        f"engine      : {engine_seconds:8.3f} s\n"
        f"speedup     : {speedup:8.2f} x\n"
        f"(results identical: sync_count={legacy_result.sync_count}, "
        f"volume={legacy_result.total_update_volume})",
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup, measured {speedup:.2f}x"
    )


def test_edb_fast_path_speedup_figure2(bench_settings):
    """Figure-2-scale dp-timer: vectorized EDB vs the PR-1 engine baseline.

    Both runs use the segment engine; only the EDB's query executor differs,
    so the measured ratio isolates the storage/query-layer rewrite.
    """
    spec = CellSpec(
        strategy="dp-timer",
        backend="oblidb",
        scenario="taxi-june",
        scale=FIG2_SCALE,
        query_interval=360,
        sim_seed=1,
        backend_seed=2,
        workload_seed=2020,
    )
    # Warm the per-process scenario cache so neither timing pays the build.
    run_cell(dataclasses.replace(spec, horizon=10))

    start = time.perf_counter()
    with row_interpreter():
        reference_result = run_cell(spec)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast_result = run_cell(spec)
    fast_seconds = time.perf_counter() - start

    assert fast_result.to_dict() == reference_result.to_dict(), (
        "the columnar EDB diverged from the row-interpreter oracle"
    )
    speedup = reference_seconds / max(fast_seconds, 1e-9)

    payload = {
        "benchmark": "edb_fast_path_figure2",
        "strategy": "dp-timer",
        "backend": "oblidb",
        "scenario": "taxi-june",
        "scale": FIG2_SCALE,
        "query_interval": 360,
        "reference": "row_interpreter",
        "reference_seconds": round(reference_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 2),
        "sync_count": fast_result.sync_count,
        "total_update_volume": fast_result.total_update_volume,
    }
    merge_bench_json(OUTPUT_PATH, "edb_fast_path_figure2", payload)

    emit_report(
        "edb_fast_path_figure2",
        "Columnar EDB vs the row-interpreter oracle "
        f"(figure-2-scale dp-timer, scale={FIG2_SCALE})\n\n"
        f"row interpreter : {reference_seconds:8.3f} s\n"
        f"columnar        : {fast_seconds:8.3f} s\n"
        f"speedup         : {speedup:8.2f} x\n"
        f"(results identical: sync_count={fast_result.sync_count}, "
        f"volume={fast_result.total_update_volume})",
    )

    assert speedup >= MIN_EDB_SPEEDUP, (
        f"expected >= {MIN_EDB_SPEEDUP}x EDB speedup, measured {speedup:.2f}x"
    )
