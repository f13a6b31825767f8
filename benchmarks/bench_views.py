"""Delta-maintained views benchmark: measured wall clock, maintained vs rescan.

A Figure-2-scale synchronization loop (every sync ingests a batch and the
analyst re-runs the paper-style test queries) builds two identical K=2
ObliDB routers: one answering from registered delta-maintained views, the
other forced onto the rescan path via :meth:`set_view_answering`.  Every
analyst-visible observable -- answer, QET observable, noise flag -- and the
aggregate + per-shard ``(t,|γ|)`` transcripts must be byte-identical along
the way.  The same queries are then repeated against the final database
state, and ``BENCH_views.json`` records the real wall clock per query with
views answering vs rescanning.  The measured floor
(``REPRO_BENCH_MIN_VIEWS_MEASURED_SPEEDUP``, default 1.5x) is enforced on
>= 2 usable CPUs and recorded as ``"skipped_single_cpu"`` otherwise --
single-CPU containers still record the honest numbers plus
``affinity_cpus`` for context.  The simulated-work floor of the same loop
is cost-model arithmetic and lives in ``tests/test_views.py``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit_report, merge_bench_json, usable_cpus
from repro.edb.leakage import update_pattern_observables
from repro.edb.records import Record
from repro.query.ast import WindowedCountQuery
from repro.query.sql import parse_query
from repro.simulation.runner import make_sharded_backend

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_views.json"
#: Measured wall-clock floor per query (gated on >= 2 CPUs).
MIN_MEASURED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_VIEWS_MEASURED_SPEEDUP", "1.5")
)
SYNCS = int(os.environ.get("REPRO_BENCH_VIEWS_SYNCS", "120"))
ROWS_PER_SYNC = int(os.environ.get("REPRO_BENCH_VIEWS_ROWS", "40"))
MEASURED_REPEATS = int(os.environ.get("REPRO_BENCH_VIEWS_REPEATS", "30"))
N_SHARDS = 2


def _queries():
    """Paper-style test queries plus a windowed count (all maintainable)."""
    return [
        parse_query(
            "SELECT COUNT(*) FROM Events WHERE value BETWEEN 25 AND 75",
            label="Q1",
        ),
        parse_query(
            "SELECT sensor_id, COUNT(*) AS Cnt FROM Events GROUP BY sensor_id",
            label="Q2",
        ),
        WindowedCountQuery(table="Events", window=16, mode="sliding", label="QW"),
    ]


def _batch(rng: np.random.Generator, sync: int) -> dict[str, list[Record]]:
    rows = [
        Record(
            table="Events",
            values={
                "sensor_id": int(rng.integers(1, 10)),
                "value": int(rng.integers(0, 100)),
            },
            arrival_time=sync,
        )
        for _ in range(ROWS_PER_SYNC)
    ]
    return {"Events": rows}


def _build_router(answering: bool):
    router = make_sharded_backend("oblidb", N_SHARDS, seed=11)()
    router.setup([])
    for query in _queries():
        router.register_view(query)
    router.set_view_answering(answering)
    return router


def test_sync_loop_wall_clock(bench_settings):
    queries = _queries()
    views = _build_router(answering=True)
    rescan = _build_router(answering=False)
    try:
        # -- Figure-2-scale sync loop: ingest, then query, every sync --------
        observed = {True: [], False: []}
        streams = {
            True: np.random.default_rng(42),
            False: np.random.default_rng(42),
        }
        for sync in range(1, SYNCS + 1):
            for answering, router in ((True, views), (False, rescan)):
                router.insert_many(_batch(streams[answering], sync), time=sync)
                for query in queries:
                    result = router.query(query, time=sync)
                    observed[answering].append(
                        (query.name, result.answer, result.qet_seconds,
                         result.noise_injected)
                    )
        assert observed[True] == observed[False], (
            "maintained answers diverged from the rescan oracle"
        )
        transcripts = {
            answering: (
                update_pattern_observables(router.update_history),
                tuple(
                    update_pattern_observables(shard.update_history)
                    for shard in router.shards
                ),
            )
            for answering, router in ((True, views), (False, rescan))
        }
        assert transcripts[True] == transcripts[False], (
            "views changed an update-pattern transcript"
        )
        assert views.maintained_query_count > 0
        assert rescan.maintained_query_count == 0

        # -- measured wall clock against the final state ---------------------
        def _measure(router) -> float:
            start = time.perf_counter()
            for repeat in range(MEASURED_REPEATS):
                for query in queries:
                    router.query(query, time=SYNCS)
            return time.perf_counter() - start

        wall_off = _measure(rescan)
        wall_on = _measure(views)
        measured_speedup = wall_off / max(wall_on, 1e-9)
        cpus = usable_cpus()
        floor = "enforced" if cpus >= 2 else "skipped_single_cpu"
        if floor == "enforced":
            assert measured_speedup >= MIN_MEASURED_SPEEDUP, (
                f"measured views speedup {measured_speedup:.2f}x below the "
                f"{MIN_MEASURED_SPEEDUP}x floor"
            )
        per_query = MEASURED_REPEATS * len(queries)
        measured_payload = {
            "benchmark": "views_measured_wall_clock",
            "backend": "oblidb",
            "n_shards": N_SHARDS,
            "syncs": SYNCS,
            "rows_per_sync": ROWS_PER_SYNC,
            "queries": [query.name for query in queries],
            "repeats": MEASURED_REPEATS,
            "affinity_cpus": cpus,
            "wall_seconds_rescan": round(wall_off, 4),
            "wall_seconds_maintained": round(wall_on, 4),
            "seconds_per_query_rescan": round(wall_off / per_query, 6),
            "seconds_per_query_maintained": round(wall_on / per_query, 6),
            "measured_speedup": round(measured_speedup, 2),
            "min_measured_speedup": MIN_MEASURED_SPEEDUP,
            "measured_floor": floor,
        }
        merge_bench_json(OUTPUT_PATH, "measured_wall_clock", measured_payload)

        emit_report(
            "views_sync_loop",
            f"Delta-maintained views over {N_SHARDS} ObliDB shards, "
            f"{SYNCS} syncs x {ROWS_PER_SYNC} rows "
            f"({SYNCS * ROWS_PER_SYNC} final rows), queries "
            f"{[query.name for query in queries]}\n\n"
            f"observables                identical (answers/QET/noise + "
            f"transcripts)\n"
            f"measured wall clock/query  "
            f"{wall_off / per_query * 1e3:.3f} ms -> "
            f"{wall_on / per_query * 1e3:.3f} ms "
            f"({measured_speedup:.2f}x, floor {floor})",
        )
    finally:
        views.close()
        rescan.close()
