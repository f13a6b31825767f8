"""Concurrent scatter-gather equivalence: worker processes vs the loop.

The :class:`~repro.edb.router.ShardRouter` claims its executor is purely a
wall-clock knob: with ``executor="processes"`` the per-shard Setup / Update
/ Query work runs concurrently inside persistent per-shard worker processes,
yet every observable -- gathered answers, the aggregated and per-shard
``(t, |γ|)`` transcripts, per-shard sizes, storage and the simulated QET --
is byte-identical to ``executor="serial"`` at a fixed seed.  This suite pins
that claim for K ∈ {1, 2, 4}, including under mid-query shard-size skew
(heavily unbalanced per-table batches arriving between query checkpoints, so
some shards are busy while others idle) and for every query shape the
scatter plan supports.  Each shard's EDB *and RNG stream* live in a forked
worker, so identical transcripts prove the noise streams and ingest order
survived the process boundary untouched.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.edb.crypte import CryptEpsilon
from repro.edb.leakage import update_pattern_observables
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, make_dummy_record
from repro.edb.router import ShardRouter, resolve_shard_executor
from repro.query.ast import CountQuery, GroupByCountQuery, JoinCountQuery
from repro.query.predicates import RangePredicate
from repro.simulation.runner import CellSpec, run_cell

TABLES = ("Alpha", "Beta")
SCHEMAS = {name: Schema(name=name, attributes=("key", "value")) for name in TABLES}
SHARD_COUNTS = (1, 2, 4)

QUERIES = [
    CountQuery(table="Alpha", predicate=RangePredicate("value", 5, 60), label="Q1"),
    GroupByCountQuery(table="Alpha", group_attribute="key", label="Q2"),
    GroupByCountQuery(
        table="Beta",
        group_attribute="key",
        predicate=RangePredicate("value", 0, 40),
        label="Q2b",
    ),
    JoinCountQuery(
        left_table="Alpha",
        right_table="Beta",
        left_attribute="key",
        right_attribute="key",
        label="Q3",
    ),
]


def _shard(backend, seed: int):
    """One shard; only Crypt-epsilon draws randomness (its answer noise)."""
    return backend(rng=np.random.default_rng(seed)) if backend is CryptEpsilon else backend()


def _make_router(backend, n_shards: int, executor: str, seed: int = 5) -> ShardRouter:
    return ShardRouter(
        [_shard(backend, seed + index) for index in range(n_shards)],
        route_seed=seed,
        executor=executor,
    )


def _skewed_batches(seed: int = 11, rounds: int = 6) -> list[dict[str, list[Record]]]:
    """Per-round table batches with deliberately skewed sizes.

    Round sizes swing between tiny (1 record) and heavy (hundreds into a
    single table), so at every query checkpoint the shards are unevenly
    loaded and an executor bug that reordered merges or cross-talked shard
    state would surface as a diverging answer or transcript.
    """
    rng = np.random.default_rng(seed)
    batches = []
    for round_index in range(rounds):
        heavy = TABLES[round_index % 2]
        light = TABLES[(round_index + 1) % 2]
        heavy_n = int(rng.integers(150, 400)) if round_index % 3 else 1
        light_n = int(rng.integers(0, 4))
        batch: dict[str, list[Record]] = {}
        for table, n in ((heavy, heavy_n), (light, light_n)):
            rows = []
            for i in range(n):
                if rng.random() < 0.15:
                    rows.append(
                        make_dummy_record(SCHEMAS[table], arrival_time=round_index + 1)
                    )
                else:
                    rows.append(
                        Record(
                            values={
                                "key": int(rng.integers(0, 9)),
                                "value": int(rng.integers(0, 100)),
                            },
                            arrival_time=round_index + 1,
                            table=table,
                        )
                    )
            if rows:
                batch[table] = rows
        batches.append(batch)
    return batches


def _drive(router: ShardRouter, batches) -> tuple[list, list]:
    """Ingest the skewed batches, querying after every round."""
    router.setup([])
    answers = []
    for time, batch in enumerate(batches, start=1):
        router.insert_many(batch, time=time)
        for query in QUERIES:
            if not router.supports(query):
                continue
            result = router.query(query, time=time)
            answers.append(
                (
                    query.name,
                    time,
                    result.answer,
                    result.qet_seconds,
                    result.records_scanned,
                    result.noise_injected,
                )
            )
    transcripts = [
        update_pattern_observables(router.update_history),
        router.per_shard_observables(),
    ]
    return answers, transcripts


@pytest.mark.parametrize("executor", ["processes"])
@pytest.mark.parametrize("backend", [ObliDB, CryptEpsilon], ids=["oblidb", "crypte"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_concurrent_scatter_gather_equals_sequential(executor, backend, n_shards):
    """Answers and (t, |γ|) transcripts identical across executors.

    The per-shard state assertions below run *through the worker proxies*
    (pipe round-trips), pinning that the remote observable surface matches
    the in-process one exactly.
    """
    batches = _skewed_batches()
    concurrent = _make_router(backend, n_shards, executor)
    serial = _make_router(backend, n_shards, "serial")
    try:
        concurrent_answers, concurrent_transcripts = _drive(concurrent, batches)
        serial_answers, serial_transcripts = _drive(serial, batches)

        assert concurrent.shard_executor == executor
        assert serial.shard_executor == "serial"
        assert concurrent_answers == serial_answers
        assert concurrent_transcripts == serial_transcripts
        # Per-shard state is identical too, not just the merged surface.
        for left, right in zip(concurrent.shards, serial.shards):
            assert left.update_history == right.update_history
            for table in TABLES:
                assert left.table_size(table) == right.table_size(table)
                assert left.table_dummy_count(table) == right.table_dummy_count(table)
        assert concurrent.storage_bytes == serial.storage_bytes
    finally:
        concurrent.close()
        serial.close()


def test_measured_wall_clock_is_recorded_without_touching_observables():
    """The measured ledger fills in while simulated QET stays model-derived."""
    batches = _skewed_batches(seed=3, rounds=3)
    router = _make_router(ObliDB, 2, "serial")
    try:
        answers, _ = _drive(router, batches)
    finally:
        router.close()
    assert router.measured.update_calls == len(batches)
    assert router.measured.query_calls == sum(
        1 for _ in batches for q in QUERIES if router.supports(q)
    )
    assert router.measured.query_seconds > 0.0
    assert router.measured.mean_query_seconds > 0.0
    assert router.measured.setup_seconds > 0.0
    # Simulated QETs in the answers are cost-model outputs: strictly positive
    # and identical across repeated runs (checked by the equivalence test),
    # not wall-clock readings.
    assert all(entry[3] > 0.0 for entry in answers)
    router.measured.reset()
    assert router.measured.query_calls == 0


def test_fleet_cell_results_identical_across_executors():
    """A full fleet grid cell (2 owners x 4 shards) is executor independent."""
    base = CellSpec(
        strategy="dp-timer",
        backend="oblidb",
        scenario="million-users",
        scale=0.05,
        query_interval=400,
        n_owners=2,
        n_shards=4,
        sim_seed=13,
        backend_seed=1,
        workload_seed=7,
    )
    payloads = {}
    for executor in ("serial", "processes"):
        result = run_cell(dataclasses.replace(base, shard_executor=executor))
        payload = result.to_dict()
        # The spec parameters record which executor ran; everything the run
        # *observed* must match.
        payload["parameters"].pop("shard_executor", None)
        payloads[executor] = payload
    assert payloads["processes"] == payloads["serial"]


def test_unknown_executor_rejected():
    with pytest.raises(ValueError):
        resolve_shard_executor("gpu")
    with pytest.raises(ValueError):
        ShardRouter([ObliDB()], executor="gpu")
    with pytest.raises(ValueError):
        CellSpec(strategy="dp-timer", shard_executor="gpu")


def test_threads_executor_is_gone_and_serial_is_the_default():
    """The thread-pool fan-out lost to the plain loop and was deleted: its
    name is refused, and every default is the loop."""
    with pytest.raises(ValueError, match="'serial', 'processes'"):
        resolve_shard_executor("threads")
    with pytest.raises(ValueError):
        CellSpec(strategy="dp-timer", shard_executor="threads")
    assert CellSpec(strategy="dp-timer").shard_executor == "serial"
    router = ShardRouter([ObliDB(), ObliDB()])
    try:
        assert router.shard_executor == "serial"
    finally:
        router.close()
