"""Shard-router invariants: partition properties, K=1 byte-identity,
scatter-gather correctness and aggregated leakage.

The contract pinned here:

* **Routing is a partition** -- every record lands on exactly one shard, and
  per-shard table sizes / dummy counts / storage sum to the unsharded ones.
* **K=1 is byte-identical** -- a one-shard router forwards verbatim: update
  history, query results (answer, QET, scan counts), storage and leakage all
  equal the plain back-end's.
* **Scatter-gather is exact** -- gathered count / group-by / join-count
  answers over K shards equal the unsharded answers at every point, and
  every query shape (modulo, windowed and star-join counts too) answers
  like a fleet of row-interpreter shards and like the ground truth, for K
  in {1, 2, 4}, both back-ends and every shard executor.
* **Aggregated leakage** -- ``update_pattern_observables`` over the router's
  history equals the unsharded transcript regardless of K.
* **Gather arithmetic and ledger** -- join-count histogram merges keep
  integer answers exact and noisy floats untruncated, and
  :class:`~repro.edb.router.WallClockStats` counts Setup attempts on the
  same basis as every other protocol surface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.base import UpdateResult
from repro.edb.crypte import CryptEpsilon
from repro.edb.leakage import update_pattern_observables
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, make_dummy_record
from repro.edb.router import ShardRouter
from repro.edb.cost_model import UnsupportedQueryError
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    MultiJoinCountQuery,
    WindowedCountQuery,
)
from repro.query.executor import ground_truth
from repro.query.predicates import RangePredicate
from repro.query.scatter import join_count_from_histograms
from repro.query.sql import parse_query
from repro.testing.reference import row_interpreter

TABLES = ("Alpha", "Beta")
SCHEMAS = {name: Schema(name=name, attributes=("key", "value")) for name in TABLES}


def _record(table: str, key: int, value: int, dummy: bool, time: int) -> Record:
    if dummy:
        return make_dummy_record(SCHEMAS[table], arrival_time=time)
    return Record(
        values={"key": key, "value": value}, arrival_time=time, table=table
    )


def _make_router(n_shards: int, seed: int = 0) -> ShardRouter:
    return ShardRouter(
        [ObliDB() for _ in range(n_shards)],
        route_seed=seed,
    )


# One batch: (table index, key, value, is_dummy) per record.
_batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, len(TABLES) - 1),
            st.integers(0, 5),
            st.integers(0, 40),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=8,
)


def _ingest(edb, batches) -> None:
    edb.setup([])
    for time, batch in enumerate(batches, start=1):
        grouped: dict[str, list[Record]] = {}
        for table_idx, key, value, dummy in batch:
            table = TABLES[table_idx]
            grouped.setdefault(table, []).append(
                _record(table, key, value, dummy, time)
            )
        edb.insert_many(grouped, time=time)


@given(batches=_batches, n_shards=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_routing_is_a_partition(batches, n_shards):
    """Every record lands on exactly one shard; shard sizes sum exactly."""
    plain = ObliDB()
    router = _make_router(n_shards)
    _ingest(plain, batches)
    _ingest(router, batches)

    for table in TABLES:
        per_shard = [shard.table_size(table) for shard in router.shards]
        assert sum(per_shard) == plain.table_size(table)
        per_shard_dummies = [
            shard.table_dummy_count(table) for shard in router.shards
        ]
        assert sum(per_shard_dummies) == plain.table_dummy_count(table)
    assert router.outsourced_count == plain.outsourced_count
    assert router.dummy_count == plain.dummy_count
    assert router.real_count == plain.real_count
    assert router.storage_bytes == plain.storage_bytes

    # The routing function itself is a total, deterministic partition.
    for table in TABLES:
        for ordinal in range(plain.table_size(table)):
            index = router.shard_index(table, ordinal)
            assert 0 <= index < n_shards
            assert index == router.shard_index(table, ordinal)


@given(batches=_batches)
@settings(max_examples=30, deadline=None)
def test_single_shard_router_is_byte_identical(batches):
    """K=1 routing forwards verbatim: all observables equal the plain EDB."""
    plain = ObliDB()
    router = ShardRouter([ObliDB()])
    _ingest(plain, batches)
    _ingest(router, batches)

    assert router.update_history == plain.update_history
    assert router.storage_bytes == plain.storage_bytes
    assert update_pattern_observables(router.update_history) == (
        update_pattern_observables(plain.update_history)
    )

    time = len(batches) + 1
    queries = [
        CountQuery(table="Alpha", predicate=RangePredicate("value", 5, 30), label="Q1"),
        GroupByCountQuery(table="Alpha", group_attribute="key", label="Q2"),
        JoinCountQuery(
            left_table="Alpha",
            right_table="Beta",
            left_attribute="key",
            right_attribute="key",
            label="Q3",
        ),
    ]
    for query in queries:
        expected = plain.query(query, time=time)
        gathered = router.query(query, time=time)
        assert gathered == expected


def test_single_shard_router_tallies_its_partition_metadata():
    """K=1 forwarding still commits each table's routed-record count."""
    router = ShardRouter([ObliDB()])
    (shard,) = router.shards
    router.setup([_record("T", i, i, False, 0) for i in range(5)])
    router.insert_many({"T": [_record("T", 5, 5, False, 1)]}, time=1)
    router.update([_record("T", i, i, False, 2) for i in (6, 7)], time=2)
    assert router.table_shard_counts("T") == (8,) == (shard.table_size("T"),)


@given(batches=_batches, n_shards=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_scatter_gather_answers_equal_unsharded(batches, n_shards):
    """Merged partial aggregates equal the unsharded answers at every point."""
    plain = ObliDB()
    router = _make_router(n_shards)
    plain.setup([])
    router.setup([])
    queries = [
        CountQuery(table="Alpha", predicate=RangePredicate("value", 5, 30), label="Q1"),
        GroupByCountQuery(table="Beta", group_attribute="key", label="Q2"),
        JoinCountQuery(
            left_table="Alpha",
            right_table="Beta",
            left_attribute="key",
            right_attribute="key",
            label="Q3",
        ),
    ]
    for time, batch in enumerate(batches, start=1):
        grouped: dict[str, list[Record]] = {}
        for table_idx, key, value, dummy in batch:
            table = TABLES[table_idx]
            grouped.setdefault(table, []).append(
                _record(table, key, value, dummy, time)
            )
        plain.insert_many(grouped, time=time)
        router.insert_many(grouped, time=time)
        # Answers must agree after *every* batch, not just at the end.
        for query in queries:
            expected = plain.query(query, time=time)
            gathered = router.query(query, time=time)
            assert gathered.answer == expected.answer, query.name
            assert gathered.records_scanned == expected.records_scanned


def test_aggregated_update_observables_independent_of_shard_count():
    """The router-level (time, volume) transcript never depends on K."""
    batches = [
        [(0, k, k * 3 % 17, k % 3 == 0) for k in range(5)],
        [(1, 1, 2, False)],
        [(0, 2, 9, True), (1, 4, 4, False)],
    ]
    transcripts = []
    for n_shards in (1, 2, 3, 4):
        router = _make_router(n_shards)
        _ingest(router, batches)
        transcripts.append(update_pattern_observables(router.update_history))
    assert len(set(transcripts)) == 1
    # Aggregate entries carry the full per-invocation volume.
    assert transcripts[0][1][1] == 5


def test_empty_update_is_one_observable_invocation():
    """An empty γ still round-trips once (through the first shard)."""
    router = _make_router(3)
    router.setup([])
    result = router.update([], time=5)
    assert isinstance(result, UpdateResult)
    assert result.total_added == 0
    assert update_pattern_observables(router.update_history)[-1] == (5, 0)


def test_join_stays_unsupported_on_crypte_shards():
    """The scheme's join rule applies to the original query, not the probes."""
    router = ShardRouter(
        [CryptEpsilon(rng=np.random.default_rng(i)) for i in range(2)]
    )
    router.setup([])
    join = JoinCountQuery(
        left_table="Alpha",
        right_table="Beta",
        left_attribute="key",
        right_attribute="key",
    )
    assert not router.supports(join)
    with pytest.raises(UnsupportedQueryError):
        router.query(join, time=1)


def test_sharded_query_cost_scales_down():
    """The gathered QET is the slowest shard: linear scans get ~K× cheaper."""
    n = 4000
    records = [_record("Alpha", i % 7, i % 50, False, 1) for i in range(n)]
    plain = ObliDB()
    plain.setup([])
    plain.insert_many({"Alpha": records}, time=1)
    router = _make_router(4)
    router.setup([])
    router.insert_many({"Alpha": records}, time=1)

    query = parse_query("SELECT COUNT(*) FROM Alpha WHERE value BETWEEN 0 AND 20")
    unsharded = plain.query(query, time=2)
    gathered = router.query(query, time=2)
    assert gathered.answer == unsharded.answer
    assert gathered.qet_seconds < unsharded.qet_seconds
    # Perfectly balanced shards would give 4x on the linear term; allow
    # hash-imbalance and the fixed per-query base.
    assert unsharded.qet_seconds / gathered.qet_seconds > 2.0


# ---------------------------------------------------------------------------
# Every query shape through the router, against the row interpreter
# ---------------------------------------------------------------------------

SHAPE_TABLES = ("Alpha", "Beta", "Gamma")
SHAPE_SCHEMAS = {
    name: Schema(name=name, attributes=("key", "value")) for name in SHAPE_TABLES
}


def _shape_record(table: str, key: int, value: int, time: int, dummy: bool = False):
    if dummy:
        return make_dummy_record(SHAPE_SCHEMAS[table], arrival_time=time)
    return Record(values={"key": key, "value": value}, arrival_time=time, table=table)


def _shape_queries(include_joins: bool = True) -> list:
    """One query per shape (joins only on back-ends that run them)."""
    queries = [
        CountQuery(
            table="Alpha", predicate=RangePredicate("value", 0, 60), label="q-count"
        ),
        GroupByCountQuery(table="Beta", group_attribute="key", label="q-group"),
        ModCountQuery(table="Alpha", modulus=3, label="q-mod"),
        WindowedCountQuery(table="Beta", window=6, mode="sliding", label="q-slide"),
        WindowedCountQuery(table="Beta", window=8, mode="tumbling", label="q-tumble"),
    ]
    if include_joins:
        queries.append(
            JoinCountQuery(
                left_table="Alpha", right_table="Beta",
                left_attribute="key", right_attribute="key", label="q-join",
            )
        )
        queries.append(
            MultiJoinCountQuery(
                join_tables=SHAPE_TABLES,
                attributes=("key", "key", "key"),
                label="q-star",
            )
        )
    return queries


def _shape_stream(seed: int, ticks: int = 12) -> list:
    """Deterministic per-tick batches over the three tables, with dummies."""
    rng = np.random.default_rng(seed)
    batches = []
    for time in range(1, ticks + 1):
        grouped: dict[str, list] = {}
        for table in SHAPE_TABLES:
            rows = [
                _shape_record(
                    table, int(rng.integers(0, 5)), int(rng.integers(0, 100)), time
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            if rng.random() < 0.3:
                rows.append(_shape_record(table, 0, 0, time, dummy=True))
            if rows:
                grouped[table] = rows
        batches.append((time, grouped))
    return batches


def _shape_router(K: int, cls=ObliDB, executor: str = "serial", rows: bool = False):
    def build():
        shards = [
            cls(rng=np.random.default_rng(index)) if cls is CryptEpsilon else cls()
            for index in range(K)
        ]
        return ShardRouter(shards, route_seed=7, executor=executor)

    if not rows:
        return build()
    with row_interpreter():
        return build()


def _observe(router: ShardRouter, queries, stream) -> tuple:
    """Setup, replay the stream querying every shape after each batch, and
    collect answers (group order included), QET, noise flags and the
    aggregate and per-shard transcripts."""
    initial = [
        _shape_record(table, key % 5, 11 * key, 0)
        for table in SHAPE_TABLES
        for key in range(4)
    ]
    router.setup(initial, time=0)
    observed = []
    try:
        for time, grouped in stream:
            router.insert_many(grouped, time=time)
            for query in queries:
                result = router.query(query, time=time)
                answer = result.answer
                if isinstance(answer, dict):
                    answer = list(answer.items())
                observed.append(
                    (query.name, answer, result.qet_seconds, result.noise_injected)
                )
        transcripts = (
            update_pattern_observables(router.update_history),
            router.per_shard_observables(),
        )
    finally:
        router.close()
    return observed, transcripts


@pytest.mark.parametrize("cls", [ObliDB, CryptEpsilon], ids=["oblidb", "crypte"])
@pytest.mark.parametrize("K", [1, 2, 4])
def test_every_shape_matches_the_row_interpreter_fleet(K, cls):
    """Folded answers (Crypt-epsilon's per-group noise order included), QET,
    noise flags and transcripts equal a fleet of row-interpreter shards."""
    queries = _shape_queries(include_joins=cls is ObliDB)
    stream = _shape_stream(seed=5)
    assert _observe(_shape_router(K, cls), queries, stream) == _observe(
        _shape_router(K, cls, rows=True), queries, stream
    )


def test_crypte_group_noise_order_matches_the_row_interpreter_fleet():
    """Crypt-epsilon draws one noise value per group in first-appearance
    order: folded group-by answers keep that order key for key."""
    query = GroupByCountQuery(table="Beta", group_attribute="key", label="qg")
    stream = _shape_stream(seed=31)
    folded, folded_transcripts = _observe(_shape_router(2, CryptEpsilon), [query], stream)
    rows, rows_transcripts = _observe(
        _shape_router(2, CryptEpsilon, rows=True), [query], stream
    )
    assert folded_transcripts == rows_transcripts
    assert any(len(answer) > 1 for _, answer, _, _ in folded)
    for (_, folded_answer, _, _), (_, rows_answer, _, _) in zip(folded, rows, strict=True):
        # Noisy counts and their group keys match in order, not merely as sets.
        assert folded_answer == rows_answer


@pytest.mark.parametrize("executor", ["processes"])
def test_every_shape_agrees_across_executors(executor):
    """The serial and process fleets agree observable for observable."""
    queries = _shape_queries()
    stream = _shape_stream(seed=11, ticks=8)
    assert _observe(_shape_router(2, executor=executor), queries, stream) == _observe(
        _shape_router(2, executor="serial", rows=True), queries, stream
    )


_shape_batch = st.lists(
    st.tuples(
        st.sampled_from(SHAPE_TABLES),
        st.integers(min_value=0, max_value=4),  # key
        st.integers(min_value=0, max_value=99),  # value
        st.booleans(),  # dummy
    ),
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_shape_batch, min_size=1, max_size=10))
def test_every_shape_answers_the_ground_truth(raw_batches):
    """Random ingests into a two-shard fleet: every shape's gathered answer
    equals the plaintext ground truth of the logical tables after every
    batch."""
    queries = _shape_queries()
    router = _shape_router(2)
    router.setup([], time=0)
    logical: dict[str, list] = {table: [] for table in SHAPE_TABLES}
    for time, raw in enumerate(raw_batches, start=1):
        grouped: dict[str, list] = {}
        for table, key, value, dummy in raw:
            record = _shape_record(table, key, value, time, dummy=dummy)
            grouped.setdefault(table, []).append(record)
            if not dummy:
                logical[table].append(record)
        router.insert_many(grouped, time=time)
        for query in queries:
            assert router.query(query, time=time).answer == ground_truth(
                query, logical, time=time
            ), query.name


# ---------------------------------------------------------------------------
# Routing determinism under failures (staged ordinal commit)
# ---------------------------------------------------------------------------


class _FlakyShard:
    """Wraps a shard; raises on the first ``insert_many`` after arming."""

    def __init__(self, shard):
        self._shard = shard
        self.armed = False

    def __getattr__(self, name):
        return getattr(self._shard, name)

    def insert_many(self, batches, time):
        if self.armed:
            self.armed = False
            raise RuntimeError("injected shard failure")
        return self._shard.insert_many(batches, time=time)


def _routing_snapshot(router: ShardRouter) -> list[dict[str, int]]:
    """Per-shard table sizes: where every record actually landed."""
    return [
        {table: shard.table_size(table) for table in TABLES}
        for shard in router.shards
    ]


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_failed_update_leaves_ordinals_unchanged(executor):
    """Update before Setup fails on every shard -- and must not advance
    routing state: a retry after Setup routes identically to a run that
    never failed (the issue's repro, on every fan-out executor)."""
    records = [_record("Alpha", i % 5, i, False, 1) for i in range(24)] + [
        _record("Beta", i % 3, i, False, 1) for i in range(11)
    ]
    router = ShardRouter([ObliDB() for _ in range(2)], executor=executor)
    clean = ShardRouter([ObliDB() for _ in range(2)], executor=executor)
    try:
        with pytest.raises(RuntimeError):
            router.update(records, time=1)
        assert router._ordinals == {}
        assert router._table_shard_counts == {}

        router.setup([])
        router.update(records, time=1)
        clean.setup([])
        clean.update(records, time=1)
        assert _routing_snapshot(router) == _routing_snapshot(clean)
        assert router._ordinals == clean._ordinals
        assert router.table_shard_counts("Alpha") == clean.table_shard_counts("Alpha")
        assert router.table_shard_counts("Beta") == clean.table_shard_counts("Beta")
    finally:
        router.close()
        clean.close()


def test_mid_scatter_shard_failure_keeps_routing_staged():
    """A shard raising mid-scatter (after others may have ingested) still
    leaves ordinals uncommitted, so the retry partitions identically."""
    flaky = _FlakyShard(ObliDB())
    router = ShardRouter(
        [ObliDB(), flaky], route_seed=0, executor="serial"
    )
    clean = _make_router(2)
    router.setup([])
    clean.setup([])

    first = [_record("Alpha", i % 5, i, False, 1) for i in range(16)]
    second = [_record("Alpha", i % 5, i, False, 2) for i in range(16, 40)]
    router.update(first, time=1)
    clean.update(first, time=1)
    ordinals_before = dict(router._ordinals)
    counts_before = router.table_shard_counts("Alpha")

    flaky.armed = True
    with pytest.raises(RuntimeError, match="injected shard failure"):
        router.update(second, time=2)
    assert router._ordinals == ordinals_before
    assert router.table_shard_counts("Alpha") == counts_before

    # The retry stages the same partition a never-failed router computes.
    router.update(second, time=2)
    clean.update(second, time=2)
    assert router._ordinals == clean._ordinals
    assert router.table_shard_counts("Alpha") == clean.table_shard_counts("Alpha")


def test_failed_setup_leaves_ordinals_unchanged():
    """Setup that raises (second Setup on initialized shards) stays staged."""
    router = _make_router(2)
    records = [_record("Alpha", i % 5, i, False, 0) for i in range(12)]
    router.setup(records, time=0)
    ordinals = dict(router._ordinals)
    with pytest.raises(RuntimeError):
        router.setup(records, time=0)
    assert router._ordinals == ordinals


def test_join_count_histograms_keeps_integer_exactness():
    assert join_count_from_histograms({1: 2, 2: 3}, {1: 4, 3: 9}) == 8
    assert isinstance(join_count_from_histograms({1: 2}, {1: 4}), int)


def test_join_count_histograms_preserves_noisy_floats():
    # A histogram carrying unrounded DP noise must not be truncated: the
    # old int() cast silently biased the gathered count toward zero.
    noisy = join_count_from_histograms({1: 1.7}, {1: 1})
    assert isinstance(noisy, float)
    assert noisy == pytest.approx(1.7)
    assert join_count_from_histograms({1: 0.4, 2: 1.2}, {1: 2, 2: 1}) == pytest.approx(
        2.0
    )


def test_wall_clock_stats_count_setup_attempts():
    router = ShardRouter([ObliDB() for _ in range(2)], route_seed=0, executor="serial")
    records = [_record("Alpha", i % 5, i, False, 0) for i in range(8)]
    router.setup(records, time=0)
    assert router.measured.setup_calls == 1
    # A failed Setup attempt (shards already initialized) still counts --
    # calls/seconds share one attempt basis across the protocol surface.
    with pytest.raises(RuntimeError):
        router.setup(records, time=0)
    assert router.measured.setup_calls == 2
    assert router.measured.setup_seconds > 0.0
    router.measured.reset()
    assert router.measured.setup_calls == 0
    assert router.measured.setup_seconds == 0.0
