"""Delta-maintained views: differential, property, and kill-resume pins.

The views contract, pinned here:

* **Maintained == rescan, byte for byte** -- with views registered, every
  analyst-visible observable (answer, QET, noise flag) and the aggregate +
  per-shard ``(t, |γ|)`` update transcripts are identical whether queries
  are answered from maintained state or forced back onto the rescan path
  via :meth:`set_view_answering`, for K in {1, 2, 4} on both back-ends and
  all three shard executors.  Only the *simulated work ledger* moves: on a
  Figure-2-scale sync loop, rescans cost at least 5x the maintained path.
* **State-class units** -- the telescoping star-join delta, the reduced
  modulo counter, group first-appearance order, the windowed ring buffer's
  eviction horizon and :class:`StaleWindowError`.
* **Fragment parity** -- the analyst-side :class:`IncrementalTruth` and the
  server-side registry cover the identical fragment through one
  :func:`can_maintain` predicate.
* **Views are derived state** -- a snapshot/restore round-trip (single EDB
  and sharded router) rebuilds every view from the restored tables and the
  restored twin replays a continuation bit-identically.
* Satellite: a restored :class:`Deployment` refuses queries over external
  table sources that were not re-registered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.crypte import CryptEpsilon
from repro.edb.leakage import update_pattern_observables
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, make_dummy_record
from repro.edb.router import ShardRouter
from repro.edb.store import (
    restore_backend,
    restore_router,
    snapshot_backend,
    snapshot_router,
)
from repro.fleet.deployment import Deployment
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    MultiJoinCountQuery,
    WindowedCountQuery,
)
from repro.query.executor import ground_truth
from repro.query.incremental import IncrementalTruth
from repro.query.predicates import RangePredicate, TruePredicate
from repro.query.sql import parse_query
from repro.query.views import (
    StaleWindowError,
    ViewRegistry,
    can_maintain,
    maintained_shapes,
    make_state,
)
from repro.simulation.runner import make_sharded_backend

TABLES = ("Alpha", "Beta", "Gamma")
SCHEMAS = {name: Schema(name=name, attributes=("key", "value")) for name in TABLES}


def _record(table: str, key: int, value: int, time: int, dummy: bool = False):
    if dummy:
        return make_dummy_record(SCHEMAS[table], arrival_time=time)
    return Record(values={"key": key, "value": value}, arrival_time=time, table=table)


def _queries(include_joins: bool = True):
    """One query per maintained shape (joins only on exact back-ends)."""
    queries = [
        CountQuery(
            table="Alpha", predicate=RangePredicate("value", 0, 60), label="q-count"
        ),
        GroupByCountQuery(
            table="Beta", group_attribute="key", predicate=TruePredicate(),
            label="q-group",
        ),
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
                join_tables=("Alpha", "Beta", "Gamma"),
                attributes=("key", "key", "key"),
                label="q-star",
            )
        )
    return queries


def _stream(seed: int, ticks: int = 12):
    """Deterministic per-tick batches over the three tables, with dummies."""
    rng = np.random.default_rng(seed)
    batches = []
    for time in range(1, ticks + 1):
        grouped: dict[str, list] = {}
        for table in TABLES:
            rows = []
            for _ in range(int(rng.integers(0, 4))):
                rows.append(
                    _record(
                        table,
                        int(rng.integers(0, 5)),
                        int(rng.integers(0, 100)),
                        time,
                    )
                )
            if rng.random() < 0.3:
                rows.append(_record(table, 0, 0, time, dummy=True))
            if rows:
                grouped[table] = rows
        batches.append((time, grouped))
    return batches


def _initial(seed: int = 99):
    rng = np.random.default_rng(seed)
    return [
        _record(table, int(rng.integers(0, 5)), int(rng.integers(0, 100)), 0)
        for table in TABLES
        for _ in range(4)
    ]


def _router(K: int, cls=ObliDB, executor: str = "serial", seed=0):
    shards = [
        cls(rng=np.random.default_rng(seed + index)) if cls is CryptEpsilon else cls()
        for index in range(K)
    ]
    return ShardRouter(shards, route_seed=7, executor=executor)


def _run(router: ShardRouter, queries, stream, answering: bool):
    """Setup, register views, replay the stream, collect all observables."""
    router.setup(_initial(), time=0)
    for query in queries:
        assert router.register_view(query) is True
        assert router.register_view(query) is False  # idempotent
    router.set_view_answering(answering)
    observed = []
    for time, grouped in stream:
        router.insert_many(grouped, time=time)
        for query in queries:
            result = router.query(query, time=time)
            observed.append(
                (query.name, result.answer, result.qet_seconds, result.noise_injected)
            )
    transcripts = {
        "aggregate": update_pattern_observables(router.update_history),
        "per-shard": tuple(
            update_pattern_observables(shard.update_history)
            for shard in router.shards
        ),
    }
    return observed, transcripts


# ---------------------------------------------------------------------------
# Golden differential: maintained vs forced rescan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [ObliDB, CryptEpsilon], ids=["oblidb", "crypte"])
@pytest.mark.parametrize("K", [1, 2, 4])
def test_maintained_equals_rescan_all_shapes(K, cls):
    """Answers, QET, noise flags and transcripts match byte-for-byte."""
    queries = _queries(include_joins=cls is ObliDB)
    stream = _stream(seed=5)
    on, transcripts_on = _run(_router(K, cls), queries, stream, answering=True)
    off, transcripts_off = _run(_router(K, cls), queries, stream, answering=False)
    assert on == off
    assert transcripts_on == transcripts_off


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_maintained_equals_rescan_across_executors(executor):
    """The serial, threaded and process fleets agree observable-for-observable."""
    queries = _queries()
    stream = _stream(seed=11, ticks=8)
    serial = _run(_router(2, executor="serial"), queries, stream, answering=True)
    other_on = _run(_router(2, executor=executor), queries, stream, answering=True)
    other_off = _run(_router(2, executor=executor), queries, stream, answering=False)
    assert serial == other_on == other_off


def test_work_ledger_moves_but_observables_do_not():
    """Maintained answering does measurably less simulated query work."""
    queries = _queries()
    stream = _stream(seed=21)
    fast = _router(2)
    slow = _router(2)
    on, _ = _run(fast, queries, stream, answering=True)
    off, _ = _run(slow, queries, stream, answering=False)
    assert on == off
    # Every query answered from view state on every shard (joins answer one
    # maintained histogram per scatter probe).
    probes = {
        "q-join": 2,
        "q-star": 3,
    }
    expected_per_tick = sum(2 * probes.get(q.name, 1) for q in queries)
    assert fast.maintained_query_count == len(stream) * expected_per_tick
    assert slow.maintained_query_count == 0
    # Both runs pay identical view upkeep; only query-side work differs.
    assert fast.view_maintenance_seconds == pytest.approx(
        slow.view_maintenance_seconds
    )
    assert fast.view_maintenance_seconds > 0.0
    assert fast.query_work_seconds < slow.query_work_seconds
    assert fast.simulated_work_seconds < slow.simulated_work_seconds


def test_sync_loop_maintained_work_floor():
    """A Figure-2-scale sync loop (120 syncs of 40 rows, the paper-style
    queries plus a windowed count after every sync, K=2): rescans pay at
    least 5x the maintained path's total simulated work (query work plus
    view upkeep).  Cost-model arithmetic, so the floor is deterministic."""
    queries = [
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
    work = {}
    for answering in (True, False):
        router = make_sharded_backend("oblidb", 2, seed=11, shard_executor="serial")()
        router.setup([])
        for query in queries:
            router.register_view(query)
        router.set_view_answering(answering)
        rng = np.random.default_rng(42)
        for sync in range(1, 121):
            rows = [
                Record(
                    table="Events",
                    values={
                        "sensor_id": int(rng.integers(1, 10)),
                        "value": int(rng.integers(0, 100)),
                    },
                    arrival_time=sync,
                )
                for _ in range(40)
            ]
            router.insert_many({"Events": rows}, time=sync)
            for query in queries:
                router.query(query, time=sync)
        work[answering] = router.simulated_work_seconds
    assert work[False] >= 5.0 * work[True]


def test_crypte_noise_stream_untouched_by_views():
    """Per-group noise draw order (first-appearance) survives maintenance."""
    query = GroupByCountQuery(
        table="Beta", group_attribute="key", predicate=TruePredicate(), label="qg"
    )
    stream = _stream(seed=31)
    on, _ = _run(_router(2, CryptEpsilon), [query], stream, answering=True)
    off, _ = _run(_router(2, CryptEpsilon), [query], stream, answering=False)
    assert on == off
    # Group keys (noise-draw order) match exactly, not merely as sets.
    for (_, answer_on, _, _), (_, answer_off, _, _) in zip(on, off):
        assert list(answer_on) == list(answer_off)


# ---------------------------------------------------------------------------
# State-class units
# ---------------------------------------------------------------------------


def test_mod_count_state_stays_reduced():
    query = ModCountQuery(table="Alpha", modulus=3, label="m")
    state = make_state(query)
    for index in range(8):
        state.insert("Alpha", _record("Alpha", 0, index, index))
    assert state.answer() == 8 % 3
    assert state._count < 3  # O(1) state: the counter never grows unbounded


def test_group_state_preserves_first_appearance_order():
    query = GroupByCountQuery(
        table="Alpha", group_attribute="key", predicate=TruePredicate(), label="g"
    )
    state = make_state(query)
    for key in (3, 1, 3, 2, 1, 4):
        state.insert("Alpha", _record("Alpha", key, 0, 0))
    assert list(state.answer()) == [3, 1, 2, 4]
    assert state.answer() == {3: 2, 1: 2, 2: 1, 4: 1}


def test_join_state_counts_self_pairing_once():
    query = JoinCountQuery(
        left_table="Alpha", right_table="Alpha",
        left_attribute="key", right_attribute="key", label="self-join",
    )
    state = make_state(query)
    state.insert("Alpha", _record("Alpha", 7, 0, 0))
    assert state.answer() == 1  # the record joins with itself
    state.insert("Alpha", _record("Alpha", 7, 1, 1))
    assert state.answer() == 4  # 2x2 pairs on key 7


def test_multi_join_telescoping_delta_matches_brute_force():
    query = MultiJoinCountQuery(
        join_tables=("Alpha", "Beta", "Gamma"),
        attributes=("key", "key", "key"),
        label="star",
    )
    state = make_state(query)
    rng = np.random.default_rng(3)
    tables: dict[str, list] = {table: [] for table in TABLES}
    for step in range(60):
        table = TABLES[int(rng.integers(0, 3))]
        record = _record(table, int(rng.integers(0, 4)), step, step)
        tables[table].append(record)
        state.insert(table, record)
        brute = sum(
            1
            for a in tables["Alpha"]
            for b in tables["Beta"]
            for c in tables["Gamma"]
            if a.get("key") == b.get("key") == c.get("key")
        )
        assert state.answer() == brute


def test_windowed_state_ring_eviction_and_staleness():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    state = make_state(query)
    for tick in range(1, 11):
        state.insert("Alpha", _record("Alpha", 0, 0, tick))
    # Exact at (or after) the newest tick: window (6, 10] holds 4 arrivals.
    assert state.answer(10) == 4
    assert state.answer(12) == 2  # (8, 12] holds ticks 9, 10
    with pytest.raises(StaleWindowError):
        state.answer(5)  # behind the retained horizon
    with pytest.raises(ValueError, match="needs a query time"):
        state.answer(None)


def test_windowed_state_ignores_stale_out_of_order_arrivals():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    state = make_state(query)
    state.insert("Alpha", _record("Alpha", 0, 0, 9))
    state.insert("Alpha", _record("Alpha", 0, 0, 5))  # slot collision, older
    assert state.answer(9) == 1


def test_stale_window_fallback_is_transparent_on_the_edb():
    edb = ObliDB()
    query = WindowedCountQuery(table="Alpha", window=3, mode="sliding", label="w")
    edb.setup([_record("Alpha", 0, 0, 0)], time=0)
    edb.register_view(query)
    for time in range(1, 9):
        edb.update([_record("Alpha", 0, 0, time)], time=time)
    fresh = edb.query(query, time=8)
    assert fresh.answer == 3
    # A stale window silently falls back to the (identical) rescan...
    stale = edb.query(query, time=4)
    assert stale.answer == 3  # arrivals 2, 3, 4
    # ...unless the maintained executor was forced, which surfaces the error.
    with pytest.raises(StaleWindowError):
        edb.query(query, time=4, executor="maintained")


# ---------------------------------------------------------------------------
# Fragment parity + registration guards
# ---------------------------------------------------------------------------


def test_incremental_truth_and_registry_cover_identical_fragment():
    for query in _queries():
        assert can_maintain(query)
        assert IncrementalTruth.can_maintain(query)
        assert ViewRegistry.can_maintain(query)
    assert set(type(q) for q in _queries()) == set(maintained_shapes())

    class Uncovered(CountQuery):
        """A subclass is outside the fragment: no registered delta rule."""

    odd = Uncovered(table="Alpha", label="odd")
    assert not can_maintain(odd)
    assert not IncrementalTruth.can_maintain(odd)
    with pytest.raises(TypeError, match="not delta-maintainable"):
        make_state(odd)
    edb = ObliDB()
    edb.setup([], time=0)
    with pytest.raises(TypeError, match="not delta-maintainable"):
        edb.register_view(odd)


def test_register_view_respects_backend_support():
    """Crypt-epsilon cannot run joins, so it cannot maintain join views."""
    from repro.edb.base import UnsupportedQueryError

    edb = CryptEpsilon(rng=np.random.default_rng(0))
    edb.setup([], time=0)
    join = JoinCountQuery(
        left_table="Alpha", right_table="Beta",
        left_attribute="key", right_attribute="key", label="j",
    )
    with pytest.raises(UnsupportedQueryError):
        edb.register_view(join)
    router = _router(2, CryptEpsilon)
    router.setup([], time=0)
    with pytest.raises(UnsupportedQueryError):
        router.register_view(join)


def test_forcing_maintained_executor_without_view_raises():
    edb = ObliDB()
    edb.setup([_record("Alpha", 1, 1, 0)], time=0)
    query = CountQuery(table="Alpha", label="q")
    with pytest.raises(ValueError, match="no registered view"):
        edb.query(query, executor="maintained")
    with pytest.raises(ValueError, match="query executor"):
        edb.query(query, executor="rows")


# ---------------------------------------------------------------------------
# Hypothesis: random interleavings of ingest and queries
# ---------------------------------------------------------------------------


_batch = st.lists(
    st.tuples(
        st.sampled_from(TABLES),
        st.integers(min_value=0, max_value=4),  # key
        st.integers(min_value=0, max_value=99),  # value
        st.booleans(),  # dummy
    ),
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_batch, min_size=1, max_size=10))
def test_interleaving_property(raw_batches):
    """Maintained answers equal forced rescans *and* plaintext ground truth."""
    queries = _queries()
    routers = {
        answering: _router(2, seed=17) for answering in (True, False)
    }
    for router in routers.values():
        router.setup([], time=0)
        for query in queries:
            router.register_view(query)
    routers[False].set_view_answering(False)
    logical: dict[str, list] = {table: [] for table in TABLES}
    for time, raw in enumerate(raw_batches, start=1):
        grouped: dict[str, list] = {}
        for table, key, value, dummy in raw:
            record = _record(table, key, value, time, dummy=dummy)
            grouped.setdefault(table, []).append(record)
            if not dummy:
                logical[table].append(record)
        for router in routers.values():
            router.insert_many(grouped, time=time)
        for query in queries:
            truth = ground_truth(query, logical, time=time)
            maintained = routers[True].query(query, time=time)
            rescanned = routers[False].query(query, time=time)
            assert maintained.answer == rescanned.answer == truth
            assert maintained.qet_seconds == rescanned.qet_seconds


# ---------------------------------------------------------------------------
# Kill-resume: views are derived state, rebuilt deterministically
# ---------------------------------------------------------------------------


def _continue(edb_or_router, queries, stream):
    observed = []
    for time, grouped in stream:
        edb_or_router.insert_many(grouped, time=time)
        for query in queries:
            result = edb_or_router.query(query, time=time)
            observed.append((query.name, result.answer, result.qet_seconds))
    return observed


def test_single_edb_snapshot_rebuilds_views():
    queries = _queries()
    stream = _stream(seed=41)
    prefix, suffix = stream[:6], stream[6:]
    edb = ObliDB()
    edb.setup(_initial(), time=0)
    for query in queries:
        edb.register_view(query)
    for time, grouped in prefix:
        edb.insert_many(grouped, time=time)
    restored = restore_backend(snapshot_backend(edb))
    assert restored.registered_views == edb.registered_views
    assert restored.view_answering is True
    assert _continue(restored, queries, suffix) == _continue(edb, queries, suffix)
    assert restored.maintained_query_count > 0


def test_router_snapshot_rebuilds_views_and_answering_flag():
    queries = _queries()
    stream = _stream(seed=43)
    prefix, suffix = stream[:6], stream[6:]
    router = _router(2)
    router.setup(_initial(), time=0)
    for query in queries:
        router.register_view(query)
    for time, grouped in prefix:
        router.insert_many(grouped, time=time)
    restored = restore_router(snapshot_router(router))
    assert restored.registered_views == router.registered_views
    assert _continue(restored, queries, suffix) == _continue(router, queries, suffix)
    assert restored.maintained_query_count > 0

    # A disabled answering flag survives the round trip on router and shards.
    router.set_view_answering(False)
    toggled = restore_router(snapshot_router(router))
    assert toggled.view_answering is False
    before = toggled.maintained_query_count
    toggled.query(queries[0], time=99)
    assert toggled.maintained_query_count == before


# ---------------------------------------------------------------------------
# Satellite: restored deployments guard unregistered table sources
# ---------------------------------------------------------------------------


def test_restored_deployment_guards_pending_table_sources(tmp_path):
    sibling_rows = [_record("Beta", key, key, 0) for key in range(3)]
    deployment = Deployment.build(
        SCHEMAS["Alpha"], ObliDB(), seed=1
    )
    deployment.register_table_source("Beta", lambda: sibling_rows)
    deployment.start()
    deployment.save(tmp_path)

    restored = Deployment.restore(tmp_path)
    join_sql = (
        "SELECT COUNT(*) FROM Alpha INNER JOIN Beta ON Alpha.key = Beta.key"
    )
    with pytest.raises(RuntimeError, match="not re-registered after"):
        restored.query(join_sql)
    # Queries over owned tables are unaffected by the pending source.
    restored.query("SELECT COUNT(*) FROM Alpha")
    # Re-registering the source lifts the guard.
    restored.register_table_source("Beta", lambda: sibling_rows)
    restored.query(join_sql)
