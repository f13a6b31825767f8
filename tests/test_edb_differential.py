"""Differential tests: the columnar EDB versus the row-interpreter oracle.

Every EDB answers queries through the vectorized columnar operators, which
claim to be *observationally identical* to the original row-at-a-time
interpreter: at a fixed seed, an EDB built under
:func:`repro.testing.reference.row_interpreter` must produce bit-identical
sync times, update volumes, query answers and update-pattern leakage.  This
suite enforces that claim three ways:

1. every golden-trace cell (strategy x back-end) is replayed on both
   executors and the full :class:`RunResult` payloads are compared field by
   field;
2. engine runs with captured EDB instances compare the raw protocol
   transcripts -- ``update_history`` and its canonical leakage projection
   (:func:`repro.edb.leakage.update_pattern_observables`) -- plus the
   post-run query protocol (answers, simulated QET, records scanned);
3. direct executor-level checks compare every supported query shape,
   including the dict *iteration order* of grouped answers, which the L-DP
   back-end's per-group noise draws depend on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.crypte import CryptEpsilon
from repro.edb.crypto import CIPHERTEXT_SIZE, CiphertextArena, RecordCipher
from repro.edb.leakage import update_pattern_observables
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    WindowedCountQuery,
)
from repro.query.columnar import ColumnarExecutor, _ColumnarTable
from repro.query.executor import PlaintextExecutor
from repro.query.predicates import (
    EqualityPredicate,
    NotPredicate,
    OrPredicate,
    RangePredicate,
)
from repro.simulation.runner import CellSpec, run_cell
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.testing.reference import row_interpreter
from repro.workload.scenarios import build_scenario, scenario_queries

from test_golden_traces import BACKENDS, STRATEGIES, golden_spec

EDB_CLASSES = {"oblidb": ObliDB, "crypte": CryptEpsilon}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fast_and_reference_runs_are_bit_identical(strategy, backend):
    """Replaying one golden cell on both executors yields equal RunResults."""
    spec = golden_spec(strategy, backend)
    fast = run_cell(spec)
    with row_interpreter():
        reference = run_cell(spec)
    assert fast.to_dict() == reference.to_dict(), (
        f"columnar/row-interpreter divergence for {strategy}/{backend}"
    )


def _run_with_captured_edb(
    backend: str, strategy: str, simulate_encryption: bool = False
):
    """One small taxi run returning (RunResult, the EDB instance used)."""
    created = []
    edb_class = EDB_CLASSES[backend]

    def factory():
        noise = {"rng": np.random.default_rng(7)} if edb_class is CryptEpsilon else {}
        edb = edb_class(simulate_encryption=simulate_encryption, **noise)
        created.append(edb)
        return edb

    workloads = build_scenario("taxi-june", seed=2020, scale=0.01)
    simulation = Simulation(
        edb_factory=factory,
        workloads=workloads,
        queries=list(scenario_queries("taxi-june")),
        config=SimulationConfig(strategy=strategy, query_interval=120, seed=3),
    )
    result = simulation.run()
    assert len(created) == 1
    return result, created[0]


@pytest.mark.parametrize("strategy", ["dp-timer", "dp-ant"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_protocol_transcripts_match(strategy, backend):
    """Update history, leakage observables and query protocol agree."""
    fast_result, fast_edb = _run_with_captured_edb(backend, strategy)
    with row_interpreter():
        ref_result, ref_edb = _run_with_captured_edb(backend, strategy)

    assert type(fast_edb._executor) is ColumnarExecutor
    assert type(ref_edb._executor) is PlaintextExecutor
    # Sync times and update volumes: the raw Setup/Update transcript.
    assert fast_edb.update_history == ref_edb.update_history
    # ... and its canonical leakage projection.
    assert update_pattern_observables(fast_edb.update_history) == (
        update_pattern_observables(ref_edb.update_history)
    )
    assert fast_edb.leakage_profile == ref_edb.leakage_profile
    assert fast_edb.outsourced_count == ref_edb.outsourced_count
    assert fast_edb.dummy_count == ref_edb.dummy_count
    assert fast_result.to_dict() == ref_result.to_dict()

    # The query protocol itself: answers, simulated QET, scan counts.  The
    # L-DP back-end draws per-answer noise, so its RNGs are re-seeded to a
    # common point before the comparison queries.
    fast_edb._rng = np.random.default_rng(99)
    ref_edb._rng = np.random.default_rng(99)
    horizon = fast_result.parameters["horizon"]
    for query in scenario_queries("taxi-june"):
        if not fast_edb.supports(query):
            assert not ref_edb.supports(query)
            continue
        fast_answer = fast_edb.query(query, time=horizon)
        ref_answer = ref_edb.query(query, time=horizon)
        assert fast_answer == ref_answer, query.name


# ---------------------------------------------------------------------------
# Arena ciphertexts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_arena_ciphertexts_round_trip_and_transcripts_match(backend):
    """Arena ciphertexts decrypt to the EDB's own logical rows, in order.

    With encryption simulated, the columnar run and the row-interpreter run
    must agree on result payloads, protocol transcripts and handle
    sequences (the cipher's ``os.urandom`` nonces never feed an
    observable), and decrypting every stored ciphertext with the EDB's own
    cipher must give back exactly the rows it ingested -- values, arrival
    times, dummy flags -- in ingest order.
    """
    fast_result, fast_edb = _run_with_captured_edb(
        backend, "dp-timer", simulate_encryption=True
    )
    with row_interpreter():
        ref_result, ref_edb = _run_with_captured_edb(
            backend, "dp-timer", simulate_encryption=True
        )

    assert fast_result.to_dict() == ref_result.to_dict()
    assert fast_edb.update_history == ref_edb.update_history
    assert update_pattern_observables(fast_edb.update_history) == (
        update_pattern_observables(ref_edb.update_history)
    )

    def logical(rows):
        return [(dict(r.values), r.arrival_time, r.is_dummy, r.table) for r in rows]

    table = "YellowCab"
    ciphertexts = fast_edb.ciphertexts(table)
    handles = [c.handle for c in ciphertexts]
    assert len(ciphertexts) == fast_edb.table_size(table) > 0
    assert handles == sorted(set(handles))
    assert handles == [c.handle for c in ref_edb.ciphertexts(table)]
    assert {len(bytes(c.ciphertext)) for c in ciphertexts} == {CIPHERTEXT_SIZE}
    assert logical(fast_edb.cipher.decrypt_many(ciphertexts)) == logical(
        fast_edb._executor.tables[table]
    )
    # The single-record decrypt reads arena views too.
    assert (
        fast_edb.cipher.decrypt(ciphertexts[0]).values
        == fast_edb.cipher.decrypt_many([ciphertexts[0]])[0].values
    )


@given(
    batch_sizes=st.lists(st.integers(1, 17), min_size=1, max_size=8),
    initial_capacity=st.integers(1, 8),
    compact_after=st.sets(st.integers(0, 7)),
)
@settings(max_examples=40, deadline=None)
def test_arena_growth_and_compaction_never_change_handles_or_contents(
    batch_sizes, initial_capacity, compact_after
):
    """Growth and compaction are invisible: handles and decrypts invariant.

    Batches are appended through the real bulk-encrypt path into a tiny arena
    (forcing repeated capacity doubling), with compaction interleaved at
    arbitrary points; previously-taken :class:`ArenaRecord` views must keep
    decrypting to the same records with the same handles throughout.
    """
    cipher = RecordCipher(key=b"h" * 32)
    arena = CiphertextArena(initial_capacity=initial_capacity)
    views = []
    expected = []
    next_value = 0
    for batch_index, size in enumerate(batch_sizes):
        records = [
            Record(values={"v": next_value + i}, arrival_time=batch_index, table="T")
            for i in range(size)
        ]
        next_value += size
        handles = cipher.encrypt_many_into(records, arena)
        assert handles == list(range(len(expected), len(expected) + size))
        expected.extend(records)
        views = arena.records()
        if batch_index in compact_after:
            arena.compact()
            assert arena.capacity == len(arena)
    assert len(arena) == len(expected)
    decrypted = cipher.decrypt_many(views)
    assert [r.values for r in decrypted] == [r.values for r in expected]
    assert [v.handle for v in views] == list(range(len(expected)))
    # A fresh set of views after all growth/compaction agrees with the old.
    assert [bytes(v.ciphertext) for v in arena.records()] == [
        bytes(v.ciphertext) for v in views
    ]


def _populated_executors():
    rng = np.random.default_rng(42)
    rows = [
        Record(
            values={"pickupID": int(rng.integers(1, 40)), "pickTime": int(t)},
            arrival_time=int(t),
            is_dummy=bool(rng.random() < 0.2),
            table="YellowCab",
        )
        for t in range(400)
    ]
    other = [
        Record(
            values={"pickupID": int(rng.integers(1, 40)), "fare": float(rng.random())},
            arrival_time=int(t),
            table="GreenTaxi",
        )
        for t in range(150)
    ]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    for executor in (fast, reference):
        executor.append("YellowCab", rows)
        executor.append("GreenTaxi", other)
    return fast, reference


QUERY_SHAPES = [
    CountQuery(table="YellowCab", label="count-all"),
    CountQuery(
        table="YellowCab",
        predicate=RangePredicate("pickupID", 5, 20),
        label="count-range",
    ),
    CountQuery(
        table="YellowCab",
        predicate=OrPredicate(
            (EqualityPredicate("pickupID", 7), RangePredicate("pickTime", 0, 50))
        ),
        label="count-or",
    ),
    CountQuery(
        table="YellowCab",
        predicate=NotPredicate(EqualityPredicate("pickupID", 3)),
        label="count-not",
    ),
    CountQuery(
        table="YellowCab",
        predicate=EqualityPredicate("pickupID", "not-a-number"),
        label="count-type-mismatch",
    ),
    GroupByCountQuery(table="YellowCab", group_attribute="pickupID", label="group"),
    GroupByCountQuery(
        table="YellowCab",
        group_attribute="pickupID",
        predicate=RangePredicate("pickTime", 100, 300),
        label="group-filtered",
    ),
    JoinCountQuery(
        left_table="YellowCab",
        right_table="GreenTaxi",
        left_attribute="pickupID",
        right_attribute="pickupID",
        left_predicate=RangePredicate("pickTime", 0, 250),
        label="join",
    ),
    CountQuery(table="NoSuchTable", label="count-missing-table"),
]


@pytest.mark.parametrize("rewrite", [False, True], ids=["raw", "dummy-rewritten"])
@pytest.mark.parametrize("query", QUERY_SHAPES, ids=lambda q: q.name)
def test_executor_answers_and_stats_match(query, rewrite):
    """Vectorized answers equal row-at-a-time answers, stats included."""
    fast, reference = _populated_executors()
    fast_answer, fast_stats = fast.execute_with_stats(query, rewrite=rewrite)
    ref_answer, ref_stats = reference.execute_with_stats(query, rewrite=rewrite)
    assert fast_answer == ref_answer
    assert fast_stats == ref_stats
    # The columnar executor's forced row interpreter is the same oracle.
    assert fast.execute_rows_with_stats(query, rewrite=rewrite) == (
        ref_answer,
        ref_stats,
    )


def test_grouped_answer_iteration_order_matches():
    """Grouped answers list groups in first-appearance order on both executors.

    This is load-bearing, not cosmetic: Crypt-epsilon draws one Laplace
    variate per group in answer order, so a different order would change
    noisy answers at a fixed seed.
    """
    fast, reference = _populated_executors()
    query = GroupByCountQuery(table="YellowCab", group_attribute="pickupID")
    fast_answer = fast.execute(query, rewrite=True)
    ref_answer = reference.execute(query, rewrite=True)
    assert list(fast_answer.items()) == list(ref_answer.items())
    assert all(type(key) is int for key in fast_answer)


def test_mixed_int_float_group_keys_keep_reference_types():
    """A group column mixing ints and floats must not float-promote int keys.

    Dict equality would hide ``2`` vs ``2.0`` (they compare equal), but JSON
    surfaces -- golden fixtures, grid checkpoints -- would diverge, so mixed
    columns take the row fallback and reproduce the reference key objects.
    """
    import json

    rows = [
        Record(values={"g": 2}, table="T"),
        Record(values={"g": 2}, table="T"),
        Record(values={"g": 3.5}, table="T"),
    ]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = GroupByCountQuery(table="T", group_attribute="g")
    fast_answer = fast.execute(query)
    ref_answer = reference.execute(query)
    assert fast_answer == ref_answer
    assert json.dumps(fast_answer) == json.dumps(ref_answer)


def test_nan_group_keys_take_the_row_fallback():
    """NaN keys: np.unique would merge them, the row dict keeps them apart."""
    rows = [Record(values={"g": float("nan")}, table="T") for _ in range(3)]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = GroupByCountQuery(table="T", group_attribute="g")
    fast_answer = fast.execute(query)
    ref_answer = reference.execute(query)
    assert len(fast_answer) == len(ref_answer) == 3
    assert list(fast_answer.values()) == list(ref_answer.values())


def test_unhashable_query_skips_the_plan_cache():
    """Predicates holding unhashable values still execute (uncached)."""
    rows = [Record(values={"x": i}, table="T") for i in range(4)]
    for executor in (ColumnarExecutor(), PlaintextExecutor()):
        executor.append("T", rows)
        query = CountQuery(table="T", predicate=EqualityPredicate("x", [1, 2]))
        assert executor.execute(query) == 0


def test_empty_or_predicate_rejects_all_rows():
    """any(()) is False: an empty OR matches nothing on both executors."""
    rows = [Record(values={"v": i}, table="T") for i in range(5)]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = CountQuery(table="T", predicate=OrPredicate(()))
    assert fast.execute(query) == reference.execute(query) == 0


def test_fallback_covers_unsupported_columns():
    """Non-numeric columns transparently fall back to the row interpreter."""
    rows = [
        Record(values={"city": name, "n": i}, table="T")
        for i, name in enumerate(["nyc", "sf", "nyc", "la"])
    ]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = GroupByCountQuery(table="T", group_attribute="city")
    assert fast.execute(query) == reference.execute(query) == {
        "nyc": 2,
        "sf": 1,
        "la": 1,
    }


# ---------------------------------------------------------------------------
# Tail folds: a repeated plan evaluates only the rows appended since its
# last run, and must answer exactly what a full rescan would.
# ---------------------------------------------------------------------------

#: Key values per column kind, with repeats so joins and groups meet.  The
#: float kind carries NaN (the row executor tells NaN objects apart by
#: identity) and both signed zeros (equal keys).
_FOLD_VALUES = {
    "int": st.integers(0, 4),
    "float": st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, float("nan")]),
    "bool": st.booleans(),
}

_FOLD_QUERIES = [
    CountQuery(table="L", label="count"),
    CountQuery(table="L", predicate=RangePredicate("v", 1, 3), label="range"),
    CountQuery(
        table="R",
        predicate=OrPredicate(
            (EqualityPredicate("v", 2), NotPredicate(RangePredicate("k", 0, 1)))
        ),
        label="or-not",
    ),
    GroupByCountQuery(table="L", group_attribute="k", label="group"),
    GroupByCountQuery(
        table="R",
        group_attribute="k",
        predicate=RangePredicate("v", 0, 2),
        label="group-filtered",
    ),
    JoinCountQuery(
        left_table="L",
        right_table="R",
        left_attribute="k",
        right_attribute="k",
        label="join",
    ),
    JoinCountQuery(
        left_table="L",
        right_table="R",
        left_attribute="k",
        right_attribute="v",
        left_predicate=RangePredicate("v", 0, 2),
        right_predicate=NotPredicate(EqualityPredicate("k", 1)),
        label="join-filtered",
    ),
    JoinCountQuery(
        left_table="L",
        right_table="L",
        left_attribute="k",
        right_attribute="k",
        label="self-join",
    ),
]


@st.composite
def _fold_batch(draw):
    table = draw(st.sampled_from(["L", "R"]))
    kind = draw(st.sampled_from(sorted(_FOLD_VALUES)))
    values = _FOLD_VALUES[kind]
    rows = [
        Record(
            values={"k": draw(values), "v": draw(st.integers(0, 4))},
            table=table,
            is_dummy=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    if draw(st.integers(0, 19)) == 0:
        # An extra attribute turns the table non-uniform for good.
        rows.append(Record(values={"k": 1, "v": 1, "x": 0}, table=table))
    return ("append", table, rows)


_fold_operations = st.lists(
    st.one_of(
        _fold_batch(),
        st.tuples(
            st.just("query"),
            st.integers(0, len(_FOLD_QUERIES) - 1),
            st.booleans(),
        ),
    ),
    max_size=40,
)


def _assert_matches_row_interpreter(executor, query, rewrite, time=0) -> None:
    fast_answer, fast_stats = executor.execute_with_stats(query, rewrite, time)
    ref_answer, ref_stats = executor.execute_rows_with_stats(query, rewrite, time)
    assert fast_stats == ref_stats, query.name
    if isinstance(ref_answer, dict):
        assert type(fast_answer) is dict
        # Items in order: Crypt-epsilon draws its noise in group order.
        assert list(fast_answer.items()) == list(ref_answer.items()), query.name
        assert [type(key) for key in fast_answer] == [type(key) for key in ref_answer]
    else:
        assert fast_answer == ref_answer, query.name


@given(operations=_fold_operations)
@settings(max_examples=150, deadline=None)
def test_tail_folds_match_the_row_interpreter(operations):
    """Random interleavings of appends and repeated queries over int, float
    and bool key columns -- dummies, int/bool -> float promotion part-way,
    NaN and signed-zero keys, self-joins, both join sides growing, a table
    turning non-uniform -- answer exactly what the row interpreter does
    after every query, stats and group order included."""
    executor = ColumnarExecutor()
    for operation in operations:
        if operation[0] == "append":
            _, table, rows = operation
            executor.append(table, rows)
        else:
            _, index, rewrite = operation
            _assert_matches_row_interpreter(executor, _FOLD_QUERIES[index], rewrite)
    for query in _FOLD_QUERIES:
        _assert_matches_row_interpreter(executor, query, True)


#: Windowed counts, with a plain count over the same filters between them.
_WINDOWED_QUERIES = [
    WindowedCountQuery(table="L", window=1, label="w1"),
    WindowedCountQuery(table="L", window=5, predicate=RangePredicate("v", 1, 3), label="w5"),
    WindowedCountQuery(table="L", window=6, mode="tumbling", label="t6"),
    WindowedCountQuery(
        table="R",
        window=12,
        mode="tumbling",
        predicate=NotPredicate(EqualityPredicate("k", 1)),
        label="t12",
    ),
    WindowedCountQuery(table="R", window=70, label="w70"),
    CountQuery(table="L", predicate=RangePredicate("v", 1, 3), label="count"),
]


@st.composite
def _windowed_batch(draw):
    _, table, rows = draw(_fold_batch())
    clock = draw(st.integers(0, 60))
    # Arrivals up to 30 ticks late, in any order within a batch.
    rows = [
        replace(row, arrival_time=max(clock - draw(st.integers(0, 30)), 0))
        for row in rows
    ]
    return ("append", table, rows)


def _in_window(query: WindowedCountQuery, arrival: int, time: int) -> bool:
    """Window membership from the definition, apart from ``window_bounds``:
    sliding is ``(t - w, t]``; tumbling is the grid cell ``((k-1)w, kw]``
    holding ``t``, up to ``t``."""
    if query.mode == "sliding":
        return time - query.window < arrival <= time
    return arrival <= time and -(-arrival // query.window) == -(-time // query.window)


def _assert_window_count(executor, query, rewrite, time) -> None:
    _assert_matches_row_interpreter(executor, query, rewrite, time)
    if not isinstance(query, WindowedCountQuery):
        return
    rows = executor.tables.get(query.table, [])
    expected = sum(
        1
        for row in rows
        if not (rewrite and row.is_dummy)
        and query.predicate.evaluate(row)
        and _in_window(query, row.arrival_time, time)
    )
    answer, stats = executor.execute_with_stats(query, rewrite, time)
    assert (answer, stats.rows_scanned) == (expected, len(rows)), query.name


@given(
    operations=st.lists(
        st.one_of(
            _windowed_batch(),
            st.tuples(
                st.just("query"),
                st.integers(0, len(_WINDOWED_QUERIES) - 1),
                st.booleans(),
                st.integers(-40, 100),
            ),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_windowed_counts_match_the_row_interpreter(operations):
    """Sliding and tumbling windows over tables with dummies, late and
    out-of-order arrivals, promoted and non-uniform columns, asked at
    non-monotone query times between plain counts, answer what the row
    interpreter does and what the window's definition counts."""
    executor = ColumnarExecutor()
    for operation in operations:
        if operation[0] == "append":
            _, table, rows = operation
            executor.append(table, rows)
        else:
            _, index, rewrite, time = operation
            _assert_window_count(executor, _WINDOWED_QUERIES[index], rewrite, time)
    for query in _WINDOWED_QUERIES:
        for time in (-1, 0, 30, 61):
            _assert_window_count(executor, query, True, time)


def test_a_repeated_query_reads_only_the_appended_tail(monkeypatch):
    """The second run of a plan reads its columns from the first run's row
    count on; the answer still covers the whole table."""
    executor = ColumnarExecutor()
    executor.append("L", [Record(values={"k": i % 3, "v": i}, table="L") for i in range(50)])
    query = CountQuery(table="L", predicate=RangePredicate("v", 10, 60))
    assert executor.execute(query, rewrite=True) == 40
    read = []
    column = _ColumnarTable.column

    def recording(self, attribute, start=0):
        result = column(self, attribute, start)
        read.append(result.size)
        return result

    monkeypatch.setattr(_ColumnarTable, "column", recording)
    executor.append("L", [Record(values={"k": 0, "v": 55}, table="L") for _ in range(3)])
    answer, stats = executor.execute_with_stats(query, rewrite=True)
    assert (answer, stats.rows_scanned) == (43, 53)
    assert read == [3]


def test_promotion_and_register_start_a_fold_over():
    """An int column promoted to float, and a table replaced by register,
    both restart the plan's state from row 0."""
    executor = ColumnarExecutor()
    query = GroupByCountQuery(table="L", group_attribute="v")
    join = JoinCountQuery(
        left_table="L", right_table="L", left_attribute="v", right_attribute="v"
    )
    executor.append("L", [Record(values={"v": i % 2}, table="L") for i in range(6)])
    for q in (query, join):
        _assert_matches_row_interpreter(executor, q, True)
    plan = executor._plan_for(join, True)
    before = executor._folds[plan].signature
    executor.append("L", [Record(values={"v": 1.0}, table="L")])
    _assert_matches_row_interpreter(executor, join, True)
    assert executor._folds[plan].signature != before
    assert executor._folds[plan].rows == (7, 7)
    executor.register("L", [Record(values={"v": 3}, table="L")])
    assert executor._folds == {}
    for q in (query, join):
        _assert_matches_row_interpreter(executor, q, True)


def test_empty_tables_answer_in_the_vectorized_path(monkeypatch):
    """A count, group-by or join over a table with no rows yet answers 0 /
    {} / 0 without the row fallback, with the row interpreter's stats."""
    executor = ColumnarExecutor()
    executor.append("R", [Record(values={"k": 1}, table="R")])
    fallbacks = []
    monkeypatch.setattr(
        PlaintextExecutor, "execute_plan", lambda self, plan: fallbacks.append(plan)
    )
    queries = [
        CountQuery(table="E", predicate=RangePredicate("k", 0, 9)),
        GroupByCountQuery(table="E", group_attribute="k"),
        JoinCountQuery(
            left_table="E", right_table="R", left_attribute="k", right_attribute="k"
        ),
    ]
    answers = [executor.execute_with_stats(q, rewrite=True) for q in queries]
    assert fallbacks == []
    monkeypatch.undo()
    for query, answer in zip(queries, answers):
        assert answer == executor.execute_rows_with_stats(query, rewrite=True)
    assert [a for a, _ in answers] == [0, {}, 0]


def test_reading_an_unwritten_table_does_not_create_it():
    """A query over a table nothing was written to answers like the row
    interpreter and leaves no column store behind, so no later snapshot
    carries the table; a later write starts it from its first row."""
    edb = ObliDB()
    edb.setup([])
    queries = [
        CountQuery(table="Nope", predicate=RangePredicate("k", 0, 9)),
        GroupByCountQuery(table="Nope", group_attribute="k"),
        JoinCountQuery(
            left_table="Nope",
            right_table="Nope",
            left_attribute="k",
            right_attribute="k",
        ),
    ]
    for query in queries:
        _assert_matches_row_interpreter(edb._executor, query, True)
        assert edb.query(query).answer in (0, {})
    assert "Nope" not in edb._executor._columnar
    edb.update([Record(values={"k": i % 3}, table="Nope") for i in range(5)], 1)
    for query in queries:
        _assert_matches_row_interpreter(edb._executor, query, True)
    assert list(edb._executor._columnar) == ["Nope"]


def test_paper_cells_never_take_the_row_fallback(monkeypatch):
    """The five paper-oblidb strategies at scale 0.3 answer every Q1-Q3
    vectorized -- OTO's queries over tables with no rows included.  Input
    variant 7 starts both tables empty, variant 1 only GreenTaxi."""
    fallbacks = []
    row_plan = PlaintextExecutor.execute_plan

    def counting(self, plan):
        if isinstance(self, ColumnarExecutor):
            fallbacks.append(plan)
        return row_plan(self, plan)

    monkeypatch.setattr(PlaintextExecutor, "execute_plan", counting)
    for workload_seed in (2027, 2021):
        for strategy in ("sur", "oto", "set", "dp-timer", "dp-ant"):
            run_cell(
                CellSpec(
                    strategy=strategy,
                    backend="oblidb",
                    scenario="taxi-june",
                    scale=0.3,
                    query_interval=360,
                    workload_seed=workload_seed,
                )
            )
    assert fallbacks == []
