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
3. direct executor-level checks feed a :class:`ColumnarExecutor` and a
   separate :class:`PlaintextExecutor` the same records and compare every
   query shape -- answers, stats, the dict *iteration order* of grouped
   answers (which the L-DP back-end's per-group noise draws depend on) and
   the types of their keys.
"""

from __future__ import annotations

import json
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
    ModCountQuery,
    MultiJoinCountQuery,
    WindowedCountQuery,
)
from repro.query.columnar import ColumnarExecutor, _ColumnarTable
from repro.query.executor import PlaintextExecutor, lowered_plan
from repro.query.predicates import (
    AndPredicate,
    EqualityPredicate,
    NotPredicate,
    OrPredicate,
    RangePredicate,
)
from repro.simulation.runner import run_cell
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
    decrypted = fast_edb.cipher.decrypt_many(ciphertexts)
    assert logical(decrypted) == logical(ref_edb._executor.tables[table])
    # The columns hold the same records: the server's one plaintext copy.
    store = fast_edb._executor._columnar[table]
    assert [
        ({a: c[i] for a, c in store.columns.items()}, store.arrivals[i], store.dummies[i])
        for i in range(len(store))
    ] == [(dict(r.values), r.arrival_time, r.is_dummy) for r in decrypted]
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
    surfaces -- golden fixtures, grid checkpoints -- would diverge.  Keys are
    the stored value objects, so they are the reference's.
    """
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


def test_nan_group_keys_keep_their_identity():
    """The row interpreter's dicts tell NaN objects apart by identity: rows
    sharing one NaN object form one group, distinct NaN objects one group
    each.  The stored objects are the keys, so the columns agree."""
    shared = float("nan")
    rows = [Record(values={"g": shared}, table="T") for _ in range(3)]
    rows += [Record(values={"g": float("nan")}, table="T") for _ in range(2)]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = GroupByCountQuery(table="T", group_attribute="g")
    fast_answer = fast.execute(query)
    ref_answer = reference.execute(query)
    assert len(fast_answer) == len(ref_answer) == 3
    assert list(fast_answer.values()) == list(ref_answer.values()) == [3, 1, 1]
    assert next(iter(fast_answer)) is shared
    join = JoinCountQuery(
        left_table="T", right_table="T", left_attribute="g", right_attribute="g"
    )
    assert fast.execute(join) == reference.execute(join) == 9 + 1 + 1


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


def test_string_columns_answer_per_value():
    """Columns that are not all bool, all int or all float -- strings,
    None, attributes some rows lack -- answer from their value lists."""
    rows = [
        Record(values={"city": name, "n": i}, table="T")
        for i, name in enumerate(["nyc", "sf", "nyc", "la"])
    ]
    rows.append(Record(values={"n": None}, table="T"))
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    query = GroupByCountQuery(table="T", group_attribute="city")
    assert fast.execute(query) == reference.execute(query) == {
        "nyc": 2,
        "sf": 1,
        "la": 1,
        None: 1,
    }
    for predicate in (
        EqualityPredicate("city", "nyc"),
        EqualityPredicate("city", None),
        RangePredicate("n", 1, 3),
        EqualityPredicate("n", 2.0),
    ):
        query = CountQuery(table="T", predicate=predicate)
        assert fast.execute_with_stats(query) == reference.execute_with_stats(query)


def _outcome(executor, query, rewrite=False, time=0):
    """``execute_with_stats``'s result, or the type of what it raised."""
    try:
        return executor.execute_with_stats(query, rewrite, time)
    except TypeError as error:
        return type(error)


def test_comparisons_short_circuit_as_the_row_interpreter():
    """A value compared one by one is compared only where the row
    interpreter evaluates it: after the AND/OR siblings before it, the
    filters below it, the dummy skip and the window.  A string against a
    numeric range raises on both executors or on neither, and a query that
    raised raises again: no fold advances past the rows it raised on."""
    keys = [1, "a", 2, "b", None, 0.5]
    rows = [
        Record(
            values={"k": k, "v": 5 if isinstance(k, str) else 0},
            arrival_time=10 if isinstance(k, str) else 3,
            is_dummy=isinstance(k, str),
            table="T",
        )
        for k in keys
    ]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    in_range = RangePredicate("k", 0, 1)
    cases = [
        (CountQuery(table="T", predicate=OrPredicate(
            (EqualityPredicate("k", "a"), EqualityPredicate("k", "b"), in_range)
        )), False, 0, 4),
        (CountQuery(table="T", predicate=AndPredicate(
            (RangePredicate("v", 0, 1), in_range)
        )), False, 0, 2),
        (CountQuery(table="T", predicate=AndPredicate(
            (in_range, RangePredicate("v", 0, 1))
        )), False, 0, TypeError),
        (CountQuery(table="T", predicate=AndPredicate(
            (RangePredicate("v", 0, 1), OrPredicate((EqualityPredicate("k", 7), in_range)))
        )), False, 0, 2),
        (CountQuery(table="T", predicate=AndPredicate(
            (RangePredicate("v", 0, 1), NotPredicate(in_range))
        )), False, 0, 2),
        (CountQuery(table="T", predicate=NotPredicate(in_range)), False, 0, TypeError),
        (GroupByCountQuery(table="T", group_attribute="k", predicate=in_range), True, 0, TypeError),
        (WindowedCountQuery(table="T", window=5, predicate=in_range), False, 6, 2),
        (WindowedCountQuery(table="T", window=5, predicate=in_range), False, 12, TypeError),
        (WindowedCountQuery(table="T", window=20, predicate=in_range), True, 12, 2),
        (JoinCountQuery(
            left_table="T", right_table="T", left_attribute="v", right_attribute="v",
            left_predicate=RangePredicate("v", 0, 1), right_predicate=in_range,
        ), False, 0, TypeError),
    ]
    for query, rewrite, time, expected in cases:
        for _ in range(2):
            outcome = _outcome(fast, query, rewrite, time)
            assert outcome == _outcome(reference, query, rewrite, time), query
            assert (outcome if outcome is TypeError else outcome[0]) == expected, query
    unhashable = [Record(values={"k": [1]}, table="U")]
    join = JoinCountQuery(
        left_table="T", right_table="U", left_attribute="k", right_attribute="k"
    )
    fast.append("U", unhashable)
    reference.append("U", unhashable)
    for _ in range(2):
        assert _outcome(fast, join) is _outcome(reference, join) is TypeError


def test_a_span_on_the_shared_entry_times_columnar_queries(monkeypatch):
    """The columnar executor answers through
    ``PlaintextExecutor.execute_with_stats``, looked up at call time, so a
    wrapper installed there (the benchmark's ``query.columnar.scan`` span)
    sees every columnar query, windowed ones included."""
    seen = []
    shared = PlaintextExecutor.execute_with_stats

    def traced(self, *args, **kwargs):
        result = shared(self, *args, **kwargs)
        seen.append((type(self), result[1].rows_scanned))
        return result

    monkeypatch.setattr(PlaintextExecutor, "execute_with_stats", traced)
    executor = ColumnarExecutor()
    executor.append("T", [Record(values={"k": i}, arrival_time=i, table="T") for i in range(4)])
    executor.execute(CountQuery(table="T", predicate=RangePredicate("k", 1, 2)))
    executor.execute_with_stats(WindowedCountQuery(table="T", window=2), time=3)
    assert seen == [(ColumnarExecutor, 4), (ColumnarExecutor, 4)]


def test_numeric_columns_compare_exactly_past_float_precision():
    """NumPy would compare an int64 column with a float, or a float column
    with a large int, in float64, which rounds past 2**53; such constants,
    and ints beyond 64 bits, are compared per value as Python does."""
    big = 2**53
    rows = [Record(values={"i": big + d, "f": float(big), "h": 2**70 + d}, table="T") for d in (0, 1)]
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    fast.append("T", rows)
    reference.append("T", rows)
    predicates = [
        RangePredicate("i", 0, float(big)),
        EqualityPredicate("i", float(big)),
        EqualityPredicate("f", big + 1),
        RangePredicate("f", big + 1, big + 2),
        EqualityPredicate("h", 2**70 + 1),
        EqualityPredicate("i", 2**70),
    ]
    answers = []
    for predicate in predicates:
        query = CountQuery(table="T", predicate=predicate)
        answer = fast.execute_with_stats(query)
        assert answer == reference.execute_with_stats(query), predicate
        answers.append(answer[0])
    assert answers == [1, 1, 0, 0, 1, 0]


# ---------------------------------------------------------------------------
# One differential across every shape: a ColumnarExecutor and a separately
# fed PlaintextExecutor receive the same appends; after every query both
# must give the same answer, stats, group order and key types.  A repeated
# plan folds only the rows appended since its last run, so this also pins
# every tail fold to a full rescan.
# ---------------------------------------------------------------------------

#: One NaN object shared by every row that draws it (one group, and it
#: joins itself), next to NaN objects made fresh per row (distinct keys).
_SHARED_NAN = float("nan")

#: Key values per column kind, with repeats so joins and groups meet; both
#: signed zeros are equal keys.
_KEY_VALUES = {
    "int": st.integers(0, 4),
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, _SHARED_NAN]),
        st.builds(float, st.just("nan")),
    ),
    "bool": st.booleans(),
    "str": st.sampled_from(["a", "b", ""]),
    "none": st.none(),
}
_KEY_VALUES["mixed"] = st.one_of(*_KEY_VALUES.values())

#: The kinds table ``N`` draws its keys from: every column of ``N`` keeps a
#: NumPy copy until a batch of another kind promotes it part-way, so its
#: ranges over ``k`` run the vectorized comparisons.
_NUMERIC_KINDS = ["bool", "float", "int"]

_SHAPES = [
    CountQuery(table="L", label="count"),
    CountQuery(table="L", predicate=RangePredicate("v", 1, 3), label="range"),
    CountQuery(
        table="N",
        predicate=OrPredicate(
            (EqualityPredicate("v", 2), NotPredicate(RangePredicate("k", 0, 1)))
        ),
        label="or-not",
    ),
    CountQuery(table="N", predicate=RangePredicate("k", -0.0, 2.5), label="range-k"),
    GroupByCountQuery(
        table="N",
        group_attribute="k",
        predicate=RangePredicate("k", 0.5, 4),
        label="group-range-k",
    ),
    JoinCountQuery(
        left_table="N",
        right_table="L",
        left_attribute="k",
        right_attribute="k",
        left_predicate=RangePredicate("k", 1, 2.0),
        label="join-range-k",
    ),
    CountQuery(
        table="R",
        predicate=OrPredicate(
            (
                EqualityPredicate("k", "a"),
                EqualityPredicate("k", "b"),
                EqualityPredicate("k", ""),
                RangePredicate("k", 0, 1),
            )
        ),
        label="or-guarded",
    ),
    CountQuery(
        table="R",
        predicate=AndPredicate((RangePredicate("v", 0, 1), RangePredicate("k", 0, 2))),
        label="and-may-raise",
    ),
    CountQuery(
        table="S",
        predicate=AndPredicate(
            (EqualityPredicate("k", "a"), RangePredicate("v", 0.5, 3.5))
        ),
        label="and-str",
    ),
    CountQuery(table="L", predicate=EqualityPredicate("k", None), label="eq-none"),
    ModCountQuery(table="L", modulus=3, predicate=EqualityPredicate("k", 1.0), label="mod"),
    GroupByCountQuery(table="L", group_attribute="k", label="group"),
    GroupByCountQuery(
        table="R",
        group_attribute="k",
        predicate=RangePredicate("v", 0, 2),
        label="group-filtered",
    ),
    GroupByCountQuery(table="S", group_attribute="x", label="group-sparse"),
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
    MultiJoinCountQuery(
        join_tables=("L", "R", "S"), attributes=("k", "k", "k"), label="star"
    ),
    MultiJoinCountQuery(
        join_tables=("L", "L", "R"),
        attributes=("k", "v", "k"),
        predicates=(
            RangePredicate("v", 0, 3),
            NotPredicate(EqualityPredicate("k", "a")),
            EqualityPredicate("v", 2),
        ),
        label="star-filtered",
    ),
    WindowedCountQuery(table="L", window=1, label="w1"),
    WindowedCountQuery(
        table="L", window=5, predicate=RangePredicate("v", 1, 3), label="w5"
    ),
    WindowedCountQuery(
        table="R",
        window=12,
        mode="tumbling",
        predicate=NotPredicate(EqualityPredicate("k", 1)),
        label="t12",
    ),
    WindowedCountQuery(table="S", window=6, mode="tumbling", label="t6"),
    WindowedCountQuery(table="S", window=70, label="w70"),
    WindowedCountQuery(
        table="N", window=8, predicate=RangePredicate("k", 1, 2.5), label="w8-range-k"
    ),
]

_WINDOWED = [q for q in _SHAPES if isinstance(q, WindowedCountQuery)]


@st.composite
def _batch(draw):
    """A batch of rows of one table whose key column draws from one kind
    (a numeric one for table ``N``).

    ``v`` is a small int or None, ``x`` appears on some rows only, and now
    and then a row lacks ``k`` or ``v``; arrivals are up to 30 ticks late,
    in any order within the batch."""
    table = draw(st.sampled_from(["L", "N", "R", "S"]))
    kinds = _NUMERIC_KINDS if table == "N" else sorted(_KEY_VALUES)
    keys = _KEY_VALUES[draw(st.sampled_from(kinds))]
    clock = draw(st.integers(0, 60))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        values = {"k": draw(keys), "v": draw(st.one_of(st.integers(0, 4), st.none()))}
        shape = draw(st.integers(0, 9))
        if shape == 0:
            del values["k"]
        elif shape == 1:
            del values["v"]
        elif shape == 2:
            values["x"] = draw(st.integers(0, 2))
        rows.append(
            Record(
                values=values,
                table=table,
                is_dummy=draw(st.booleans()),
                arrival_time=max(clock - draw(st.integers(0, 30)), 0),
            )
        )
    return ("append", table, rows)


def _operations(queries):
    return st.lists(
        st.one_of(
            _batch(),
            st.tuples(
                st.just("query"),
                st.integers(0, len(queries) - 1),
                st.booleans(),
                st.integers(-40, 100),
            ),
        ),
        max_size=40,
    )


def _assert_same(fast, reference, query, rewrite, time=0) -> None:
    try:
        ref_answer, ref_stats = reference.execute_with_stats(query, rewrite, time)
    except TypeError:
        # A string met a numeric range on a row the interpreter evaluated
        # it on: the columns raise too.
        with pytest.raises(TypeError):
            fast.execute_with_stats(query, rewrite, time)
        return
    fast_answer, fast_stats = fast.execute_with_stats(query, rewrite, time)
    assert fast_stats == ref_stats, query.name
    if isinstance(ref_answer, dict):
        assert type(fast_answer) is dict
        # Items in order: Crypt-epsilon draws its noise in group order.  NaN
        # keys compare by identity, as the dicts hold them.
        assert len(fast_answer) == len(ref_answer), query.name
        for (key, count), (ref_key, ref_count) in zip(
            fast_answer.items(), ref_answer.items()
        ):
            assert key is ref_key or key == ref_key, query.name
            assert type(key) is type(ref_key), query.name
            assert count == ref_count, query.name
    else:
        assert type(fast_answer) is int
        assert fast_answer == ref_answer, query.name


@given(operations=_operations(_SHAPES))
@settings(max_examples=200, deadline=None)
def test_tail_folds_match_the_row_interpreter(operations):
    """Counts, modulo counts, group-bys, binary joins (self-join included),
    star joins and sliding and tumbling windows, over key columns of ints,
    floats (both signed zeros, shared and distinct NaN objects), bools,
    strings, None and all of them mixed, rows lacking attributes, dummies
    and late arrivals, asked between appends at non-monotone query times:
    the columns answer what the row interpreter does, and raise where it
    raises.  Table ``N`` keeps numeric keys, promoted part-way, so its
    ranges over ``k`` run the vectorized comparisons."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    for operation in operations:
        if operation[0] == "append":
            _, table, rows = operation
            assert fast.append(table, rows) == reference.append(table, rows)
        else:
            _, index, rewrite, time = operation
            _assert_same(fast, reference, _SHAPES[index], rewrite, time)
    for query in _SHAPES:
        for rewrite in (False, True):
            _assert_same(fast, reference, query, rewrite, 61)


@given(operations=_operations(_SHAPES), data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_truncated_append_leaves_the_answers_of_the_rows_kept(operations, data):
    """An append undone by ``truncate`` (a rejected Update's rewind), read by
    queries or not before it is undone, leaves every answer that of the rows
    kept: the row interpreter never sees the undone rows."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    for operation in operations:
        if operation[0] == "append":
            _, table, rows = operation
            if not data.draw(st.booleans(), label="undone"):
                fast.append(table, rows)
                reference.append(table, rows)
                continue
            size = len(reference.tables.get(table, ()))
            fast.append(table, rows)
            if data.draw(st.booleans(), label="read before undone"):
                for query in _SHAPES:
                    try:
                        fast.execute_with_stats(query, True, 61)
                    except TypeError:
                        pass
            fast.truncate(table, size)
        else:
            _, index, rewrite, time = operation
            _assert_same(fast, reference, _SHAPES[index], rewrite, time)
    for query in _SHAPES:
        for rewrite in (False, True):
            _assert_same(fast, reference, query, rewrite, 61)


def test_rows_read_and_then_truncated_leave_no_trace():
    """Rows a query read (so folded and copied into NumPy) and that were then
    truncated away are gone from every later answer: rows appended after the
    truncation are counted in their place."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    query = CountQuery(table="L", predicate=RangePredicate("v", 0, 10))
    kept = [Record(values={"v": i}, table="L") for i in range(5)]
    for executor in (fast, reference):
        executor.append("L", kept)
    fast.append("L", [Record(values={"v": 100 + i}, table="L") for i in range(5)])
    assert fast.execute(query, rewrite=True) == 5
    fast.truncate("L", len(kept))
    later = [Record(values={"v": i}, table="L") for i in range(3)]
    for executor in (fast, reference):
        executor.append("L", later)
    _assert_same(fast, reference, query, True)
    assert fast.execute(query, rewrite=True) == 8


def _in_window(query: WindowedCountQuery, arrival: int, time: int) -> bool:
    """Window membership from the definition, apart from ``window_bounds``:
    sliding is ``(t - w, t]``; tumbling is the grid cell ``((k-1)w, kw]``
    holding ``t``, up to ``t``."""
    if query.mode == "sliding":
        return time - query.window < arrival <= time
    return arrival <= time and -(-arrival // query.window) == -(-time // query.window)


@given(operations=_operations(_WINDOWED))
@settings(max_examples=100, deadline=None)
def test_windowed_counts_match_the_row_interpreter(operations):
    """Sliding and tumbling windows over late and out-of-order arrivals,
    asked at non-monotone query times, count what the window's definition
    counts, on the columns and on the row interpreter alike."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()

    def check(query, rewrite, time):
        _assert_same(fast, reference, query, rewrite, time)
        rows = reference.tables.get(query.table, [])
        expected = sum(
            1
            for row in rows
            if not (rewrite and row.is_dummy)
            and query.predicate.evaluate(row)
            and _in_window(query, row.arrival_time, time)
        )
        answer, stats = fast.execute_with_stats(query, rewrite, time)
        assert (answer, stats.rows_scanned) == (expected, len(rows)), query.name

    for operation in operations:
        if operation[0] == "append":
            _, table, rows = operation
            fast.append(table, rows)
            reference.append(table, rows)
        else:
            _, index, rewrite, time = operation
            check(_WINDOWED[index], rewrite, time)
    for query in _WINDOWED:
        for time in (-1, 0, 30, 61):
            check(query, True, time)


def test_a_repeated_query_reads_only_the_appended_tail(monkeypatch):
    """The second run of a plan reads its columns from the first run's row
    count on; the answer still covers the whole table."""
    executor = ColumnarExecutor()
    executor.append("L", [Record(values={"k": i % 3, "v": i}, table="L") for i in range(50)])
    query = CountQuery(table="L", predicate=RangePredicate("v", 10, 60))
    assert executor.execute(query, rewrite=True) == 40
    read = []
    numeric = _ColumnarTable.numeric

    def recording(self, attribute, start):
        result = numeric(self, attribute, start)
        read.append(result.size)
        return result

    monkeypatch.setattr(_ColumnarTable, "numeric", recording)
    executor.append("L", [Record(values={"k": 0, "v": 55}, table="L") for _ in range(3)])
    answer, stats = executor.execute_with_stats(query, rewrite=True)
    assert (answer, stats.rows_scanned) == (43, 53)
    assert read == [3]


def test_a_fold_continues_across_a_column_type_change():
    """A column that stops being all ints (a float, then a string) keeps its
    plans' states: the next query folds only the new rows, per value."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    queries = [
        GroupByCountQuery(table="L", group_attribute="v"),
        CountQuery(table="L", predicate=EqualityPredicate("v", 1)),
        JoinCountQuery(
            left_table="L", right_table="L", left_attribute="v", right_attribute="v"
        ),
    ]
    for batch in ([i % 2 for i in range(6)], [1.0], ["1", 1]):
        rows = [Record(values={"v": v}, table="L") for v in batch]
        fast.append("L", rows)
        reference.append("L", rows)
        for query in queries:
            _assert_same(fast, reference, query, True)
    plan = lowered_plan(queries[2], True, {})
    assert fast._folds[plan].rows == [9, 9]
    assert fast._columnar["L"].numeric("v", 0) is None


def test_empty_tables_answer_in_the_vectorized_path():
    """A count, group-by, join or star join over a table with no rows yet
    answers 0 / {} / 0 / 0, with the row interpreter's stats."""
    fast, reference = ColumnarExecutor(), PlaintextExecutor()
    for executor in (fast, reference):
        executor.append("R", [Record(values={"k": 1}, table="R")])
    queries = [
        CountQuery(table="E", predicate=RangePredicate("k", 0, 9)),
        GroupByCountQuery(table="E", group_attribute="k"),
        JoinCountQuery(
            left_table="E", right_table="R", left_attribute="k", right_attribute="k"
        ),
        MultiJoinCountQuery(join_tables=("R", "E", "R"), attributes=("k", "k", "k")),
        WindowedCountQuery(table="E", window=3),
    ]
    answers = [fast.execute_with_stats(q, rewrite=True) for q in queries]
    for query, answer in zip(queries, answers):
        assert answer == reference.execute_with_stats(query, rewrite=True)
    assert [a for a, _ in answers] == [0, {}, 0, 0, 0]
    assert list(fast._columnar) == ["R"]


def test_reading_an_unwritten_table_does_not_create_it():
    """A query over a table nothing was written to answers like the row
    interpreter and leaves no column store behind, so no later snapshot
    carries the table; a later write starts it from its first row."""
    edb = ObliDB()
    with row_interpreter():
        reference = ObliDB()
    for target in (edb, reference):
        target.setup([])
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
        assert edb.query(query) == reference.query(query)
        assert edb.query(query).answer in (0, {})
    assert "Nope" not in edb._executor._columnar
    rows = [Record(values={"k": i % 3}, table="Nope") for i in range(5)]
    for target in (edb, reference):
        target.update(rows, 1)
    for query in queries:
        assert edb.query(query) == reference.query(query)
    assert list(edb._executor._columnar) == ["Nope"]


def test_the_columnar_executor_keeps_no_rows():
    """The columns are the only plaintext copy: the executor is not a row
    interpreter, holds no ``Record`` and pickles only its value lists."""
    executor = ColumnarExecutor()
    executor.append("T", [Record(values={"a": i}, arrival_time=i, table="T") for i in range(4)])
    executor.execute(CountQuery(table="T", predicate=RangePredicate("a", 1, 2)))
    assert not isinstance(executor, PlaintextExecutor)
    assert not hasattr(executor, "tables")
    state = executor.__getstate__()
    assert set(state) == {"_columnar"}
    assert state["_columnar"]["T"].__getstate__() == {
        "columns": {"a": [0, 1, 2, 3]},
        "arrivals": [0, 1, 2, 3],
        "dummies": [False] * 4,
    }
