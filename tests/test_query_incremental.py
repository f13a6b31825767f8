"""The analyst's incrementally maintained ground truth.

:class:`~repro.query.incremental.IncrementalTruth` keeps one eager state per
registered query and must answer exactly like a rescan of the logical
tables (:func:`repro.query.executor.ground_truth`).  Pinned here:

* **State units** -- the modulo counter stays reduced, group keys keep
  first-appearance order, a self-join row pairs with itself once, the
  star-join delta telescopes to the brute-force count, and the windowed
  ring buffer evicts old ticks and refuses windows behind its horizon.
* **Fragment** -- exactly the six covered shapes are maintainable.
* **Differential** -- random interleavings of ingests, registrations (with
  bootstrap from the tables so far) and answers, for all six shapes,
  against the rescan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.records import Record, Schema, make_dummy_record
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    MultiJoinCountQuery,
    WindowedCountQuery,
)
from repro.query.executor import ground_truth
from repro.query.incremental import IncrementalTruth, StaleWindowError, can_maintain
from repro.query.predicates import RangePredicate

TABLES = ("Alpha", "Beta", "Gamma")
SCHEMAS = {name: Schema(name=name, attributes=("key", "value")) for name in TABLES}


def _record(table: str, key: int, value: int, time: int, dummy: bool = False):
    if dummy:
        return make_dummy_record(SCHEMAS[table], arrival_time=time)
    return Record(values={"key": key, "value": value}, arrival_time=time, table=table)


def _truth(query, records=()) -> IncrementalTruth:
    truth = IncrementalTruth()
    truth.register(query)
    for record in records:
        truth.ingest_one(record.table, record)
    return truth


QUERIES = (
    CountQuery(table="Alpha", predicate=RangePredicate("value", 0, 60), label="count"),
    ModCountQuery(table="Alpha", modulus=3, label="mod"),
    GroupByCountQuery(table="Beta", group_attribute="key", label="group"),
    JoinCountQuery(
        left_table="Alpha", right_table="Beta",
        left_attribute="key", right_attribute="key", label="join",
    ),
    JoinCountQuery(
        left_table="Alpha", right_table="Alpha",
        left_attribute="key", right_attribute="value",
        left_predicate=RangePredicate("value", 0, 4), label="self-join",
    ),
    MultiJoinCountQuery(
        join_tables=("Alpha", "Beta", "Gamma"),
        attributes=("key", "key", "key"),
        label="star",
    ),
    MultiJoinCountQuery(
        join_tables=("Alpha", "Alpha", "Beta"),
        attributes=("key", "value", "key"),
        label="self-star",
    ),
    WindowedCountQuery(
        table="Beta", window=5, predicate=RangePredicate("value", 2, 90),
        label="sliding",
    ),
    WindowedCountQuery(table="Gamma", window=4, mode="tumbling", label="tumbling"),
)


# ---------------------------------------------------------------------------
# State units
# ---------------------------------------------------------------------------


def test_mod_count_stays_reduced():
    query = ModCountQuery(table="Alpha", modulus=3, label="m")
    truth = _truth(query, [_record("Alpha", 0, index, index) for index in range(8)])
    assert truth.answer(query) == 8 % 3
    # O(1) state: the counter never grows unbounded.
    assert truth._states[query]._count < 3


def test_group_keys_keep_first_appearance_order():
    query = GroupByCountQuery(table="Alpha", group_attribute="key", label="g")
    truth = _truth(query, [_record("Alpha", key, 0, 0) for key in (3, 1, 3, 2, 1, 4)])
    assert list(truth.answer(query)) == [3, 1, 2, 4]
    assert truth.answer(query) == {3: 2, 1: 2, 2: 1, 4: 1}


def test_join_counts_a_self_pairing_once():
    query = JoinCountQuery(
        left_table="Alpha", right_table="Alpha",
        left_attribute="key", right_attribute="key", label="self-join",
    )
    truth = _truth(query, [_record("Alpha", 7, 0, 0)])
    assert truth.answer(query) == 1  # the record joins with itself
    truth.ingest_one("Alpha", _record("Alpha", 7, 1, 1))
    assert truth.answer(query) == 4  # 2x2 pairs on key 7


def test_self_join_bootstrap_reads_its_table_once():
    query = QUERIES[4]
    records = [_record("Alpha", key, key % 3, 0) for key in range(6)]
    truth = IncrementalTruth()
    truth.register(query, {"Alpha": records})
    assert truth.answer(query) == ground_truth(query, {"Alpha": records})


def test_star_join_telescoping_delta_matches_brute_force():
    query = QUERIES[5]
    truth = _truth(query)
    rng = np.random.default_rng(3)
    tables: dict[str, list] = {table: [] for table in TABLES}
    for step in range(60):
        table = TABLES[int(rng.integers(0, 3))]
        record = _record(table, int(rng.integers(0, 4)), step, step)
        tables[table].append(record)
        truth.ingest(table, [record])
        brute = sum(
            1
            for a in tables["Alpha"]
            for b in tables["Beta"]
            for c in tables["Gamma"]
            if a.get("key") == b.get("key") == c.get("key")
        )
        assert truth.answer(query) == brute


def test_windowed_ring_evicts_old_ticks_and_refuses_stale_windows():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    truth = _truth(query, [_record("Alpha", 0, 0, tick) for tick in range(1, 11)])
    # Exact at (or after) the newest tick: window (6, 10] holds 4 arrivals.
    assert truth.answer(query, 10) == 4
    assert truth.answer(query, 12) == 2  # (8, 12] holds ticks 9, 10
    with pytest.raises(StaleWindowError):
        truth.answer(query, 5)  # behind the retained horizon
    with pytest.raises(ValueError, match="needs a query time"):
        truth.answer(query)


def test_windowed_ring_ignores_arrivals_older_than_its_horizon():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    truth = _truth(query, [_record("Alpha", 0, 0, 9), _record("Alpha", 0, 0, 5)])
    assert truth.answer(query, 9) == 1  # tick 5 shares tick 9's slot


# ---------------------------------------------------------------------------
# Fragment
# ---------------------------------------------------------------------------


def test_exactly_the_six_shapes_are_maintainable():
    assert {type(query) for query in QUERIES if can_maintain(query)} == {
        CountQuery,
        ModCountQuery,
        GroupByCountQuery,
        JoinCountQuery,
        MultiJoinCountQuery,
        WindowedCountQuery,
    }

    class Uncovered(CountQuery):
        """A subclass is outside the fragment: no registered delta rule."""

    odd = Uncovered(table="Alpha", label="odd")
    assert not can_maintain(odd)
    assert not IncrementalTruth.can_maintain(odd)
    truth = IncrementalTruth()
    with pytest.raises(TypeError, match="not delta-maintainable"):
        truth.register(odd)
    assert not truth.covers(odd)
    with pytest.raises(KeyError, match="not registered"):
        truth.answer(odd)


# ---------------------------------------------------------------------------
# Differential against the rescan
# ---------------------------------------------------------------------------


_arrival = st.tuples(
    st.sampled_from(TABLES),
    st.integers(0, 4),  # key
    st.integers(0, 99),  # value
    st.integers(0, 3),  # ticks late
    st.booleans(),  # dummy
)
_step = st.one_of(
    st.tuples(st.just("ingest"), st.lists(_arrival, max_size=5)),
    st.tuples(st.just("register"), st.integers(0, len(QUERIES) - 1)),
)


@settings(max_examples=150, deadline=None)
@given(first=st.sets(st.integers(0, len(QUERIES) - 1)), steps=st.lists(_step, max_size=25))
def test_interleavings_answer_like_the_rescan(first, steps):
    """Queries registered up front or bootstrapped mid-stream answer every
    shape like :func:`ground_truth` over the logical tables; dummies reach
    the truth but never the logical tables."""
    truth = IncrementalTruth()
    for index in sorted(first):
        truth.register(QUERIES[index])
    logical: dict[str, list] = {table: [] for table in TABLES}
    time = 0
    for step in steps:
        if step[0] == "ingest":
            time += 1
            for table, key, value, late, dummy in step[1]:
                record = _record(table, key, value, max(time - late, 0), dummy)
                truth.ingest(table, [record])
                if not dummy:
                    logical[table].append(record)
        else:
            truth.register(QUERIES[step[1]], logical)
        for query in QUERIES:
            if truth.covers(query):
                assert truth.answer(query, time) == ground_truth(
                    query, logical, time=time
                ), query.name
