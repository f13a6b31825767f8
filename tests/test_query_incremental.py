"""The analyst's incremental ground truth.

:class:`~repro.query.incremental.IncrementalTruth` answers through the
columnar executor's tail fold and must answer exactly like a rescan of the
logical tables (:func:`repro.query.executor.ground_truth`).  Pinned here:

* **Units** -- a modulo count is reduced, group keys keep first-appearance
  order, a self-join row pairs with itself once, a star join matches the
  brute-force count, a window behind the newest arrival is answered, and
  only registered queries are answered.
* **Differential (the contract)** -- random interleavings of ingests (with
  dummies, late arrivals and NaN join keys), registrations mid-stream (no
  bootstrap) and answers, for every shape, against the rescan.
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
from repro.query.incremental import IncrementalTruth
from repro.query.predicates import RangePredicate

TABLES = ("Alpha", "Beta", "Gamma")
SCHEMAS = {name: Schema(name=name, attributes=("key", "value")) for name in TABLES}


def _record(table: str, key: float, value: int, time: int, dummy: bool = False):
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
# Units
# ---------------------------------------------------------------------------


def test_mod_count_stays_reduced():
    query = ModCountQuery(table="Alpha", modulus=3, label="m")
    truth = _truth(query, [_record("Alpha", 0, index, index) for index in range(8)])
    assert truth.answer(query) == 8 % 3


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


def test_a_window_behind_the_newest_arrival_answers_like_the_rescan():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    records = [_record("Alpha", 0, 0, tick) for tick in range(1, 11)]
    truth = _truth(query, records)
    assert truth.answer(query, 10) == 4  # (6, 10]
    assert truth.answer(query, 5) == 4  # (1, 5], behind the newest tick
    assert truth.answer(query, 12) == 2  # (8, 12]
    for time in range(0, 14):
        assert truth.answer(query, time) == ground_truth(
            query, {"Alpha": records}, time=time
        )


def test_windowed_ring_ignores_arrivals_older_than_its_horizon():
    query = WindowedCountQuery(table="Alpha", window=4, mode="sliding", label="w")
    truth = _truth(query, [_record("Alpha", 0, 0, 9), _record("Alpha", 0, 0, 5)])
    assert truth.answer(query, 9) == 1  # (5, 9] holds tick 9 only


def test_only_registered_queries_are_answered():
    query, other = QUERIES[0], QUERIES[1]
    truth = _truth(query, [_record("Alpha", 0, 1, 1)])
    assert truth.covers(query) and not truth.covers(other)
    with pytest.raises(KeyError, match="not registered"):
        truth.answer(other)


# ---------------------------------------------------------------------------
# Differential against the rescan
# ---------------------------------------------------------------------------


#: A join key, NaN one time in six (a fresh NaN object each time: the rescan
#: matches NaN keys by identity, and the columnar fold hands them to its row
#: fallback).
_key = st.integers(0, 5).map(lambda key: float("nan") if key == 5 else key)
_arrival = st.tuples(
    st.sampled_from(TABLES),
    _key,
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
    """Every shape -- counts, modulo counts, group-bys, joins and self-joins,
    star joins, sliding and tumbling windows -- answers like
    :func:`ground_truth` over the logical tables, whether registered up
    front or mid-stream (with no bootstrap), through late arrivals and NaN
    join keys; dummies reach the truth but never the logical tables."""
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
            truth.register(QUERIES[step[1]])
        for query in QUERIES:
            if truth.covers(query):
                assert truth.answer(query, time) == ground_truth(
                    query, logical, time=time
                ), query.name
