"""Incrementally maintained ground-truth aggregates.

The analyst's accuracy metric needs the *true* answer of every test query
over the owners' logical databases.  Recomputing it by rescanning every
logical table at every query time is ``O(|D_t|)`` per query; over a
month-long stream with queries every six hours that dwarfs the actual
synchronization work.  This module maintains the answers under insertions
instead -- the classic incremental-view-maintenance move (Berkholz et al.,
"Answering FO+MOD queries under updates", PAPERS.md): each arriving record
contributes an O(1) delta to every registered aggregate.

Covered shapes (:func:`can_maintain`): scalar count, group-by count, binary
join count, modulo / parity count (FO+MOD), multi-way star-join count (via
one key histogram per join side), and windowed counts (sliding + tumbling,
via a ring buffer of per-tick bucket sums; their answer takes the query
time as an :meth:`IncrementalTruth.answer` argument).

The maintained answers are *exactly* equal to a from-scratch rescan: all
arithmetic is integer and the per-group dict accumulates keys in first-seen
order, matching the executor's scan order over append-only logical tables.
States skip dummy records (logical streams carry none, so the skip is a
no-op here).  Queries outside the fragment are simply not covered and
callers fall back to :func:`repro.query.executor.ground_truth`.

The server side has no such eager state: the EDB's
:class:`~repro.query.columnar.ColumnarExecutor` folds the rows appended
since a plan last ran at query time instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.edb.records import Record
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    MultiJoinCountQuery,
    Query,
    WindowedCountQuery,
)
from repro.query.executor import Answer

__all__ = ["IncrementalTruth", "StaleWindowError", "can_maintain"]


class StaleWindowError(ValueError):
    """A windowed count was asked about a window older than its retained
    horizon (query time behind the newest ingested arrival tick).  The ring
    buffer holds only the newest ``window`` ticks, so such a query cannot be
    answered exactly from maintained state; a rescan with
    :func:`~repro.query.executor.ground_truth` can."""


# ---------------------------------------------------------------------------
# Maintained state, one class per query shape
# ---------------------------------------------------------------------------


class _CountState:
    """Maintains ``SELECT COUNT(*) FROM t WHERE p``."""

    def __init__(self, query: CountQuery) -> None:
        self._query = query
        self._count = 0

    def insert(self, table: str, record) -> None:
        if table != self._query.table or record.is_dummy:
            return
        if self._query.predicate.evaluate(record):
            self._count += 1

    def answer(self, time: int | None = None) -> Answer:
        return self._count


class _ModCountState(_CountState):
    """Maintains ``SELECT COUNT(*) % m FROM t WHERE p`` (FO+MOD counting).

    The running count is kept reduced -- the whole point of the fragment is
    that the maintained state is O(1), independent of the database.
    """

    def insert(self, table: str, record) -> None:
        super().insert(table, record)
        self._count %= self._query.modulus


class _GroupByCountState:
    """Maintains ``SELECT g, COUNT(*) FROM t WHERE p GROUP BY g``.

    The Counter acquires keys in insertion (= scan first-appearance) order.
    """

    def __init__(self, query: GroupByCountQuery) -> None:
        self._query = query
        self._groups: Counter = Counter()

    def insert(self, table: str, record) -> None:
        if table != self._query.table or record.is_dummy:
            return
        if self._query.predicate.evaluate(record):
            self._groups[record.get(self._query.group_attribute)] += 1

    def answer(self, time: int | None = None) -> Answer:
        return dict(self._groups)


class _JoinCountState:
    """Maintains a binary join count via per-side key histograms.

    Inserting a left row with key ``k`` adds ``H_right[k]`` join pairs (and
    symmetrically); a self-join row matching both sides on the same key also
    pairs with itself.
    """

    def __init__(self, query: JoinCountQuery) -> None:
        self._query = query
        self._left: Counter = Counter()
        self._right: Counter = Counter()
        self._pairs = 0

    def insert(self, table: str, record) -> None:
        query = self._query
        if record.is_dummy:
            return
        in_left = table == query.left_table and query.left_predicate.evaluate(
            record
        )
        in_right = table == query.right_table and query.right_predicate.evaluate(
            record
        )
        if not in_left and not in_right:
            return
        left_key = record.get(query.left_attribute) if in_left else None
        right_key = record.get(query.right_attribute) if in_right else None
        if in_left:
            self._pairs += self._right[left_key]
        if in_right:
            self._pairs += self._left[right_key]
        if in_left and in_right and left_key == right_key:
            # The record joins with itself once.
            self._pairs += 1
        if in_left:
            self._left[left_key] += 1
        if in_right:
            self._right[right_key] += 1

    def answer(self, time: int | None = None) -> Answer:
        return self._pairs


class _MultiJoinCountState:
    """Maintains a star-join count via one key histogram per join side.

    The count is ``sum_k prod_i H_i[k]``; the insert delta telescopes the
    product one side at a time (sides already updated for this record use
    their *new* histogram, later sides their old one), which stays exact even
    when one record matches several sides of the same star.
    """

    def __init__(self, query: MultiJoinCountQuery) -> None:
        self._query = query
        self._sides: list[Counter] = [Counter() for _ in query.join_tables]
        self._pairs = 0

    def insert(self, table: str, record) -> None:
        if record.is_dummy:
            return
        for index, (side_table, attribute, predicate) in enumerate(
            self._query.sides()
        ):
            if table != side_table or not predicate.evaluate(record):
                continue
            key = record.get(attribute)
            delta = 1
            for other_index, histogram in enumerate(self._sides):
                if other_index == index:
                    continue
                delta *= histogram[key]
                if not delta:
                    break
            self._pairs += delta
            self._sides[index][key] += 1

    def answer(self, time: int | None = None) -> Answer:
        return self._pairs


class _WindowedCountState:
    """Maintains a windowed count via a ring buffer of per-tick bucket sums.

    Slot ``tick % window`` holds the filtered count of arrivals at ``tick``;
    a newer arrival landing on an occupied slot evicts a bucket that is at
    least ``window`` ticks older, which no later (monotone-time) query window
    can contain, so answers stay exact.  ``answer`` sums the <= ``window``
    live buckets inside the query's window bounds -- O(window), independent
    of the database size.
    """

    def __init__(self, query: WindowedCountQuery) -> None:
        self._query = query
        self._counts = [0] * query.window
        self._ticks: list[int | None] = [None] * query.window
        self._max_tick: int | None = None

    def insert(self, table: str, record) -> None:
        query = self._query
        if table != query.table or record.is_dummy:
            return
        if not query.predicate.evaluate(record):
            return
        tick = record.arrival_time
        slot = tick % query.window
        held = self._ticks[slot]
        if held is not None and held > tick:
            # Out-of-order arrival older than the retained horizon: it can
            # never fall inside a window queried at or after the newer tick.
            return
        if held != tick:
            self._ticks[slot] = tick
            self._counts[slot] = 0
        self._counts[slot] += 1
        if self._max_tick is None or tick > self._max_tick:
            self._max_tick = tick

    def answer(self, time: int | None = None) -> Answer:
        if time is None:
            raise ValueError(
                f"windowed query {self._query.name!r} needs a query time"
            )
        if self._max_tick is not None and time < self._max_tick:
            # The ring retains only the newest `window` ticks; a window
            # ending before the newest ingested arrival may reach evicted
            # buckets.  (Never hit under the simulator's monotone clock,
            # where queries at time t only follow arrivals <= t.)
            raise StaleWindowError(
                f"windowed query {self._query.name!r} asked at time {time} "
                f"behind the retained horizon (newest tick {self._max_tick})"
            )
        start, end = self._query.window_bounds(time)
        total = 0
        for slot, tick in enumerate(self._ticks):
            if tick is not None and start < tick <= end:
                total += self._counts[slot]
        return total


_STATE_TYPES = {
    CountQuery: _CountState,
    ModCountQuery: _ModCountState,
    GroupByCountQuery: _GroupByCountState,
    JoinCountQuery: _JoinCountState,
    MultiJoinCountQuery: _MultiJoinCountState,
    WindowedCountQuery: _WindowedCountState,
}


def can_maintain(query: Query) -> bool:
    """Whether ``query``'s shape has an incremental maintenance rule (an
    exact shape match: a subclass may change the semantics)."""
    return type(query) in _STATE_TYPES


class IncrementalTruth:
    """Maintains ground-truth answers for registered queries under inserts.

    Records must be fed exactly once, in arrival order, via :meth:`ingest` /
    :meth:`ingest_one` -- in the simulator that is the initial database at
    setup plus every logical update as it is delivered.  Queries registered
    later can be bootstrapped from the current logical tables.
    """

    def __init__(self) -> None:
        self._states: dict[Query, object] = {}
        #: The states observing each table, so an ingest visits only those.
        self._observers: dict[str, list] = {}

    can_maintain = staticmethod(can_maintain)

    def covers(self, query: Query) -> bool:
        """Whether the query is registered (and hence answerable in O(1))."""
        return query in self._states

    def register(
        self,
        query: Query,
        tables: Mapping[str, Sequence[Record]] | None = None,
    ) -> None:
        """Start maintaining ``query``; idempotent for already-known queries.

        ``tables`` bootstraps the state from records ingested before
        registration (pass the current logical tables); omit it when
        registering before any ingest.  Raises ``TypeError`` for a shape
        outside :func:`can_maintain`.
        """
        if query in self._states:
            return
        state_type = _STATE_TYPES.get(type(query))
        if state_type is None:
            raise TypeError(
                f"query shape {type(query).__name__} is not delta-maintainable"
            )
        state = state_type(query)
        # Each table once: a self-join names its table on both sides.
        observed = tuple(dict.fromkeys(query.tables))
        for table in observed:
            for record in (tables or {}).get(table, ()):
                state.insert(table, record)
        self._states[query] = state
        for table in observed:
            self._observers.setdefault(table, []).append(state)

    def ingest(self, table: str, records: Iterable[Record]) -> None:
        """Apply a batch of inserted records to every registered aggregate."""
        observers = self._observers.get(table)
        if observers:
            for record in records:
                for state in observers:
                    state.insert(table, record)

    def ingest_one(self, table: str, record: Record) -> None:
        """Apply one inserted record to every registered aggregate."""
        for state in self._observers.get(table, ()):
            state.insert(table, record)

    def answer(self, query: Query, time: int | None = None) -> Answer:
        """The maintained ground-truth answer of a registered query.

        ``time`` is required for windowed queries (their answer is relative
        to the query time) and ignored by every other shape.
        """
        state = self._states.get(query)
        if state is None:
            raise KeyError(f"query {query.name!r} is not registered")
        return state.answer(time)
