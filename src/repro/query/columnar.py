"""Columnar query execution -- the EDB's query path and its one plaintext copy.

:class:`ColumnarExecutor` keeps each table as columns: one Python list per
attribute holding the original value objects (``None`` where a row lacks
the attribute, as :meth:`Record.get <repro.edb.records.Record.get>` reads
it), the rows' arrival times and their dummy flags.  It keeps no
:class:`~repro.edb.records.Record`.  NumPy copies of a list are derived on
read, and only for lists whose values are all ``bool``, all ``int`` or all
``float``; a predicate over any other column is evaluated per value.

Every query shape is answered from these columns, with one small aggregate
state per lowered plan:

* ``COUNT(*) WHERE p`` -- rows seen and the count (a modulo count is this
  count, reduced by its query);
* ``SELECT g, COUNT(*) ... GROUP BY g`` -- rows seen and a ``Counter`` of
  the groups;
* ``COUNT(*)`` of a binary or star equi-join -- per side the rows seen, a
  key ``Counter`` and the filtered size, plus the star count of every
  prefix of the sides.

Tables only grow between queries, so a query evaluates its plan's
predicates over the rows appended since the plan last ran (the *tail*) and
folds them in: a count adds the tail's matches, a group-by counts the
tail's keys, and a join side's new key adds the product of the other
sides' counts at that key (the insert delta of FO+MOD maintenance,
Berkholz et al., PAPERS.md), which keeps self-joins exact.  A plan's first
run folds the whole table, so a repeated query costs O(rows since it last
ran), while its :class:`~repro.query.executor.ExecutionStats` still report
the whole oblivious scan.  A windowed count masks the arrival column of the
whole table.

Group and join keys are the stored value objects themselves, so key types,
first-appearance order and NaN identity (the row interpreter's dicts tell
NaN objects apart by identity) are exactly the row interpreter's, and
answers and stats are those of
:class:`~repro.query.executor.PlaintextExecutor` over the same records,
which ``tests/test_edb_differential.py`` pins.  A value compared one by one
is compared only on the rows the row interpreter's short-circuiting reaches,
so a comparison that raises (a string against a numeric range) raises on
both or on neither.

Aggregate states and lowered plans are derived: they are never pickled, so
no snapshot generation carries them, and a restored executor rebuilds each
on its plan's first query.  A plan that cannot be hashed folds from row 0
on every run.  These folds are the system's only incremental state: the
analyst's ground truth (:class:`~repro.query.incremental.IncrementalTruth`)
is one more executor over the owners' logical tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import mul, not_
from typing import Callable, Iterable

import numpy as np

from repro.edb.records import Record
from repro.query.ast import (
    CountNode,
    FilterNode,
    GroupByCountNode,
    JoinNode,
    PlanNode,
    Query,
    ScanNode,
    WindowedCountQuery,
)
from repro.query.executor import Answer, ExecutionStats, PlaintextExecutor
from repro.query.predicates import (
    AndPredicate,
    EqualityPredicate,
    NotDummyPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
)

__all__ = ["ColumnarExecutor"]

#: The value types a column may hold for a NumPy copy, and its dtype.
_DTYPES = {bool: np.dtype(bool), int: np.dtype(np.int64), float: np.dtype(np.float64)}


@dataclass
class _ColumnarTable:
    """One table's columns, the server's plaintext copy of its records.

    Appends are O(1) a record; the NumPy copies (``_derived``, each with the
    row count it covers) are extended on the first read after a change, so
    flushes between query times pay nothing for them.  Only the lists are
    pickled.
    """

    columns: dict[str, list] = field(default_factory=dict)
    arrivals: list = field(default_factory=list)
    dummies: list = field(default_factory=list)
    _derived: dict[object, tuple[np.ndarray | None, int]] = field(default_factory=dict)

    def __getstate__(self) -> dict:
        return {"columns": self.columns, "arrivals": self.arrivals, "dummies": self.dummies}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}

    def append(self, records: Iterable[Record]) -> int:
        """Append ``records`` in one pass; return how many are dummies."""
        columns, arrivals, flags = self.columns, self.arrivals, self.dummies
        dummies = 0
        for record in records:
            row = record.values
            if row.keys() == columns.keys():
                for attribute, column in columns.items():
                    column.append(row[attribute])
            else:
                for attribute in row:
                    if attribute not in columns:
                        columns[attribute] = [None] * len(flags)
                for attribute, column in columns.items():
                    column.append(row.get(attribute))
            arrivals.append(record.arrival_time)
            flags.append(record.is_dummy)
            if record.is_dummy:
                dummies += 1
        return dummies

    def __len__(self) -> int:
        return len(self.dummies)

    def column(self, attribute: str) -> list:
        """The values of ``attribute``, one a row (``None`` for every row
        when no row has it)."""
        column = self.columns.get(attribute)
        return [None] * len(self) if column is None else column

    def numeric(self, attribute: str, start: int) -> np.ndarray | None:
        """NumPy copy of ``attribute``'s values from row ``start`` on, or
        ``None`` when the column has none."""
        column = self.columns.get(attribute)
        return None if column is None else self.array(attribute, column, start)

    def array(self, key: object, values: list, start: int) -> np.ndarray | None:
        """NumPy copy of ``values[start:]``, kept under ``key``; ``None``
        once ``values`` holds a value not of the one type (``bool``, ``int``
        or ``float``) of all the others, or an int beyond 64 bits."""
        size = len(values)
        array, built = self._derived.get(key, (None, 0))
        if built < size and (array is not None or not built):
            array = _extended(array, built, values[built:])
            self._derived[key] = (array, size)
        return None if array is None else array[start:size]


def _extended(array: np.ndarray | None, built: int, tail: list) -> np.ndarray | None:
    """``array`` (``built`` rows) extended by ``tail`` in capacity-doubling
    storage, or ``None`` when ``tail`` has no exact NumPy copy of its dtype."""
    kinds = set(map(type, tail))
    dtype = _DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
    if dtype is None or (array is not None and array.dtype != dtype):
        return None
    try:
        converted = np.array(tail, dtype=dtype)
    except OverflowError:
        return None
    size = built + len(tail)
    if array is None or size > array.size:
        grown = np.empty(max(size, 16, 2 * built), dtype=dtype)
        if array is not None:
            grown[:built] = array[:built]
        array = grown
    array[built:size] = converted
    return array


#: What a read sees of a table never written: reads of an empty store change
#: nothing, so one instance serves all.
_EMPTY_TABLE = _ColumnarTable()

#: Cache keys of the arrival and dummy columns, apart from attribute names.
_ARRIVALS, _DUMMIES = object(), object()


@dataclass
class _Fold:
    """One plan's aggregate over the rows it has folded in so far.

    ``rows`` holds how many rows of each source it has folded.  ``total``
    is a count's answer; ``counts`` holds a group-by's per-group counts, or
    each join side's key counts, ``sizes`` each join side's filtered row
    count and ``stars[m - 1]`` the star count of sides ``0..m``.
    """

    rows: list[int]
    total: int = 0
    counts: list[Counter] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    stars: list[int] = field(default_factory=list)

    @classmethod
    def over(cls, sources: int) -> "_Fold":
        return cls(
            [0] * sources,
            counts=[Counter() for _ in range(sources)],
            sizes=[0] * sources,
            stars=[0] * (sources - 1),
        )


class ColumnarExecutor:
    """Answers every query shape from per-table columns, folding each
    plan's aggregate over the rows appended since it last ran."""

    def __init__(self) -> None:
        self._columnar: dict[str, _ColumnarTable] = {}
        self._folds: dict[PlanNode, _Fold] = {}
        self._plan_cache: dict[tuple[Query, bool], PlanNode] = {}

    def __getstate__(self) -> dict:
        # Fold states and lowered plans are derived: no snapshot carries
        # them, and a restored executor rebuilds each on its first query.
        return {"_columnar": self._columnar}

    def __setstate__(self, state: dict) -> None:
        self._columnar = state["_columnar"]
        self._folds = {}
        self._plan_cache = {}

    def append(self, table: str, records: Iterable[Record]) -> int:
        """Append records to ``table`` (creating it); return the dummy count."""
        store = self._columnar.get(table)
        if store is None:
            store = self._columnar[table] = _ColumnarTable()
        return store.append(records)

    # -- execution ----------------------------------------------------------

    execute = PlaintextExecutor.execute

    def execute_with_stats(
        self, query: Query, rewrite: bool = False, time: int = 0
    ) -> tuple[Answer, ExecutionStats]:
        """The row interpreter's lowering, plan cache and dispatch, run on
        this executor; looked up per call, so a span wrapped around it
        (``perfbench/spans.py``'s ``query.columnar.scan``) times it too."""
        return PlaintextExecutor.execute_with_stats(self, query, rewrite, time)

    def execute_plan(self, plan: PlanNode) -> tuple[Answer, ExecutionStats]:
        """Answer a count, group-by count or join count plan."""
        if isinstance(plan, CountNode) and isinstance(plan.child, JoinNode):
            return self._join_count(plan, _star_sides(plan.child))
        if isinstance(plan, CountNode):
            store = self._store(_table_of(plan.child))
            fold = self._fold(plan, 1)
            start, size = fold.rows[0], len(store)
            mask = self._source(plan.child, store, start)
            fold.total += size - start if mask is None else int(np.count_nonzero(mask))
            fold.rows[0] = size
            return fold.total, ExecutionStats(rows_scanned=size, rows_output=fold.total)
        if isinstance(plan, GroupByCountNode):
            store = self._store(_table_of(plan.child))
            fold = self._fold(plan, 1)
            groups = fold.counts[0]
            groups.update(self._keys(plan.child, plan.group_attribute, store, fold.rows[0]))
            fold.rows[0] = len(store)
            return dict(groups), ExecutionStats(rows_scanned=len(store))
        raise TypeError(f"no columnar answer for plan {type(plan).__name__}")

    def _join_count(
        self, plan: CountNode, sides: list[tuple[PlanNode, str]]
    ) -> tuple[int, ExecutionStats]:
        """A binary or star join count: each side's new keys fold into the
        star count of every prefix of the sides, which is also what the
        row plan's cascade of binary joins counts at each step."""
        fold = self._fold(plan, len(sides))
        stores = [self._store(_table_of(source)) for source, _ in sides]
        tails = [
            self._keys(source, attribute, store, start)
            for (source, attribute), store, start in zip(sides, stores, fold.rows)
        ]
        counts, stars = fold.counts, fold.stars
        for side, tail in enumerate(tails):
            # A key new on ``side`` adds, to the star count of every prefix
            # holding that side, the product of the prefix's other sides'
            # counts at the key; the sides before it already hold their tails.
            weights: list[int] | None = None
            for other, other_counts in enumerate(counts):
                if other != side:
                    hits = map(other_counts.get, tail, repeat(0))
                    weights = list(hits) if weights is None else list(map(mul, weights, hits))
                if other >= side and other:
                    stars[other - 1] += sum(weights)
            counts[side].update(tail)
        # Rows advance only now, so a key that cannot be hashed stays in the
        # tail and raises on every run, as it does in the row interpreter.
        fold.rows = [len(store) for store in stores]
        sizes = fold.sizes = [size + len(tail) for size, tail in zip(fold.sizes, tails)]
        pairs = sizes[0] * sizes[1] + sum(map(mul, stars, sizes[2:]))
        stats = ExecutionStats(
            rows_scanned=sum(map(len, stores)), rows_output=stars[-1], join_pairs=pairs
        )
        return stars[-1], stats

    def _execute_windowed(
        self, query: WindowedCountQuery, rewrite: bool, time: int
    ) -> tuple[int, ExecutionStats]:
        """A windowed count: a mask over the whole arrival column."""
        store = self._store(query.table)
        low, high = query.window_bounds(time)
        arrivals = store.array(_ARRIVALS, store.arrivals, 0)
        mask = _compare(
            arrivals, (low, high), lambda column: (column > low) & (column <= high),
            lambda arrival: low < arrival <= high, store.arrivals, 0, None,
        )
        if rewrite:
            mask &= self._mask(NotDummyPredicate(), store, 0, None)
        predicate = self._mask(query.predicate, store, 0, mask)
        if predicate is not None:
            mask &= predicate
        count = int(np.count_nonzero(mask))
        return count, ExecutionStats(rows_scanned=len(store), rows_output=count)

    # -- folds and masks -----------------------------------------------------

    def _fold(self, plan: PlanNode, sources: int) -> _Fold:
        """``plan``'s aggregate state over its ``sources`` tables."""
        try:
            fold = self._folds.get(plan)
        except TypeError:
            # A plan holding unhashable predicate values keeps no state.
            return _Fold.over(sources)
        if fold is None:
            fold = self._folds[plan] = _Fold.over(sources)
        return fold

    def _keys(
        self, plan: PlanNode, attribute: str, store: _ColumnarTable, start: int
    ) -> list:
        """The stored ``attribute`` values of the rows from ``start`` on that
        ``plan``'s filters keep."""
        values = store.column(attribute)[start:]
        mask = self._source(plan, store, start)
        return values if mask is None else list(compress(values, mask.tolist()))

    def _source(
        self, plan: PlanNode, store: _ColumnarTable, start: int
    ) -> np.ndarray | None:
        """Row mask (None = all rows) of a scan/filter chain over the rows of
        ``store`` from ``start`` on."""
        if isinstance(plan, ScanNode):
            return None
        if isinstance(plan, FilterNode):
            mask = self._source(plan.child, store, start)
            predicate_mask = self._mask(plan.predicate, store, start, mask)
            if predicate_mask is None or mask is None:
                return mask if predicate_mask is None else predicate_mask
            return mask & predicate_mask
        raise TypeError(f"no columnar answer for source {type(plan).__name__}")

    def _store(self, table: str) -> _ColumnarTable:
        """``table``'s column store for a read: a table nothing was written
        to reads as the shared empty view and is not created."""
        return self._columnar.get(table, _EMPTY_TABLE)

    def _mask(
        self, predicate: Predicate, store: _ColumnarTable, start: int, live: np.ndarray | None
    ) -> np.ndarray | None:
        """Boolean mask for ``predicate`` over the rows of ``store`` from
        ``start`` on (None = all rows), exact on the rows ``live`` marks
        (None = all).  Values compared one by one are compared on those rows
        only, and an AND child on the rows its earlier siblings accept: the
        rows the row interpreter's short-circuiting evaluates it on."""
        if isinstance(predicate, TruePredicate):
            return None
        if isinstance(predicate, NotDummyPredicate):
            flags = store.array(_DUMMIES, store.dummies, start)
            return _compare(flags, (), np.logical_not, not_, store.dummies, start, live)
        if isinstance(predicate, RangePredicate):
            low, high = predicate.low, predicate.high
            return _compare(
                store.numeric(predicate.attribute, start), (low, high),
                lambda column: (column >= low) & (column <= high),
                lambda value: value is not None and low <= value <= high,
                store.column(predicate.attribute), start, live,
            )
        if isinstance(predicate, EqualityPredicate):
            constant = predicate.value
            return _compare(
                store.numeric(predicate.attribute, start), (constant,),
                lambda column: column == constant, lambda value: value == constant,
                store.column(predicate.attribute), start, live,
            )
        if isinstance(predicate, AndPredicate):
            # Exact on the rows first ``live`` marks, False on the others.
            for child in predicate.children:
                child_mask = self._mask(child, store, start, live)
                if child_mask is not None:
                    live = child_mask if live is None else live & child_mask
            return live
        if isinstance(predicate, OrPredicate):
            # any() stops at the first true child as all() of the negations
            # stops at the first false one.
            negations = tuple(map(NotPredicate, predicate.children))
            return self._mask(NotPredicate(AndPredicate(negations)), store, start, live)
        if isinstance(predicate, NotPredicate):
            child_mask = self._mask(predicate.child, store, start, live)
            if child_mask is None:
                return np.zeros(len(store) - start, dtype=bool)
            return ~child_mask
        raise TypeError(f"no columnar answer for predicate {type(predicate).__name__}")


def _exact(kind: str, *constants: object) -> bool:
    """Whether NumPy compares a column of dtype ``kind`` with each of
    ``constants`` exactly as Python compares each stored value with it."""
    for constant in constants:
        if type(constant) is int:
            if not -(2**63) <= constant < 2**63 or (kind == "f" and float(constant) != constant):
                return False
        elif type(constant) is float:
            # An int64 column meets a float in float64, which rounds past 2**53.
            if kind == "i":
                return False
        elif type(constant) is not bool:
            return False
    return True


def _compare(
    array: np.ndarray | None,
    constants: tuple,
    vectorized: Callable[[np.ndarray], np.ndarray],
    per_value: Callable[[object], object],
    values: list,
    start: int,
    live: np.ndarray | None,
) -> np.ndarray:
    """Boolean mask of ``values[start:]``: ``vectorized`` over ``array``,
    their NumPy copy, when it compares exactly with ``constants``, else
    ``per_value`` of each value ``live`` marks (None = all), False for the
    others."""
    if array is not None and _exact(array.dtype.kind, *constants):
        return vectorized(array)
    tail = values[start:]
    if live is None:
        return np.fromiter(map(per_value, tail), dtype=bool, count=len(tail))
    mask = np.zeros(len(tail), dtype=bool)
    mask[live] = np.fromiter(map(per_value, compress(tail, live.tolist())), dtype=bool)
    return mask


def _table_of(plan: PlanNode) -> str:
    """The table a scan/filter chain reads."""
    while isinstance(plan, FilterNode):
        plan = plan.child
    if isinstance(plan, ScanNode):
        return plan.table
    raise TypeError(f"no columnar answer for source {type(plan).__name__}")


def _star_sides(join: JoinNode) -> list[tuple[PlanNode, str]]:
    """The ``(source, key attribute)`` sides of a left-deep join cascade
    whose every step probes the first side's key: a star join (a binary
    join is the one-step case)."""
    sides = []
    node: PlanNode = join
    while isinstance(node, JoinNode):
        if node.left_attribute != join.left_attribute:
            raise TypeError("no columnar answer for a join that is not a star")
        sides.append((node.right, node.right_attribute))
        node = node.left
    sides.append((node, join.left_attribute))
    return sides[::-1]
