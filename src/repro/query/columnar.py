"""Vectorized (columnar) query execution -- the EDB fast path.

The row-at-a-time :class:`~repro.query.executor.PlaintextExecutor` evaluates
predicates with one Python call per record, which dominates end-to-end cost
on Figure-2-scale runs (oblivious operators touch *every* outsourced record
on *every* query).  :class:`ColumnarExecutor` keeps, next to the row mirror,
one NumPy column per attribute plus an ``is_dummy`` column, and one small
aggregate state per lowered plan for the paper's three query shapes:

* ``COUNT(*) WHERE p``                  -- rows seen and the count (a
  modulo count is this count, reduced by its query);
* ``SELECT g, COUNT(*) ... GROUP BY g`` -- rows seen and a ``Counter`` of
  the groups, which lists them in first-appearance order, so the answer dict
  is *identical* (including iteration order, which the L-DP back-end's noise
  draws depend on) to the row executor's ``Counter``;
* ``COUNT(*)`` of an equi-join          -- per side the rows seen, a key
  histogram and the filtered size, plus the running pair count.

Tables only grow between queries, so a query evaluates its plan's
predicates over the rows appended since the plan last ran (the *tail*) and
folds them in: a count adds the tail's matches, a group-by counts the
tail's keys, and a join adds ``ΔL·R' + L·ΔR`` (the insert delta of FO+MOD
maintenance, Berkholz et al., PAPERS.md), which keeps self-joins exact.  A
plan's first run folds the whole table.  A repeated query therefore costs
O(rows since it last ran), while its :class:`ExecutionStats` still report
the whole oblivious scan, and the cost model still charges it.  These folds
are the system's only incremental state: nothing is maintained on Update,
and the analyst's ground truth
(:class:`~repro.query.incremental.IncrementalTruth`) is one more executor
over the owners' logical tables.

A state starts over from row 0 when a column of a table it reads changes
dtype (``_consolidate``'s ``astype`` promotion), and :meth:`register` drops
every state.  States are derived: they are never pickled (nor is the
lowered-plan cache), so no snapshot generation carries them, and a restored
executor rebuilds each on its plan's first query.  A plan that cannot be
hashed folds from row 0 on every run.

Plans or predicates outside this fragment -- columns that are not plain
numeric arrays, NaN group or join keys, unknown attributes of a non-empty
table, star joins -- transparently fall back to the inherited row
interpreter, and windowed counts keep its row loop, so answers and
:class:`~repro.query.executor.ExecutionStats` are always bit-identical to
the reference executor; only the constant factor changes.  The differential
suite (``tests/test_edb_differential.py``) pins exactly that contract.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.edb.records import Record
from repro.query.ast import (
    CountNode,
    FilterNode,
    GroupByCountNode,
    JoinNode,
    PlanNode,
    ScanNode,
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


class _Unsupported(Exception):
    """Internal signal: this plan/predicate/column needs the row fallback."""


@dataclass
class _ColumnarTable:
    """Per-table column store maintained next to the row mirror.

    Attribute values are accumulated in plain lists on append (O(1) per
    record) and consolidated into NumPy arrays lazily, on the first query
    after a change -- flushes between query times therefore pay nothing.
    Tables whose records disagree on their attribute set degrade to the row
    fallback (``uniform`` is cleared) rather than guessing at missing values.
    """

    attributes: tuple[str, ...] | None = None
    values: dict[str, list] = field(default_factory=dict)
    dummies: list = field(default_factory=list)
    uniform: bool = True
    _buffers: dict[str, np.ndarray] = field(default_factory=dict)
    _kinds: dict[str, set] = field(default_factory=dict)
    _dummy_buffer: np.ndarray | None = None
    _built: int = 0

    def append(self, records: Iterable[Record]) -> int:
        """Append ``records`` in one pass; return how many are dummies."""
        dummies = 0
        for record in records:
            row = record.values
            if self.attributes is None:
                self.attributes = tuple(row)
                self.values = {attr: [] for attr in self.attributes}
            if self.uniform and len(row) == len(self.attributes):
                try:
                    for attr in self.attributes:
                        self.values[attr].append(row[attr])
                except KeyError:
                    self.uniform = False
            else:
                self.uniform = False
            if record.is_dummy:
                dummies += 1
            self.dummies.append(record.is_dummy)
        return dummies

    def __len__(self) -> int:
        return len(self.dummies)

    def _consolidate(self) -> None:
        """Convert only the tail appended since the last query into buffers.

        Buffers grow geometrically and are filled in place, so consolidation
        over a whole run is O(total records), not O(records x query times).
        A tail whose dtype does not match the buffer (e.g. floats arriving in
        an int column) promotes the buffer via one ``astype`` copy.
        """
        size = len(self.dummies)
        if self._built == size:
            return
        start = self._built
        for attr, column in self.values.items():
            self._kinds.setdefault(attr, set()).update(map(type, column[start:size]))
            tail = np.asarray(column[start:size])
            if tail.ndim != 1:
                tail = np.empty(size - start, dtype=object)
                tail[:] = column[start:size]
            buffer = self._buffers.get(attr)
            if buffer is None:
                buffer = np.empty(max(size, 16), dtype=tail.dtype)
            else:
                merged = np.result_type(buffer.dtype, tail.dtype)
                if merged != buffer.dtype:
                    buffer = buffer.astype(merged)
                if size > buffer.size:
                    grown = np.empty(max(size, 2 * buffer.size), dtype=buffer.dtype)
                    grown[:start] = buffer[:start]
                    buffer = grown
            buffer[start:size] = tail
            self._buffers[attr] = buffer
        dummy = self._dummy_buffer
        if dummy is None:
            dummy = np.empty(max(size, 16), dtype=bool)
        elif size > dummy.size:
            grown = np.empty(max(size, 2 * dummy.size), dtype=bool)
            grown[:start] = dummy[:start]
            dummy = grown
        dummy[start:size] = self.dummies[start:size]
        self._dummy_buffer = dummy
        self._built = size

    def signature(self) -> tuple | None:
        """The column dtypes, after consolidating: a fold over this table
        stays valid while they hold (``None`` once rows are non-uniform)."""
        if not self.uniform:
            return None
        self._consolidate()
        return tuple(buffer.dtype for buffer in self._buffers.values())

    def column(self, attribute: str, start: int = 0) -> np.ndarray:
        """Numeric column for ``attribute`` from row ``start`` on (raises
        ``_Unsupported`` otherwise).  A table with no rows yet reads as an
        empty column under any attribute."""
        if not self.uniform:
            raise _Unsupported(f"non-uniform table rows for {attribute!r}")
        self._consolidate()
        buffer = self._buffers.get(attribute)
        if buffer is None:
            if self._built:
                raise _Unsupported(f"unknown attribute {attribute!r}")
            return np.empty(0)
        if buffer.dtype.kind not in "biuf":
            raise _Unsupported(f"non-numeric column {attribute!r} ({buffer.dtype})")
        return buffer[start : self._built]

    def group_column(self, attribute: str, start: int = 0) -> np.ndarray:
        """Column usable as *group keys*: stricter than :meth:`column`.

        ``.tolist()`` on an int64/float64 array yields Python ``int``/
        ``float`` keys; that reproduces the row executor's key objects only
        when the source values were homogeneously integral or homogeneously
        floating.  A column that mixes the two (``2`` and ``3.5``) would
        promote ``2`` to ``2.0`` -- equal under ``==`` but different under
        JSON serialization -- so mixed columns take the row fallback.
        """
        array = self.column(attribute, start)
        kinds = self._kinds.get(attribute, set())
        homogeneous = (
            all(k is bool or issubclass(k, np.bool_) for k in kinds)
            or all(
                k is not bool and issubclass(k, (int, np.integer)) for k in kinds
            )
            or all(issubclass(k, (float, np.floating)) for k in kinds)
        )
        if not homogeneous:
            raise _Unsupported(f"mixed-type group column {attribute!r}")
        return array

    def dummy_mask(self, start: int = 0) -> np.ndarray:
        if not self.uniform:
            raise _Unsupported("non-uniform table rows")
        self._consolidate()
        if self._dummy_buffer is None:
            return np.zeros(0, dtype=bool)
        return self._dummy_buffer[start : self._built]


#: What a read sees of a table never written: reads never change an empty
#: store (consolidating zero rows is a no-op), so one instance serves all.
_EMPTY_TABLE = _ColumnarTable()


@dataclass
class _Fold:
    """One plan's aggregate over the rows it has folded in so far.

    ``signature`` holds its source tables' :meth:`_ColumnarTable.signature`
    and ``rows`` how many rows of each it has folded.  ``total`` is a
    count's answer (matching rows, or join pairs); ``counts`` holds a
    group-by's per-group counts, or each join side's key histogram, and
    ``sizes`` each join side's filtered row count.
    """

    signature: tuple
    rows: tuple[int, ...]
    total: int = 0
    counts: tuple[Counter, Counter] = field(
        default_factory=lambda: (Counter(), Counter())
    )
    sizes: tuple[int, int] = (0, 0)


class ColumnarExecutor(PlaintextExecutor):
    """Drop-in :class:`PlaintextExecutor` with vectorized aggregate paths.

    The row mirror (``self.tables``) is still maintained, so any plan the
    vectorized fragment does not cover is interpreted by the parent class
    over exactly the same data.
    """

    def __init__(self, tables: dict[str, list[Record]] | None = None) -> None:
        super().__init__(tables or {})
        self._columnar: dict[str, _ColumnarTable] = {}
        self._folds: dict[PlanNode, _Fold] = {}
        for table, rows in self.tables.items():
            store = self._columnar[table] = _ColumnarTable()
            store.append(rows)

    def __getstate__(self) -> dict:
        # Fold states and lowered plans are derived: no snapshot carries
        # them, and a restored executor rebuilds each on its first query.
        state = dict(self.__dict__)
        del state["_folds"], state["_plan_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._folds = {}
        self._plan_cache = {}

    # -- ingestion ----------------------------------------------------------

    def register(self, table: str, records: Iterable[Record]) -> None:
        rows = list(records)
        super().register(table, rows)
        store = self._columnar[table] = _ColumnarTable()
        store.append(rows)
        self._folds.clear()

    def append(self, table: str, records: Iterable[Record]) -> int:
        rows = list(records)
        self.tables.setdefault(table, []).extend(rows)
        return self._writable_store(table).append(rows)

    # -- execution ----------------------------------------------------------

    def execute_plan(self, plan: PlanNode) -> tuple[Answer, ExecutionStats]:
        """Vectorized interpretation, with row fallback outside the fragment."""
        try:
            return self._vector_plan(plan)
        except _Unsupported:
            return super().execute_plan(plan)

    # -- vectorized fragment -------------------------------------------------

    def _vector_plan(self, plan: PlanNode) -> tuple[Answer, ExecutionStats]:
        stats = ExecutionStats()
        if isinstance(plan, CountNode):
            child = plan.child
            if isinstance(child, JoinNode):
                answer = self._join_count(plan, child, stats)
            else:
                table = _table_of(child)
                store = self._store(table)
                fold = self._fold(plan, store)
                start = fold.rows[0]
                mask = self._source(child, store, start)
                size = len(store)
                fold.total += (
                    size - start if mask is None else int(np.count_nonzero(mask))
                )
                fold.rows = (size,)
                stats.rows_scanned += self._table_len(table)
                answer = fold.total
            stats.rows_output = answer
            return answer, stats
        if isinstance(plan, GroupByCountNode):
            table = _table_of(plan.child)
            store = self._store(table)
            fold = self._fold(plan, store)
            keys = self._keys(
                plan.child, plan.group_attribute, store, fold.rows[0], group=True
            )
            groups = fold.counts[0]
            groups.update(keys.tolist())
            fold.rows = (len(store),)
            stats.rows_scanned += self._table_len(table)
            return dict(groups), stats
        raise _Unsupported(f"plan shape {type(plan).__name__}")

    def _join_count(self, plan: CountNode, join: JoinNode, stats: ExecutionStats) -> int:
        left_table, right_table = _table_of(join.left), _table_of(join.right)
        left, right = self._store(left_table), self._store(right_table)
        fold = self._fold(plan, left, right)
        left_start, right_start = fold.rows
        left_tail = self._keys(join.left, join.left_attribute, left, left_start)
        right_tail = self._keys(join.right, join.right_attribute, right, right_start)
        # The join's insert delta is L·ΔR + ΔL·R', with R' = R + ΔR: exact
        # when both sides grow, self-joins included.
        left_tail, right_tail = left_tail.tolist(), right_tail.tolist()
        left_counts, right_counts = fold.counts
        fold.total += sum(map(left_counts.get, right_tail, repeat(0)))
        right_counts.update(right_tail)
        fold.total += sum(map(right_counts.get, left_tail, repeat(0)))
        left_counts.update(left_tail)
        fold.rows = (len(left), len(right))
        fold.sizes = (
            fold.sizes[0] + len(left_tail),
            fold.sizes[1] + len(right_tail),
        )
        stats.rows_scanned += self._table_len(left_table) + self._table_len(right_table)
        stats.join_pairs += fold.sizes[0] * fold.sizes[1]
        return fold.total

    def _fold(self, plan: PlanNode, *stores: _ColumnarTable) -> _Fold:
        """``plan``'s aggregate state over ``stores``, started over when a
        store's column dtypes changed since it was last extended."""
        signature = tuple(store.signature() for store in stores)
        try:
            fold = self._folds.get(plan)
        except TypeError:
            # A plan holding unhashable predicate values keeps no state.
            return _Fold(signature, (0,) * len(stores))
        if fold is None or fold.signature != signature:
            fold = self._folds[plan] = _Fold(signature, (0,) * len(stores))
        return fold

    def _keys(
        self,
        plan: PlanNode,
        attribute: str,
        store: _ColumnarTable,
        start: int,
        *,
        group: bool = False,
    ) -> np.ndarray:
        """Key column ``attribute`` of the rows from ``start`` on that
        ``plan``'s filters keep (checked as group keys with ``group``)."""
        mask = self._source(plan, store, start)
        keys = (store.group_column if group else store.column)(attribute, start)
        if mask is not None:
            keys = keys[mask]
        if keys.dtype.kind == "f" and np.isnan(keys).any():
            # The row executor's dicts match NaN keys by object identity
            # (NaN != NaN): rows sharing one NaN object form one group, and a
            # row's NaN joins itself.  Only the fallback reads those objects.
            raise _Unsupported(f"NaN keys in column {attribute!r}")
        return keys

    def _source(
        self, plan: PlanNode, store: _ColumnarTable, start: int
    ) -> np.ndarray | None:
        """Row mask (None = all rows) of a scan/filter chain over the rows of
        ``store`` from ``start`` on."""
        if isinstance(plan, ScanNode):
            return None
        if isinstance(plan, FilterNode):
            mask = self._source(plan.child, store, start)
            predicate_mask = self._mask(plan.predicate, store, start)
            if predicate_mask is None:
                return mask
            if mask is not None:
                predicate_mask = mask & predicate_mask
            return predicate_mask
        raise _Unsupported(f"source shape {type(plan).__name__}")

    def _store(self, table: str) -> _ColumnarTable:
        """``table``'s column store for a read: a table nothing was written
        to reads as the shared empty view and is not created."""
        return self._columnar.get(table, _EMPTY_TABLE)

    def _writable_store(self, table: str) -> _ColumnarTable:
        """``table``'s column store for a write, created on the first."""
        store = self._columnar.get(table)
        if store is None:
            store = self._columnar[table] = _ColumnarTable()
        return store

    def _table_len(self, table: str) -> int:
        return len(self.tables.get(table, ()))

    def _mask(
        self, predicate: Predicate, store: _ColumnarTable, start: int
    ) -> np.ndarray | None:
        """Boolean mask for ``predicate`` over the rows of ``store`` from
        ``start`` on (None = all rows)."""
        if isinstance(predicate, TruePredicate):
            return None
        if isinstance(predicate, NotDummyPredicate):
            return ~store.dummy_mask(start)
        if isinstance(predicate, RangePredicate):
            column = store.column(predicate.attribute, start)
            return (column >= predicate.low) & (column <= predicate.high)
        if isinstance(predicate, EqualityPredicate):
            column = store.column(predicate.attribute, start)
            if not isinstance(predicate.value, (int, float, np.number)):
                # Comparing a numeric column against a non-numeric constant
                # is row-wise False in the reference executor.
                return np.zeros(column.size, dtype=bool)
            return column == predicate.value
        if isinstance(predicate, AndPredicate):
            mask: np.ndarray | None = None
            for child in predicate.children:
                child_mask = self._mask(child, store, start)
                if child_mask is None:
                    continue
                mask = child_mask if mask is None else mask & child_mask
            return mask
        if isinstance(predicate, OrPredicate):
            if not predicate.children:
                # any(()) is False row-wise in the reference executor.
                return np.zeros(len(store) - start, dtype=bool)
            mask = None
            for child in predicate.children:
                child_mask = self._mask(child, store, start)
                if child_mask is None:
                    return None  # OR with an always-true child accepts all
                mask = child_mask if mask is None else mask | child_mask
            return mask
        if isinstance(predicate, NotPredicate):
            child_mask = self._mask(predicate.child, store, start)
            if child_mask is None:
                return np.zeros(len(store) - start, dtype=bool)
            return ~child_mask
        raise _Unsupported(f"predicate {type(predicate).__name__}")


def _table_of(plan: PlanNode) -> str:
    """The table a scan/filter chain reads."""
    while isinstance(plan, FilterNode):
        plan = plan.child
    if isinstance(plan, ScanNode):
        return plan.table
    raise _Unsupported(f"source shape {type(plan).__name__}")
