"""Vectorized (columnar) query execution -- the EDB fast path.

The row-at-a-time :class:`~repro.query.executor.PlaintextExecutor` evaluates
predicates with one Python call per record, which dominates end-to-end cost
on Figure-2-scale runs (oblivious operators touch *every* outsourced record
on *every* query).  :class:`ColumnarExecutor` keeps, next to the row mirror,
one NumPy column per attribute plus an ``is_dummy`` column, and evaluates the
paper's three query shapes in one vectorized pass each:

* ``COUNT(*) WHERE p``                  -- one boolean-mask reduction;
* ``SELECT g, COUNT(*) ... GROUP BY g`` -- one factorize + bincount pass,
  with groups emitted in first-appearance order so the answer dict is
  *identical* (including iteration order, which the L-DP back-end's noise
  draws depend on) to the row executor's ``Counter``;
* ``COUNT(*)`` of an equi-join          -- per-side key histograms joined on
  the intersection of key sets (the cost model still charges the oblivious
  back-ends quadratically, matching the paper's O(N^2) discussion for Q3).

Plans or predicates outside this fragment -- and columns that are not plain
numeric arrays -- transparently fall back to the inherited row interpreter,
so answers and :class:`~repro.query.executor.ExecutionStats` are always
bit-identical to the reference executor; only the constant factor changes.
The differential suite (``tests/test_edb_differential.py``) pins exactly
that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    # -- delta snapshots -----------------------------------------------------

    def marks(self) -> tuple[int, int, dict]:
        """Where a later :meth:`tail` starts: rows, consolidated rows and
        the column buffers' dtypes."""
        return (
            len(self.dummies),
            self._built,
            {attr: buffer.dtype for attr, buffer in self._buffers.items()},
        )

    def tail(self, marks: tuple[int, int, dict]) -> dict:
        """Everything this table gained since ``marks`` (:meth:`extend`
        applies it): the value and dummy tails, the consolidated buffer
        tails, and the small rest whole.

        A buffer promoted since ``marks`` was rewritten by ``astype``, so
        it travels whole; a column frozen by a non-uniform row is never
        longer than the row count of ``marks``, so its tail is empty.
        """
        rows, built, dtypes = marks
        buffers = {}
        for attr, buffer in self._buffers.items():
            start = built if dtypes.get(attr) == buffer.dtype else 0
            buffers[attr] = (start, buffer[start : self._built])
        dummy = self._dummy_buffer
        return {
            "attributes": self.attributes,
            "uniform": self.uniform,
            "values": {attr: column[rows:] for attr, column in self.values.items()},
            "dummies": self.dummies[rows:],
            "kinds": self._kinds,
            "built": self._built,
            "buffers": buffers,
            "dummy_buffer": None if dummy is None else dummy[built : self._built],
        }

    def extend(self, tail: dict) -> None:
        """Apply a :meth:`tail` taken at this table's current marks."""
        self.attributes = tail["attributes"]
        self.uniform = tail["uniform"]
        for attr, values in tail["values"].items():
            self.values.setdefault(attr, []).extend(values)
        self.dummies.extend(tail["dummies"])
        self._kinds = tail["kinds"]
        for attr, (start, part) in tail["buffers"].items():
            prefix = self._buffers.get(attr)
            self._buffers[attr] = (
                np.concatenate((prefix[:start], part)) if start else part
            )
        dummy = tail["dummy_buffer"]
        if dummy is not None:
            if self._dummy_buffer is not None:
                dummy = np.concatenate((self._dummy_buffer[: self._built], dummy))
            self._dummy_buffer = dummy
        self._built = tail["built"]

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

    def column(self, attribute: str) -> np.ndarray:
        """Numeric column for ``attribute`` (raises ``_Unsupported`` otherwise)."""
        if not self.uniform:
            raise _Unsupported(f"non-uniform table rows for {attribute!r}")
        self._consolidate()
        buffer = self._buffers.get(attribute)
        if buffer is None:
            raise _Unsupported(f"unknown attribute {attribute!r}")
        if buffer.dtype.kind not in "biuf":
            raise _Unsupported(f"non-numeric column {attribute!r} ({buffer.dtype})")
        return buffer[: self._built]

    def group_column(self, attribute: str) -> np.ndarray:
        """Column usable as *group keys*: stricter than :meth:`column`.

        ``.item()`` on an int64/float64 array yields a Python ``int``/
        ``float``; that reproduces the row executor's key objects only when
        the source values were homogeneously integral or homogeneously
        floating.  A column that mixes the two (``2`` and ``3.5``) would
        promote ``2`` to ``2.0`` -- equal under ``==`` but different under
        JSON serialization -- so mixed columns take the row fallback.
        """
        array = self.column(attribute)
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
        if array.dtype.kind == "f" and np.isnan(array).any():
            # np.unique collapses every NaN into one group, but the row
            # executor's dict keeps distinct NaN objects as distinct keys
            # (NaN != NaN): only the fallback reproduces that.
            raise _Unsupported(f"NaN group keys in column {attribute!r}")
        return array

    def dummy_mask(self) -> np.ndarray:
        if not self.uniform:
            raise _Unsupported("non-uniform table rows")
        self._consolidate()
        if self._dummy_buffer is None:
            return np.zeros(0, dtype=bool)
        return self._dummy_buffer[: self._built]


class ColumnarExecutor(PlaintextExecutor):
    """Drop-in :class:`PlaintextExecutor` with vectorized aggregate paths.

    The row mirror (``self.tables``) is still maintained, so any plan the
    vectorized fragment does not cover is interpreted by the parent class
    over exactly the same data.
    """

    def __init__(self, tables: dict[str, list[Record]] | None = None) -> None:
        super().__init__(tables or {})
        self._columnar: dict[str, _ColumnarTable] = {}
        for table, rows in self.tables.items():
            store = self._columnar[table] = _ColumnarTable()
            store.append(rows)

    # -- ingestion ----------------------------------------------------------

    def register(self, table: str, records: Iterable[Record]) -> None:
        rows = list(records)
        super().register(table, rows)
        store = self._columnar[table] = _ColumnarTable()
        store.append(rows)

    def append(self, table: str, records: Iterable[Record]) -> int:
        rows = list(records)
        self.tables.setdefault(table, []).extend(rows)
        return self._store(table).append(rows)

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
                answer = self._join_count(child, stats)
            else:
                table, mask = self._source(child)
                stats.rows_scanned += self._table_len(table)
                answer = int(mask.sum()) if mask is not None else self._table_len(table)
            stats.rows_output = answer
            return answer, stats
        if isinstance(plan, GroupByCountNode):
            table, mask = self._source(plan.child)
            stats.rows_scanned += self._table_len(table)
            store = self._store(table)
            keys = store.group_column(plan.group_attribute)
            if mask is not None:
                keys = keys[mask]
            return self._grouped_counts(keys), stats
        raise _Unsupported(f"plan shape {type(plan).__name__}")

    def _join_count(self, join: JoinNode, stats: ExecutionStats) -> int:
        left_table, left_mask = self._source(join.left)
        right_table, right_mask = self._source(join.right)
        stats.rows_scanned += self._table_len(left_table) + self._table_len(right_table)
        left_keys = self._store(left_table).column(join.left_attribute)
        right_keys = self._store(right_table).column(join.right_attribute)
        if left_mask is not None:
            left_keys = left_keys[left_mask]
        if right_mask is not None:
            right_keys = right_keys[right_mask]
        stats.join_pairs += left_keys.size * right_keys.size
        if not left_keys.size or not right_keys.size:
            return 0
        left_unique, left_counts = np.unique(left_keys, return_counts=True)
        right_unique, right_counts = np.unique(right_keys, return_counts=True)
        _, left_idx, right_idx = np.intersect1d(
            left_unique, right_unique, assume_unique=True, return_indices=True
        )
        return int((left_counts[left_idx] * right_counts[right_idx]).sum())

    @staticmethod
    def _grouped_counts(keys: np.ndarray) -> dict:
        """Per-group counts with groups in first-appearance order.

        Matching the row executor's ``Counter`` iteration order matters
        beyond cosmetics: the L-DP back-end draws one Laplace variate per
        group *in answer order*, so a different order would change noisy
        answers at a fixed seed.
        """
        if not keys.size:
            return {}
        unique, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        first_seen = np.full(unique.size, keys.size, dtype=np.int64)
        np.minimum.at(first_seen, inverse, np.arange(keys.size, dtype=np.int64))
        order = np.argsort(first_seen)
        return {
            unique[i].item(): int(counts[i]) for i in order.tolist()
        }

    def _source(self, plan: PlanNode) -> tuple[str, np.ndarray | None]:
        """Resolve a scan/filter chain to (table, row mask or None=all)."""
        if isinstance(plan, ScanNode):
            return plan.table, None
        if isinstance(plan, FilterNode):
            table, mask = self._source(plan.child)
            store = self._store(table)
            predicate_mask = self._mask(plan.predicate, store)
            if predicate_mask is None:
                return table, mask
            if mask is not None:
                predicate_mask = mask & predicate_mask
            return table, predicate_mask
        raise _Unsupported(f"source shape {type(plan).__name__}")

    def _store(self, table: str) -> _ColumnarTable:
        store = self._columnar.get(table)
        if store is None:
            store = self._columnar[table] = _ColumnarTable()
        return store

    def _table_len(self, table: str) -> int:
        return len(self.tables.get(table, ()))

    def _mask(self, predicate: Predicate, store: _ColumnarTable) -> np.ndarray | None:
        """Boolean mask for ``predicate`` over ``store`` (None = all rows)."""
        if isinstance(predicate, TruePredicate):
            return None
        if isinstance(predicate, NotDummyPredicate):
            return ~store.dummy_mask()
        if isinstance(predicate, RangePredicate):
            column = store.column(predicate.attribute)
            return (column >= predicate.low) & (column <= predicate.high)
        if isinstance(predicate, EqualityPredicate):
            column = store.column(predicate.attribute)
            if not isinstance(predicate.value, (int, float, np.number)):
                # Comparing a numeric column against a non-numeric constant
                # is row-wise False in the reference executor.
                return np.zeros(len(store), dtype=bool)
            return column == predicate.value
        if isinstance(predicate, AndPredicate):
            mask: np.ndarray | None = None
            for child in predicate.children:
                child_mask = self._mask(child, store)
                if child_mask is None:
                    continue
                mask = child_mask if mask is None else mask & child_mask
            return mask
        if isinstance(predicate, OrPredicate):
            if not predicate.children:
                # any(()) is False row-wise in the reference executor.
                return np.zeros(len(store), dtype=bool)
            mask = None
            for child in predicate.children:
                child_mask = self._mask(child, store)
                if child_mask is None:
                    return None  # OR with an always-true child accepts all
                mask = child_mask if mask is None else mask | child_mask
            return mask
        if isinstance(predicate, NotPredicate):
            child_mask = self._mask(predicate.child, store)
            if child_mask is None:
                return np.zeros(len(store), dtype=bool)
            return ~child_mask
        raise _Unsupported(f"predicate {type(predicate).__name__}")
