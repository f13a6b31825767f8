"""Plaintext query execution.

:class:`PlaintextExecutor` is the row-at-a-time plan interpreter over
lists of :class:`~repro.edb.records.Record`.  It serves two roles:

1. **Ground truth by rescan** -- the analyst's accuracy metric (query error,
   Section 4.5.2) is the L1 distance between the answer over the *logical*
   database held by the owner and the answer returned by the outsourced
   database.  :func:`ground_truth` computes the former by interpreting the
   query over plaintext records; the per-tick reference loop
   (:func:`repro.testing.reference.run_per_tick`) uses it at every query time.
2. **The oracle of the columnar executor** -- the EDB simulators (ObliDB /
   Crypt-epsilon) and the analyst's incremental truth answer through
   :class:`~repro.query.columnar.ColumnarExecutor`, which keeps no rows.
   Every EDB built under :func:`repro.testing.reference.row_interpreter`
   answers through this interpreter instead, and every observable must stay
   identical.  So this module imports nothing of the columnar code.

Answers are either an ``int`` (scalar counts) or a ``dict`` mapping group keys
to counts.  :func:`answer_l1_distance` computes the L1 error between two
answers of the same shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.edb.records import Record, count_dummy
from repro.query.ast import (
    AggregationKind,
    CountNode,
    CrossProductNode,
    FilterNode,
    GroupByCountNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    Query,
    ScanNode,
    WindowedCountQuery,
)
from repro.query.rewriter import rewrite_for_dummies

__all__ = [
    "Answer",
    "PlaintextExecutor",
    "execute_plan",
    "ground_truth",
    "lowered_plan",
    "answer_l1_distance",
]

#: A query answer: either a scalar count or per-group counts.
Answer = int | dict


@dataclass
class ExecutionStats:
    """Work counters produced while interpreting a plan."""

    rows_scanned: int = 0
    rows_output: int = 0
    join_pairs: int = 0


@dataclass
class PlaintextExecutor:
    """Interprets relational plans over named collections of records."""

    tables: dict[str, list[Record]] = field(default_factory=dict)
    #: Lowered/rewritten plans keyed by (query, rewrite) (:func:`lowered_plan`).
    #: Excluded from init/repr/eq -- it is a derived cache, not executor state.
    _plan_cache: dict[tuple[Query, bool], PlanNode] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def register(self, table: str, records: Iterable[Record]) -> None:
        """Register (replace) the contents of ``table``."""
        self.tables[table] = list(records)

    def append(self, table: str, records: Iterable[Record]) -> int:
        """Append records to ``table`` (creating it); return the dummy count."""
        rows = list(records)
        self.tables.setdefault(table, []).extend(rows)
        return count_dummy(rows)

    def table_size(self, table: str) -> int:
        """Number of rows currently registered for ``table``."""
        return len(self.tables.get(table, []))

    def execute(self, query: Query, rewrite: bool = False, time: int = 0) -> Answer:
        """Execute ``query``, optionally applying dummy-aware rewriting."""
        answer, _ = self.execute_with_stats(query, rewrite, time=time)
        return answer

    def execute_with_stats(
        self, query: Query, rewrite: bool = False, time: int = 0
    ) -> tuple[Answer, ExecutionStats]:
        """Execute ``query`` and return the answer plus work counters.

        ``time`` only matters for windowed queries, whose answer is relative
        to the query time; every other shape ignores it.  The columnar
        executor runs this method on itself, with its own ``execute_plan``
        and ``_execute_windowed``, so both share one lowering and plan cache.
        """
        if isinstance(query, WindowedCountQuery):
            return self._execute_windowed(query, rewrite, time)
        answer, stats = self.execute_plan(lowered_plan(query, rewrite, self._plan_cache))
        return query.finalize_answer(answer), stats

    #: A name ``perfbench/spans.py`` still lists as a query-scan boundary
    #: (the row fallback's, which is gone); a traced run fails on a missing
    #: target, so the name stays until the benchmark drops it.
    execute_rows_with_stats = execute_with_stats

    def _execute_windowed(
        self, query: WindowedCountQuery, rewrite: bool, time: int
    ) -> tuple[Answer, ExecutionStats]:
        """Reference rescan for windowed counts (the differential oracle).

        Window membership tests ``arrival_time``, which predicates cannot
        see (they evaluate over ``values``), so the window filter is applied
        directly here rather than lowered to a plan.  ``rewrite`` plays the
        same role as dummy-aware plan rewriting: skip dummy rows when
        scanning outsourced tables.
        """
        stats = ExecutionStats()
        rows = self.tables.get(query.table, [])
        stats.rows_scanned = len(rows)
        start, end = query.window_bounds(time)
        count = 0
        for row in rows:
            if rewrite and row.is_dummy:
                continue
            if start < row.arrival_time <= end and query.predicate.evaluate(row):
                count += 1
        stats.rows_output = count
        return count, stats

    def execute_plan(self, plan: PlanNode) -> tuple[Answer, ExecutionStats]:
        """Interpret a plan; returns (answer, stats)."""
        stats = ExecutionStats()
        result = self._eval(plan, stats)
        if isinstance(plan, (CountNode,)):
            answer: Answer = int(result)
        elif isinstance(plan, GroupByCountNode):
            answer = dict(result)
        else:
            # A bare relational expression: return its cardinality, which is
            # the only aggregate the paper's workloads need.
            rows = list(result)
            stats.rows_output = len(rows)
            answer = len(rows)
        return answer, stats

    # -- plan interpretation -------------------------------------------------

    def _eval(self, plan: PlanNode, stats: ExecutionStats):
        if isinstance(plan, ScanNode):
            rows = self.tables.get(plan.table, [])
            stats.rows_scanned += len(rows)
            return list(rows)
        if isinstance(plan, FilterNode):
            rows = self._eval(plan.child, stats)
            return [row for row in rows if plan.predicate.evaluate(row)]
        if isinstance(plan, ProjectNode):
            rows = self._eval(plan.child, stats)
            projected = []
            for row in rows:
                values = {attr: row.get(attr) for attr in plan.attributes}
                projected.append(
                    Record(
                        values=values,
                        arrival_time=row.arrival_time,
                        is_dummy=row.is_dummy,
                        table=row.table,
                    )
                )
            return projected
        if isinstance(plan, CrossProductNode):
            rows = self._eval(plan.child, stats)
            combined = []
            for row in rows:
                merged = dict(row.values)
                merged[plan.output] = (row.get(plan.left), row.get(plan.right))
                combined.append(
                    Record(
                        values=merged,
                        arrival_time=row.arrival_time,
                        is_dummy=row.is_dummy,
                        table=row.table,
                    )
                )
            return combined
        if isinstance(plan, GroupByCountNode):
            rows = self._eval(plan.child, stats)
            counts: Counter = Counter()
            for row in rows:
                counts[row.get(plan.group_attribute)] += 1
            return dict(counts)
        if isinstance(plan, JoinNode):
            left_rows = self._eval(plan.left, stats)
            right_rows = self._eval(plan.right, stats)
            stats.join_pairs += len(left_rows) * len(right_rows)
            # Hash join for answer computation; the *cost model* still charges
            # the oblivious back-ends quadratically, matching the paper's
            # O(N^2) discussion for Q3.
            index: dict = {}
            for row in right_rows:
                index.setdefault(row.get(plan.right_attribute), []).append(row)
            joined = []
            for left_row in left_rows:
                for right_row in index.get(left_row.get(plan.left_attribute), []):
                    merged = dict(left_row.values)
                    for key, value in right_row.values.items():
                        merged.setdefault(f"{plan.right.__class__.__name__}.{key}", value)
                    joined.append(
                        Record(
                            values=merged,
                            arrival_time=max(
                                left_row.arrival_time, right_row.arrival_time
                            ),
                            is_dummy=left_row.is_dummy or right_row.is_dummy,
                            table="",
                        )
                    )
            return joined
        if isinstance(plan, CountNode):
            rows = self._eval(plan.child, stats)
            stats.rows_output = len(rows)
            return len(rows)
        raise TypeError(f"unknown plan node type: {type(plan).__name__}")


def lowered_plan(
    query: Query, rewrite: bool, cache: dict[tuple[Query, bool], PlanNode]
) -> PlanNode:
    """``query``'s plan, dummy-aware when ``rewrite``, memoized in ``cache``.

    Queries are frozen dataclasses, so the schedule's repeated issuances
    share one plan instead of re-running the rewriting every query time.
    A query holding an unhashable predicate value (e.g. a list in an
    :class:`~repro.query.predicates.EqualityPredicate`) is lowered anew
    every time.
    """
    try:
        plan = cache.get((query, rewrite))
    except TypeError:
        return rewrite_for_dummies(query) if rewrite else query.to_plan()
    if plan is None:
        plan = cache[(query, rewrite)] = (
            rewrite_for_dummies(query) if rewrite else query.to_plan()
        )
    return plan


def execute_plan(
    plan: PlanNode, tables: Mapping[str, Sequence[Record]]
) -> Answer:
    """Convenience wrapper: execute ``plan`` over ``tables``."""
    executor = PlaintextExecutor({name: list(rows) for name, rows in tables.items()})
    answer, _ = executor.execute_plan(plan)
    return answer


def ground_truth(
    query: Query, tables: Mapping[str, Sequence[Record]], time: int = 0
) -> Answer:
    """The true answer of ``query`` over the logical (plaintext) database.

    ``time`` is the query time, required for windowed queries.
    """
    executor = PlaintextExecutor({name: list(rows) for name, rows in tables.items()})
    return executor.execute(query, rewrite=False, time=time)


def answer_l1_distance(lhs: Answer, rhs: Answer) -> float:
    """L1 distance between two answers of the same query.

    For scalar counts this is ``|lhs - rhs|``; for grouped counts it is the
    sum of absolute per-group differences over the union of group keys (the
    query-error metric of Section 4.5.2 applied to Q2).
    """
    if isinstance(lhs, Mapping) != isinstance(rhs, Mapping):
        raise TypeError("cannot compare a scalar answer with a grouped answer")
    if isinstance(lhs, Mapping) and isinstance(rhs, Mapping):
        keys = set(lhs) | set(rhs)
        return float(sum(abs(lhs.get(k, 0) - rhs.get(k, 0)) for k in keys))
    return float(abs(float(lhs) - float(rhs)))
