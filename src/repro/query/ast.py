"""Query descriptions and relational-algebra plan nodes.

Two levels of abstraction are provided:

* **Query objects** (:class:`CountQuery`, :class:`GroupByCountQuery`,
  :class:`JoinCountQuery`, plus the extensions
  :class:`ModCountQuery`, :class:`MultiJoinCountQuery` and
  :class:`WindowedCountQuery`) describe *what* is asked -- these are what the
  analyst submits and what the paper's Q1/Q2/Q3 map onto.
* **Plan nodes** (:class:`ScanNode`, :class:`FilterNode`, :class:`JoinNode`,
  ...) describe *how* the answer is computed; every query lowers to a plan via
  :meth:`Query.to_plan` and the dummy-aware rewriting of Appendix B operates
  on plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.query.predicates import Predicate, TruePredicate

__all__ = [
    "AggregationKind",
    "Query",
    "CountQuery",
    "GroupByCountQuery",
    "JoinCountQuery",
    "ModCountQuery",
    "MultiJoinCountQuery",
    "WindowedCountQuery",
    "PlanNode",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "CrossProductNode",
    "GroupByCountNode",
    "JoinNode",
    "CountNode",
]


class AggregationKind(enum.Enum):
    """Kind of aggregation produced by a query."""

    SCALAR_COUNT = "scalar-count"
    GROUPED_COUNT = "grouped-count"


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanNode:
    """Base class for relational-algebra plan nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        """Child plan nodes (empty for leaves)."""
        return ()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Scan of a base table."""

    table: str


@dataclass(frozen=True)
class FilterNode(PlanNode):
    """Filter ``phi(T, p)``: keep rows satisfying ``predicate``."""

    child: PlanNode
    predicate: Predicate

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Project ``pi(T, A)``: keep only ``attributes``."""

    child: PlanNode
    attributes: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class CrossProductNode(PlanNode):
    """CrossProduct ``x(T, A_i, A_j)``: combine two attributes into one.

    The new attribute ``output`` holds the tuple ``(row[left], row[right])``.
    """

    child: PlanNode
    left: str
    right: str
    output: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class GroupByCountNode(PlanNode):
    """GroupBy ``chi(T, A')`` followed by a COUNT(*) per group."""

    child: PlanNode
    group_attribute: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Inner equi-join of two inputs on ``left_attribute == right_attribute``."""

    left: PlanNode
    right: PlanNode
    left_attribute: str
    right_attribute: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class CountNode(PlanNode):
    """COUNT(*) of the child's output."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


# ---------------------------------------------------------------------------
# Query objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """Base class for analyst-facing queries."""

    @property
    def kind(self) -> AggregationKind:
        """Aggregation kind of the answer."""
        raise NotImplementedError

    @property
    def tables(self) -> tuple[str, ...]:
        """Tables referenced by the query."""
        raise NotImplementedError

    def to_plan(self) -> PlanNode:
        """Lower the query to a relational-algebra plan."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Short label used in reports (override when parsed from SQL)."""
        return type(self).__name__

    def finalize_answer(self, answer):
        """Post-aggregation finishing step applied to the plan's raw answer.

        The identity for most shapes; :class:`ModCountQuery` reduces the raw
        count modulo its modulus here, so plan execution (row interpreter and
        columnar alike) stays a plain count.
        """
        return answer


@dataclass(frozen=True)
class CountQuery(Query):
    """``SELECT COUNT(*) FROM table WHERE predicate`` (the paper's Q1 shape)."""

    table: str
    predicate: Predicate = field(default_factory=TruePredicate)
    label: str = "CountQuery"

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.SCALAR_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    @property
    def name(self) -> str:
        return self.label

    def to_plan(self) -> PlanNode:
        return CountNode(FilterNode(ScanNode(self.table), self.predicate))


@dataclass(frozen=True)
class GroupByCountQuery(Query):
    """``SELECT g, COUNT(*) FROM table [WHERE p] GROUP BY g`` (Q2 shape)."""

    table: str
    group_attribute: str
    predicate: Predicate = field(default_factory=TruePredicate)
    label: str = "GroupByCountQuery"

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.GROUPED_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    @property
    def name(self) -> str:
        return self.label

    def to_plan(self) -> PlanNode:
        return GroupByCountNode(
            FilterNode(ScanNode(self.table), self.predicate), self.group_attribute
        )


@dataclass(frozen=True)
class JoinCountQuery(Query):
    """``SELECT COUNT(*) FROM L INNER JOIN R ON L.a = R.b`` (Q3 shape)."""

    left_table: str
    right_table: str
    left_attribute: str
    right_attribute: str
    left_predicate: Predicate = field(default_factory=TruePredicate)
    right_predicate: Predicate = field(default_factory=TruePredicate)
    label: str = "JoinCountQuery"

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.SCALAR_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.left_table, self.right_table)

    @property
    def name(self) -> str:
        return self.label

    def to_plan(self) -> PlanNode:
        left = FilterNode(ScanNode(self.left_table), self.left_predicate)
        right = FilterNode(ScanNode(self.right_table), self.right_predicate)
        return CountNode(
            JoinNode(left, right, self.left_attribute, self.right_attribute)
        )


@dataclass(frozen=True)
class ModCountQuery(Query):
    """``SELECT COUNT(*) % m FROM table WHERE predicate`` (FO+MOD counting).

    The modulo/parity fragment of Berkholz et al.: the answer is the filtered
    count reduced modulo ``modulus`` (``modulus=2`` is parity).  Plan
    execution computes the plain count; :meth:`finalize_answer` applies the
    reduction, and sharded partials merge by sum-then-re-mod (a valid
    homomorphism: ``(a mod m + b mod m) mod m == (a + b) mod m``).
    """

    table: str
    modulus: int = 2
    predicate: Predicate = field(default_factory=TruePredicate)
    label: str = "ModCountQuery"

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.SCALAR_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    @property
    def name(self) -> str:
        return self.label

    def finalize_answer(self, answer):
        return answer % self.modulus

    def to_plan(self) -> PlanNode:
        return CountNode(FilterNode(ScanNode(self.table), self.predicate))


@dataclass(frozen=True)
class MultiJoinCountQuery(Query):
    """Multi-way (>= 2 table) star join count on one shared key.

    ``SELECT COUNT(*) FROM T1, T2, ..., Tm WHERE T1.a1 = T2.a2 AND
    T1.a1 = T3.a3 AND ...`` -- every side equi-joins the same logical key, so
    the count is ``sum_k prod_i H_i[k]`` over the per-side key histograms
    ``H_i``.  This is exactly the q-hierarchical fragment Berkholz et al.
    show maintainable with constant-time updates: inserting a record with key
    ``k`` into side ``i`` adds ``prod_{j != i} H_j[k]`` pairs.  General
    (non-star) join orders are deliberately out of scope.
    """

    join_tables: tuple[str, ...]
    attributes: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()
    label: str = "MultiJoinCountQuery"

    def __post_init__(self) -> None:
        object.__setattr__(self, "join_tables", tuple(self.join_tables))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(self.join_tables) < 2:
            raise ValueError("a multi-way join needs at least two tables")
        if len(self.attributes) != len(self.join_tables):
            raise ValueError("one join attribute is required per table")
        predicates = tuple(self.predicates)
        if not predicates:
            predicates = tuple(TruePredicate() for _ in self.join_tables)
        if len(predicates) != len(self.join_tables):
            raise ValueError("one predicate is required per table")
        object.__setattr__(self, "predicates", predicates)

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.SCALAR_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return self.join_tables

    @property
    def name(self) -> str:
        return self.label

    def sides(self) -> tuple[tuple[str, str, Predicate], ...]:
        """The join sides as ``(table, attribute, predicate)`` triples."""
        return tuple(
            zip(self.join_tables, self.attributes, self.predicates)
        )

    def to_plan(self) -> PlanNode:
        # Left-deep cascade of binary joins, each probing the first table's
        # key attribute (which the hash join preserves on the merged row), so
        # the row interpreter computes the star-join count without multi-way
        # machinery.  The columnar executor reads the cascade as a star and
        # folds per-side key counts instead.
        plan: PlanNode = FilterNode(
            ScanNode(self.join_tables[0]), self.predicates[0]
        )
        for table, attribute, predicate in self.sides()[1:]:
            plan = JoinNode(
                plan,
                FilterNode(ScanNode(table), predicate),
                self.attributes[0],
                attribute,
            )
        return CountNode(plan)


@dataclass(frozen=True)
class WindowedCountQuery(Query):
    """``SELECT COUNT(*) FROM table WHERE predicate`` over a recency window.

    A temporal operator: at query time ``t`` the answer counts records whose
    ``arrival_time`` lies in the current window.  ``mode="sliding"`` uses the
    trailing window ``(t - window, t]``; ``mode="tumbling"`` aligns windows to
    the fixed grid ``((k-1) * window, k * window]`` and counts the one
    containing ``t`` up to ``t`` itself.  The EDB and the analyst's ground
    truth, both a :class:`~repro.query.columnar.ColumnarExecutor`, answer it
    with one mask over the table's arrival column; the row interpreter loops
    over the rows.
    """

    table: str
    window: int
    mode: str = "sliding"
    predicate: Predicate = field(default_factory=TruePredicate)
    label: str = "WindowedCountQuery"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 tick")
        if self.mode not in ("sliding", "tumbling"):
            raise ValueError(
                f"unknown window mode {self.mode!r}; "
                "expected 'sliding' or 'tumbling'"
            )

    @property
    def kind(self) -> AggregationKind:
        return AggregationKind.SCALAR_COUNT

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    @property
    def name(self) -> str:
        return self.label

    def window_bounds(self, time: int) -> tuple[int, int]:
        """Half-open-below bounds ``(start, end]`` of the window at ``time``.

        The single source of window semantics, shared by every executor.
        """
        if self.mode == "sliding":
            return time - self.window, time
        start = ((time - 1) // self.window) * self.window
        return start, time

    def to_plan(self) -> PlanNode:
        raise TypeError(
            "windowed queries are evaluated relative to a query time; "
            "the executor answers them directly instead of lowering to a plan"
        )
