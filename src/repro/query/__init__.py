"""Query substrate: predicates, relational operators, rewriting and execution.

The paper evaluates three queries (Section 8):

* **Q1** -- a linear range count over ``YellowCab.pickupID``;
* **Q2** -- a group-by count of pickups per location;
* **Q3** -- an inner-join count between Yellow Cab and Green Taxi on pickup
  time.

This package provides:

* :mod:`repro.query.predicates` -- composable predicates over records;
* :mod:`repro.query.ast` -- both high-level query descriptions
  (:class:`CountQuery`, :class:`GroupByCountQuery`, :class:`JoinCountQuery`)
  and the relational-algebra plan nodes (Filter/Project/GroupBy/Join/...)
  used by query rewriting;
* :mod:`repro.query.rewriter` -- the dummy-aware query rewriting of
  Appendix B (each operator is augmented with ``isDummy = False`` filters);
* :mod:`repro.query.executor` -- a plaintext executor used both for ground
  truth on the logical database and, inside the EDB simulators, for the
  "enclave-side" evaluation over outsourced records;
* :mod:`repro.query.sql` -- a tiny SQL front-end that parses the paper's
  three query strings into AST objects;
* :mod:`repro.query.scatter` -- deterministic partial-aggregate merging for
  scatter-gather evaluation over sharded back-ends
  (:class:`repro.edb.router.ShardRouter`).
"""

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
from repro.query.ast import (
    AggregationKind,
    CountQuery,
    CrossProductNode,
    FilterNode,
    GroupByCountNode,
    GroupByCountQuery,
    JoinCountQuery,
    JoinNode,
    PlanNode,
    ProjectNode,
    Query,
    ScanNode,
)
from repro.query.rewriter import rewrite_for_dummies, rewrite_plan
from repro.query.executor import PlaintextExecutor, execute_plan, ground_truth
from repro.query.scatter import (
    join_count_from_histograms,
    merge_grouped_counts,
    merge_scalar_counts,
)
from repro.query.sql import parse_query

__all__ = [
    "AggregationKind",
    "AndPredicate",
    "CountQuery",
    "CrossProductNode",
    "EqualityPredicate",
    "FilterNode",
    "GroupByCountNode",
    "GroupByCountQuery",
    "JoinCountQuery",
    "JoinNode",
    "NotDummyPredicate",
    "NotPredicate",
    "OrPredicate",
    "PlaintextExecutor",
    "PlanNode",
    "Predicate",
    "ProjectNode",
    "Query",
    "RangePredicate",
    "ScanNode",
    "TruePredicate",
    "execute_plan",
    "ground_truth",
    "join_count_from_histograms",
    "merge_grouped_counts",
    "merge_scalar_counts",
    "parse_query",
    "rewrite_for_dummies",
    "rewrite_plan",
]
