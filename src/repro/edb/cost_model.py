"""Query-execution-time (QET) cost model.

The paper measures QET on an SGX testbed (ObliDB) and a crypto-assisted DP
engine (Crypt-epsilon).  A pure-Python reproduction cannot reproduce wall
clock seconds of those systems, so each EDB back-end charges simulated time
through this cost model.  The constants are calibrated against the mean QETs
reported in Table 5 so that

* the *shape* of every QET curve (linear in the number of outsourced records
  for Q1/Q2, quadratic for the join Q3) matches the paper, and
* the *ratios* between strategies (e.g. SET/DP >= 2.17x on Q1/Q2 and up to
  5.72x on Q3) are reproduced, because those ratios depend only on relative
  outsourced-data sizes.

Absolute seconds are therefore simulated values, not measurements; the
benchmark harness reports them alongside the paper's numbers for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.ast import (
    AggregationKind,
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    MultiJoinCountQuery,
    Query,
)

__all__ = ["CostParameters", "CostModel", "OBLIDB_COSTS", "CRYPTE_COSTS"]


@dataclass(frozen=True)
class CostParameters:
    """Per-back-end cost constants.

    All time constants are in (simulated) seconds; storage in bytes.
    """

    #: Fixed per-query overhead (session setup, planning, attestation, ...).
    query_base: float
    #: Per outsourced record cost of a scalar filter/count scan (Q1 shape).
    count_scan_per_record: float
    #: Per outsourced record cost of a group-by aggregation (Q2 shape).
    groupby_per_record: float
    #: Per record-pair cost of an oblivious join (Q3 shape); ``None`` when the
    #: back-end does not support joins (Crypt-epsilon in the paper).
    join_per_pair: float | None
    #: Per record cost charged to Setup/Update protocol invocations.
    update_per_record: float
    #: Fixed per-update overhead.
    update_base: float
    #: Server-side storage footprint of one encrypted record (bytes).
    record_storage_bytes: float


#: ObliDB constants (oblivious full-scan operators), calibrated to Table 5:
#: mean QETs of 5.39 s (Q1), 2.32 s (Q2) and 2.77 s (Q3) under SUR with a
#: mean outsourced table of roughly 9.2k records (and ~9.2k x 10.6k join
#: pairs for Q3).
OBLIDB_COSTS = CostParameters(
    query_base=0.04,
    count_scan_per_record=5.8e-4,
    groupby_per_record=2.5e-4,
    join_per_pair=2.8e-8,
    update_per_record=2.0e-4,
    update_base=0.01,
    record_storage_bytes=16_400.0,
)

#: Crypt-epsilon constants, calibrated to Table 5: mean QETs of 20.94 s (Q1)
#: and 76.34 s (Q2) under SUR; joins are unsupported.
CRYPTE_COSTS = CostParameters(
    query_base=0.30,
    count_scan_per_record=2.25e-3,
    groupby_per_record=8.3e-3,
    join_per_pair=None,
    update_per_record=1.0e-3,
    update_base=0.05,
    record_storage_bytes=51_200.0,
)


@dataclass(frozen=True)
class CostModel:
    """Charges simulated time and storage for EDB protocol invocations."""

    parameters: CostParameters

    def setup_cost(self, num_records: int) -> float:
        """Simulated seconds to run the Setup protocol on ``num_records``."""
        return self.parameters.update_base + self.parameters.update_per_record * num_records

    def update_cost(self, num_records: int) -> float:
        """Simulated seconds to run the Update protocol on ``num_records``."""
        return self.parameters.update_base + self.parameters.update_per_record * num_records

    def ingest_cost(self, num_records: int, *, is_setup: bool = False) -> float:
        """Simulated seconds of one Setup/Update invocation over ``num_records``.

        This is the single charging point for both the per-record and the
        batched ingestion paths: a batch of ``n`` records in one invocation
        costs exactly what the sequential path charged for the same ``γ_t``
        (one ``update_base`` round-trip plus ``n`` per-record charges), so
        switching to ``insert_many`` can never change the simulated QET or
        update-duration observables.
        """
        return self.setup_cost(num_records) if is_setup else self.update_cost(num_records)

    def storage_bytes(self, num_records: int) -> float:
        """Server-side bytes occupied by ``num_records`` encrypted records."""
        return self.parameters.record_storage_bytes * num_records

    def query_cost(self, query: Query, table_sizes: dict[str, int]) -> float:
        """Simulated QET of ``query`` over tables of the given (total) sizes.

        ``table_sizes`` must include dummy records: oblivious operators touch
        every outsourced record, which is precisely why dummy-heavy strategies
        (SET) pay the performance penalty the paper reports.
        """
        params = self.parameters
        if isinstance(query, JoinCountQuery):
            if params.join_per_pair is None:
                raise UnsupportedQueryError(
                    f"{type(query).__name__} is not supported by this back-end"
                )
            left = table_sizes.get(query.left_table, 0)
            right = table_sizes.get(query.right_table, 0)
            work = params.join_per_pair * left * right
        elif isinstance(query, MultiJoinCountQuery):
            if params.join_per_pair is None:
                raise UnsupportedQueryError(
                    f"{type(query).__name__} is not supported by this back-end"
                )
            # The rescan lowering is a left-deep cascade of binary oblivious
            # joins probing the first table; charge each stage's pair work.
            first = table_sizes.get(query.join_tables[0], 0)
            work = sum(
                params.join_per_pair * first * table_sizes.get(table, 0)
                for table in query.join_tables[1:]
            )
        elif isinstance(query, GroupByCountQuery):
            size = table_sizes.get(query.table, 0)
            work = params.groupby_per_record * size
        elif isinstance(query, CountQuery):
            size = table_sizes.get(query.table, 0)
            work = params.count_scan_per_record * size
        elif query.kind is AggregationKind.GROUPED_COUNT:
            size = sum(table_sizes.get(t, 0) for t in query.tables)
            work = params.groupby_per_record * size
        else:
            size = sum(table_sizes.get(t, 0) for t in query.tables)
            work = params.count_scan_per_record * size
        return params.query_base + work

    def supports(self, query: Query) -> bool:
        """Whether the back-end can execute ``query`` at all."""
        if isinstance(query, (JoinCountQuery, MultiJoinCountQuery)):
            return self.parameters.join_per_pair is not None
        return True


class UnsupportedQueryError(RuntimeError):
    """Raised when a query type is not supported by an EDB back-end."""
