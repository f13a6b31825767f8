"""The analyst's ground truth, folded from the owners' logical tables.

The analyst's accuracy metric needs the *true* answer of every test query
over the owners' logical databases.  Recomputing it by rescanning every
logical table at every query time is ``O(|D_t|)`` per query; over a
month-long stream with queries every six hours that dwarfs the actual
synchronization work.

:class:`IncrementalTruth` keeps the logical records in one
:class:`~repro.query.columnar.ColumnarExecutor` and answers through it, so
the truth and the server share one incremental mechanism, the executor's
tail fold: a repeated query folds in only the rows delivered since it last
ran, by Berkholz et al.'s FO+MOD insert deltas ("Answering FO+MOD queries
under updates", PAPERS.md).  Counts, group-bys, modulo counts and binary
and star joins fold their tails; a windowed count masks the arrival column,
``O(rows)`` a query but vectorized.  Answers are exactly those of
:func:`repro.query.executor.ground_truth` over the same tables: the executor
is pinned to the row interpreter by the EDB differential suite.

The truth is derived state: a function of the logical tables it ingested.
It is never pickled; a restored run rebuilds it from the owners' logical
databases.
"""

from __future__ import annotations

from typing import Iterable

from repro.edb.records import Record
from repro.query.ast import Query
from repro.query.columnar import ColumnarExecutor
from repro.query.executor import Answer

__all__ = ["IncrementalTruth"]


class IncrementalTruth:
    """Ground-truth answers for registered queries over ingested tables.

    Records must be fed exactly once, in arrival order, via :meth:`ingest` /
    :meth:`ingest_one` -- in the simulator that is the initial database at
    setup plus every logical update as it is delivered.  A query may be
    registered at any time: the executor holds every record ingested so
    far, so a late registration needs no bootstrap.  Dummy records are
    skipped at answer time (the dummy-aware rewrite).
    """

    def __init__(self) -> None:
        self._executor = ColumnarExecutor()
        self._queries: set[Query] = set()

    def covers(self, query: Query) -> bool:
        """Whether ``query`` is registered."""
        return query in self._queries

    def register(self, query: Query) -> None:
        """Start answering ``query`` (idempotent)."""
        self._queries.add(query)

    def ingest(self, table: str, records: Iterable[Record]) -> None:
        """Append a batch of delivered records of ``table``."""
        self._executor.append(table, records)

    def ingest_one(self, table: str, record: Record) -> None:
        """Append one delivered record of ``table``."""
        self._executor.append(table, (record,))

    def answer(self, query: Query, time: int = 0) -> Answer:
        """The true answer of a registered query at query time ``time``
        (read by windowed queries only)."""
        if query not in self._queries:
            raise KeyError(f"query {query.name!r} is not registered")
        return self._executor.execute(query, rewrite=True, time=time)
