"""The analyst.

The analyst is the trusted querying party of the SOGDB model: it submits
queries to the server at arbitrary times and receives answers computed over
the outsourced structure.  For evaluation, the analyst also computes the
ground-truth answer over the owners' logical databases so that the query
error metric (Section 4.5.2) can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.metrics import query_error
from repro.edb.base import EncryptedDatabase, QueryResult
from repro.edb.records import Record
from repro.query.ast import Query
from repro.query.executor import Answer, ground_truth
from repro.query.incremental import IncrementalTruth

__all__ = ["Analyst", "AnalystObservation"]

#: Logical tables for ground truth: an eager mapping or a lazy provider.
LogicalTables = Mapping[str, Sequence[Record]]


@dataclass(frozen=True)
class AnalystObservation:
    """One query issuance: answer, ground truth, error and QET."""

    time: int
    query_name: str
    answer: Answer
    true_answer: Answer
    l1_error: float
    qet_seconds: float

    @property
    def is_exact(self) -> bool:
        """Whether the outsourced answer matched the logical answer exactly."""
        return self.l1_error == 0.0


class Analyst:
    """Issues queries against an EDB and tracks accuracy against ground truth.

    Parameters
    ----------
    edb:
        The encrypted database to query.
    truth_source:
        Optional :class:`~repro.query.incremental.IncrementalTruth` over the
        owners' logical tables.  A query it covers (one registered with it)
        is answered by its tail fold instead of a rescan of the logical
        tables; any other query is rescanned.
    """

    def __init__(
        self,
        edb: EncryptedDatabase,
        truth_source: IncrementalTruth | None = None,
    ) -> None:
        self._edb = edb
        self._truth_source = truth_source
        self._observations: list[AnalystObservation] = []

    @property
    def truth_source(self) -> IncrementalTruth | None:
        """The incremental ground truth, when enabled."""
        return self._truth_source

    def query(
        self,
        query: Query,
        logical_tables: LogicalTables | Callable[[], LogicalTables] | None = None,
        time: int = 0,
    ) -> AnalystObservation:
        """Run ``query`` via the EDB's Query protocol and score it.

        Parameters
        ----------
        query:
            The analyst's query.
        logical_tables:
            The owners' logical databases (or a zero-argument callable
            producing them, resolved only when actually needed), used only to
            compute the ground-truth answer for the error metric (the analyst
            is trusted and, in the paper's evaluation, is co-located with the
            owner).  May be omitted when a ``truth_source`` covers the query.
        time:
            Simulation time at which the query is posed.
        """
        result: QueryResult = self._edb.query(query, time=time)
        truth = self._ground_truth(query, logical_tables, time)
        observation = AnalystObservation(
            time=time,
            query_name=query.name,
            answer=result.answer,
            true_answer=truth,
            l1_error=query_error(truth, result.answer),
            qet_seconds=result.qet_seconds,
        )
        self._observations.append(observation)
        return observation

    def _ground_truth(
        self,
        query: Query,
        logical_tables: LogicalTables | Callable[[], LogicalTables] | None,
        time: int = 0,
    ) -> Answer:
        source = self._truth_source
        if source is not None and source.covers(query):
            return source.answer(query, time=time)
        tables = logical_tables() if callable(logical_tables) else logical_tables
        if tables is None:
            raise ValueError(
                f"query {query.name!r} is not covered by the incremental "
                "truth and no logical tables were provided"
            )
        return ground_truth(query, tables, time=time)

    @property
    def observations(self) -> tuple[AnalystObservation, ...]:
        """All query observations collected so far."""
        return tuple(self._observations)

    def observations_for(self, query_name: str) -> tuple[AnalystObservation, ...]:
        """Observations for one named query."""
        return tuple(o for o in self._observations if o.query_name == query_name)

    def mean_l1_error(self, query_name: str | None = None) -> float:
        """Mean L1 error across observations (optionally for one query)."""
        selected = self.observations_for(query_name) if query_name else self.observations
        if not selected:
            return 0.0
        return sum(o.l1_error for o in selected) / len(selected)

    def max_l1_error(self, query_name: str | None = None) -> float:
        """Maximum L1 error across observations (optionally for one query)."""
        selected = self.observations_for(query_name) if query_name else self.observations
        if not selected:
            return 0.0
        return max(o.l1_error for o in selected)

    def mean_qet(self, query_name: str | None = None) -> float:
        """Mean query execution time across observations."""
        selected = self.observations_for(query_name) if query_name else self.observations
        if not selected:
            return 0.0
        return sum(o.qet_seconds for o in selected) / len(selected)
