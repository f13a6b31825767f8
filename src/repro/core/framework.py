"""The DP-Sync framework facade (Figure 1).

:class:`DPSync` wires together one owner (with its schema, local cache and
synchronization strategy), an encrypted database back-end and an analyst, and
exposes the small API a downstream user needs:

>>> import numpy as np
>>> from repro import DPSync, ObliDB, Schema
>>> schema = Schema("events", ("sensor_id", "value"))
>>> dpsync = DPSync(schema, edb=ObliDB(), strategy="dp-timer", epsilon=0.5,
...                 period=30, rng=np.random.default_rng(7))
>>> dpsync.start([])                        # outsource the (empty) D_0
>>> _ = dpsync.receive(1, {"sensor_id": 3, "value": 0.7})
>>> answer = dpsync.query("SELECT COUNT(*) FROM events")

Multiple ``DPSync`` instances (one per table) may share a single EDB, which
is how the paper's join workload (Q3) is evaluated; call
:meth:`DPSync.register_sibling` on each so join ground truth sees the whole
logical database.

Since the fleet refactor, ``DPSync`` is a thin single-owner wrapper over
:class:`repro.fleet.Deployment` -- the coordinator that also scales to N
owners over a :class:`~repro.edb.router.ShardRouter` with K shards.  The
fleet differential tests pin this wrapper (``n_owners=1``, ``n_shards=1``)
bit-identical to the original facade.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.analyst import Analyst, AnalystObservation
from repro.core.owner import Owner
from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.registry import make_strategy
from repro.core.update_pattern import UpdatePattern
from repro.edb.base import EncryptedDatabase
from repro.edb.records import Record, Schema, make_dummy_record
from repro.fleet import Deployment
from repro.query.ast import Query
from repro.query.incremental import IncrementalTruth
from repro.query.sql import parse_query

__all__ = ["DPSync"]


class DPSync:
    """A DP-Sync deployment for one logical table.

    Parameters
    ----------
    schema:
        Schema of the synchronized table.
    edb:
        The encrypted database back-end (possibly shared between instances).
    strategy:
        Either a strategy name (``"sur"``, ``"oto"``, ``"set"``,
        ``"dp-timer"``, ``"dp-ant"``) or an already-constructed
        :class:`SyncStrategy`.
    epsilon, period, theta, flush:
        Strategy parameters forwarded to the registry when ``strategy`` is a
        name.
    rng:
        Random generator used for all DP noise of this instance.
    """

    def __init__(
        self,
        schema: Schema,
        edb: EncryptedDatabase,
        strategy: str | SyncStrategy = "dp-timer",
        epsilon: float = 0.5,
        period: int = 30,
        theta: int = 15,
        flush: FlushPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._schema = schema
        self._rng = rng if rng is not None else np.random.default_rng()
        if isinstance(strategy, SyncStrategy):
            self._strategy = strategy
        else:
            self._strategy = make_strategy(
                strategy,
                dummy_factory=self.make_dummy,
                rng=self._rng,
                epsilon=epsilon,
                period=period,
                theta=theta,
                flush=flush,
            )
        # Ground truth is incremental: each received record is appended to
        # the truth's columns, and query() folds in only the records received
        # since the query last ran instead of rescanning the logical table.
        self._deployment = Deployment(edb, truth_source=IncrementalTruth())
        self._owner = self._deployment.add_owner(
            schema.name, schema, self._strategy
        )
        self._started = False

    # -- record helpers -----------------------------------------------------------

    def make_record(self, values: Mapping[str, object], arrival_time: int = 0) -> Record:
        """Build a real record of this table from a values mapping."""
        self._schema.validate(values)
        return Record(values=values, arrival_time=arrival_time, table=self._schema.name)

    def make_dummy(self, arrival_time: int = 0) -> Record:
        """Build a dummy record of this table."""
        return make_dummy_record(self._schema, arrival_time)

    # -- lifecycle ------------------------------------------------------------------

    def start(self, initial_records: Sequence[Record | Mapping[str, object]] = ()) -> None:
        """Outsource the initial database ``D_0`` (runs the Setup protocol)."""
        if self._started:
            raise RuntimeError("DPSync instance already started")
        records = [self._coerce(r, arrival_time=0) for r in initial_records]
        self._deployment.start({self._schema.name: records})
        self._started = True

    def receive(
        self, time: int, update: Record | Mapping[str, object] | None
    ) -> SyncDecision:
        """Deliver the logical update ``u_t`` for time unit ``time``.

        Pass ``None`` when no record arrived this time unit.  Returns the
        strategy's decision, whose ``should_sync``/``volume`` fields are what
        the server observes.
        """
        if not self._started:
            raise RuntimeError("call start() before receive()")
        record = None if update is None else self._coerce(update, arrival_time=time)
        return self._deployment.receive(self._schema.name, time, record)

    def query(self, query: Query | str, time: int | None = None) -> AnalystObservation:
        """Run a query (AST object or SQL string) through the Query protocol."""
        if not self._started:
            raise RuntimeError("call start() before query()")
        parsed = parse_query(query) if isinstance(query, str) else query
        at = time if time is not None else self._owner.current_time
        return self._deployment.query(parsed, time=at)

    def register_sibling(self, sibling: "DPSync") -> None:
        """Expose a sibling instance's table to this instance's ground truth.

        When several ``DPSync`` facades share one EDB (one per table, as in
        the paper's join experiment), each facade only ingests its own
        records -- so a join query's logical answer would see a partial
        database.  Registering the sibling makes its live logical table part
        of this instance's ground-truth view; join queries then rescan the
        complete logical database instead of reading this instance's
        incremental truth, which holds only its own table.
        """
        if sibling is self:
            raise ValueError("an instance cannot be its own sibling")
        self.register_table_source(
            sibling.schema.name, lambda: sibling.owner.logical_database
        )

    def register_table_source(
        self, table: str, source: Callable[[], Sequence[Record]]
    ) -> None:
        """Expose an arbitrary external logical table to ground truth."""
        self._deployment.register_table_source(table, source)

    # -- state ------------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The synchronized table's schema."""
        return self._schema

    @property
    def deployment(self) -> Deployment:
        """The underlying (single-owner) fleet deployment."""
        return self._deployment

    @property
    def owner(self) -> Owner:
        """The owner component."""
        return self._owner

    @property
    def analyst(self) -> Analyst:
        """The analyst component."""
        return self._deployment.analyst

    @property
    def strategy(self) -> SyncStrategy:
        """The synchronization strategy."""
        return self._strategy

    @property
    def edb(self) -> EncryptedDatabase:
        """The encrypted database back-end."""
        return self._owner.edb

    @property
    def update_pattern(self) -> UpdatePattern:
        """Server-observable update transcript of this instance."""
        return self._owner.update_pattern

    @property
    def logical_gap(self) -> int:
        """Current logical gap (Section 4.5.2)."""
        return self._owner.logical_gap

    @property
    def epsilon(self) -> float:
        """Update-pattern privacy guarantee of the configured strategy."""
        return self._strategy.epsilon

    # -- internals -----------------------------------------------------------------------

    def _coerce(self, update: Record | Mapping[str, object], arrival_time: int) -> Record:
        if isinstance(update, Record):
            if update.table != self._schema.name:
                raise ValueError(
                    f"record targets {update.table!r}, expected {self._schema.name!r}"
                )
            return update
        return self.make_record(update, arrival_time=arrival_time)
