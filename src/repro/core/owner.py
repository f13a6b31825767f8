"""The data owner.

The owner is the client-side party of the SOGDB model: it receives logical
updates over time, holds the logical database, consults its synchronization
strategy every time unit (one :meth:`Owner.tick` at a time, or a whole
segment of time units through :meth:`Owner.advance`) and runs the EDB's
Setup/Update protocols when the strategy signals.  It also maintains the
update-pattern transcript and the per-table logical mirror used by the
accuracy metrics.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.update_pattern import UpdatePattern
from repro.edb.base import EncryptedDatabase
from repro.edb.records import Record, Schema

__all__ = ["Owner"]


class Owner:
    """Client-side owner of one logical table.

    Parameters
    ----------
    schema:
        Schema of the owned table; records delivered to the owner must carry
        ``record.table == schema.name``.
    strategy:
        The synchronization strategy (``Sync`` of Definition 1).
    edb:
        The encrypted database the owner outsources to.  Several owners may
        share one EDB instance: one owner per table as in the paper's join
        experiment, or several owners of the *same* table as members of a
        :class:`~repro.fleet.Deployment` fleet, each with its own strategy,
        noise stream and update-pattern transcript.
    name:
        Label distinguishing this owner within a fleet (defaults to the
        table name, which is unique in single-owner-per-table deployments).
    """

    def __init__(
        self,
        schema: Schema,
        strategy: SyncStrategy,
        edb: EncryptedDatabase,
        name: str | None = None,
    ) -> None:
        self._schema = schema
        self._strategy = strategy
        self._edb = edb
        self._name = name if name is not None else schema.name
        self._logical: list[Record] = []
        self._pattern = UpdatePattern()
        self._initialized = False
        self._current_time = 0

    # -- lifecycle -------------------------------------------------------------

    def initialize(self, initial_records: Sequence[Record] | None = None) -> None:
        """Run the setup phase with the initial database ``D_0``.

        The first owner to initialize against a shared EDB runs the Setup
        protocol; later owners (additional tables) register their initial
        outsourcing through Update at time 0, which is observationally
        equivalent for the update pattern.
        """
        if self._initialized:
            raise RuntimeError("owner already initialized")
        self._initialized = True
        initial = list(initial_records or [])
        for record in initial:
            self._check_record(record)
        self._logical.extend(initial)
        gamma0 = self._strategy.setup(initial)
        if self._edb.is_setup:
            result = self._edb.update(gamma0, time=0)
        else:
            result = self._edb.setup(gamma0, time=0)
        self._pattern.record(0, result.total_added)

    def tick(self, time: int, update: Record | None) -> SyncDecision:
        """Advance one time unit, delivering logical update ``u_t`` (or none)."""
        if not self._initialized:
            raise RuntimeError("owner must be initialized before ticking")
        if time <= self._current_time:
            raise ValueError(
                f"time must advance monotonically (got {time} after {self._current_time})"
            )
        self._current_time = time
        if update is not None:
            self._check_record(update)
            self._logical.append(update)
        decision = self._strategy.step(time, update)
        if decision.should_sync and decision.records:
            self.outsource(time, decision.records)
        return decision

    def advance(
        self, end: int, arrivals: Sequence[tuple[int, Record]]
    ) -> list[tuple[int, tuple[Record, ...]]]:
        """Advance through time unit ``end`` in one call.

        ``arrivals`` are the ``(t, u_t)`` updates after :attr:`current_time`
        and up to ``end``.  The strategy decides every time unit of the
        segment (:meth:`SyncStrategy.advance`); the returned ``(t, γ_t)``
        synchronizations are *not* yet outsourced -- the caller runs each
        through :meth:`outsource`, in time order, which lets the engine
        interleave several owners' Updates exactly as per-tick
        :meth:`tick` calls would.
        """
        if not self._initialized:
            raise RuntimeError("owner must be initialized before advancing")
        if end <= self._current_time:
            raise ValueError(
                f"time must advance monotonically (got {end} after {self._current_time})"
            )
        for _, record in arrivals:
            self._check_record(record)
        self._logical.extend(record for _, record in arrivals)
        syncs = self._strategy.advance(self._current_time, end, arrivals)
        self._current_time = end
        return syncs

    def outsource(self, time: int, records: Sequence[Record]) -> None:
        """Run the Update protocol for ``γ_t`` and record ``(t, |γ_t|)``."""
        # All records of a decision target this owner's table, so the
        # batched ingestion path skips the per-record regrouping while
        # still charging the cost model once for the whole γ_t.
        result = self._edb.insert_many({self.table: records}, time=time)
        self._pattern.record(time, result.total_added)

    # -- durability ----------------------------------------------------------

    def export_state(self) -> dict:
        """Picklable snapshot of the owner's client-side state.

        Everything except the shared EDB reference: schema, strategy (with
        its RNG, noise stream, cache and accountant), logical mirror,
        update-pattern transcript and clock.  :meth:`from_state` rebinds the
        restored state to a (restored) EDB.
        """
        state = dict(self.__dict__)
        state.pop("_edb")
        return state

    @classmethod
    def from_state(cls, state: dict, edb: EncryptedDatabase) -> "Owner":
        """Rebuild an owner from :meth:`export_state` output."""
        owner = cls.__new__(cls)
        owner.__dict__.update(state)
        owner._edb = edb
        return owner

    # -- state -------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Fleet-member label of this owner (table name when not in a fleet)."""
        return self._name

    @property
    def schema(self) -> Schema:
        """Schema of the owned table."""
        return self._schema

    @property
    def strategy(self) -> SyncStrategy:
        """The synchronization strategy in use."""
        return self._strategy

    @property
    def edb(self) -> EncryptedDatabase:
        """The encrypted database being outsourced to."""
        return self._edb

    @property
    def table(self) -> str:
        """Name of the owned table."""
        return self._schema.name

    @property
    def current_time(self) -> int:
        """Last time unit processed."""
        return self._current_time

    @property
    def logical_database(self) -> tuple[Record, ...]:
        """All real records received so far (``D_t``)."""
        return tuple(self._logical)

    @property
    def logical_size(self) -> int:
        """``|D_t|``."""
        return len(self._logical)

    @property
    def update_pattern(self) -> UpdatePattern:
        """The server-observable update transcript of this owner."""
        return self._pattern

    @property
    def logical_gap(self) -> int:
        """Records received but not yet outsourced (Section 4.5.2)."""
        return self._strategy.logical_gap

    @property
    def outsourced_table_size(self) -> int:
        """Ciphertexts (real + dummy) currently stored for this owner's table."""
        return self._edb.table_size(self.table)

    @property
    def outsourced_dummy_count(self) -> int:
        """Dummy ciphertexts currently stored for this owner's table."""
        return self._edb.table_dummy_count(self.table)

    # -- internals ----------------------------------------------------------------

    def _check_record(self, record: Record) -> None:
        if record.table != self._schema.name:
            raise ValueError(
                f"record targets table {record.table!r} but this owner manages "
                f"{self._schema.name!r}"
            )
        self._schema.validate(record.values)
