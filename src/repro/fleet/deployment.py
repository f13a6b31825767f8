"""The fleet coordinator.

A :class:`Deployment` owns N fleet members (:class:`~repro.core.owner.Owner`
instances).  Members may own distinct tables (the paper's join experiment) or
*share* a table -- e.g. one owner per ingestion region, each receiving a
partition of the table's arrival stream (see
:func:`repro.workload.scenarios.partition_fleet`).  Every member keeps its own
synchronization strategy, noise stream, privacy accountant and update-pattern
transcript, so the per-owner DP guarantee of the paper holds member-wise; the
fleet-level update-pattern guarantee is the parallel composition over members
(disjoint record ownership), i.e. the maximum of the member epsilons.

The deployment also hosts the fleet-level analyst: ground truth is computed
over the union of the members' logical databases plus any table sources
registered with :meth:`register_table_source` (sibling deployments sharing
the same EDB -- the multi-table join setup).  Queries whose tables are not
all ingested by this deployment's own members bypass the incrementally
maintained aggregates and rescan the provided sources, which keeps join
ground truth correct when a foreign table grows outside this deployment.
"""

from __future__ import annotations

import logging
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.analyst import Analyst, AnalystObservation
from repro.core.owner import Owner
from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.registry import make_strategy
from repro.core.update_pattern import UpdatePattern
from repro.edb.records import Record, Schema, SchemaDummyFactory
from repro.query.ast import Query
from repro.query.incremental import IncrementalTruth
from repro.query.sql import parse_query

__all__ = ["Deployment"]

logger = logging.getLogger(__name__)


class Deployment:
    """Coordinates a fleet of owners outsourcing to one (possibly sharded) EDB.

    Parameters
    ----------
    edb:
        The shared encrypted database -- a single back-end or a
        :class:`~repro.edb.router.ShardRouter` over K shards.
    truth_source:
        Optional :class:`~repro.query.incremental.IncrementalTruth`; when
        given, every record delivered through :meth:`receive` (and the
        initial databases passed to :meth:`start`) feeds the maintained
        ground-truth aggregates.
    """

    def __init__(
        self, edb, truth_source: IncrementalTruth | None = None
    ) -> None:
        self._edb = edb
        self._truth = truth_source
        self._members: dict[str, Owner] = {}
        self._table_sources: dict[str, Callable[[], Sequence[Record]]] = {}
        #: Source tables recorded in a restored snapshot but not yet
        #: re-registered (sources are arbitrary callables the store cannot
        #: persist).  Queries touching them raise until re-registration.
        self._pending_table_sources: set[str] = set()
        self._analyst = Analyst(
            edb, truth_source=truth_source, maintained_tables=self._owned_tables
        )
        self._started = False

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        schemas: Mapping[str, Schema] | Schema,
        edb,
        n_owners: int = 1,
        strategy: str = "dp-timer",
        epsilon: float = 0.5,
        period: int = 30,
        theta: int = 15,
        flush: FlushPolicy | None = None,
        seed: int = 0,
        truth_source: IncrementalTruth | None = None,
    ) -> "Deployment":
        """Build a fleet of ``n_owners`` members per table.

        Member RNG streams are spawned from one ``SeedSequence(seed)`` in
        member order, so adding a table or an owner never disturbs the noise
        of the others, and a fixed seed reproduces the whole fleet.  Members
        of table ``T`` are named ``T`` when ``n_owners == 1`` and ``T#i``
        otherwise (matching the stream names
        :func:`repro.workload.scenarios.partition_fleet` produces).
        """
        if n_owners < 1:
            raise ValueError("n_owners must be >= 1")
        if isinstance(schemas, Schema):
            schemas = {schemas.name: schemas}
        deployment = cls(edb, truth_source=truth_source)
        members = [
            (f"{table}#{index}" if n_owners > 1 else table, schema)
            for table, schema in schemas.items()
            for index in range(n_owners)
        ]
        children = np.random.SeedSequence(seed).spawn(len(members))
        for (name, schema), child in zip(members, children):
            member_strategy = make_strategy(
                strategy,
                dummy_factory=SchemaDummyFactory(schema),
                rng=np.random.default_rng(child),
                epsilon=epsilon,
                period=period,
                theta=theta,
                flush=flush,
            )
            deployment.add_owner(name, schema, member_strategy)
        return deployment

    def add_owner(self, name: str, schema: Schema, strategy: SyncStrategy) -> Owner:
        """Register one fleet member (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("owners must be added before start()")
        if name in self._members:
            raise ValueError(f"duplicate owner name {name!r}")
        if schema.name in self._table_sources:
            # Mirror of the register_table_source guard: an owned table with
            # an external source would double-count in ground truth.
            raise ValueError(
                f"table {schema.name!r} already has an external source"
            )
        owner = Owner(schema=schema, strategy=strategy, edb=self._edb, name=name)
        self._members[name] = owner
        return owner

    def register_table_source(
        self, table: str, source: Callable[[], Sequence[Record]]
    ) -> None:
        """Expose an external logical table to this deployment's ground truth.

        Used when several deployments (or :class:`~repro.core.framework.DPSync`
        facades) share one EDB and a query joins across their tables: the
        analyst's ground truth then includes the sibling's logical records.
        """
        if table in self._table_sources:
            raise ValueError(f"table source {table!r} already registered")
        if table in self._owned_tables():
            # The member's own records already feed logical_tables(); adding
            # an external source for the same table would double-count every
            # shared record in ground truth.
            raise ValueError(
                f"table {table!r} is already owned by this deployment"
            )
        self._table_sources[table] = source
        self._pending_table_sources.discard(table)

    # -- lifecycle ------------------------------------------------------------

    def start(
        self, initial: Mapping[str, Sequence[Record]] | None = None
    ) -> None:
        """Initialize every member (Setup / time-0 Update), in member order.

        ``initial`` maps member names to their initial databases ``D_0``;
        omitted members start empty.  The first member initializes the shared
        EDB through Setup, later members register their initial outsourcing
        through Update at time 0.
        """
        if self._started:
            raise RuntimeError("deployment already started")
        if not self._members:
            raise ValueError("deployment has no owners")
        unknown = set(initial or ()) - set(self._members)
        if unknown:
            raise KeyError(f"initial records for unknown owners {sorted(unknown)}")
        for name, owner in self._members.items():
            records = list((initial or {}).get(name, ()))
            owner.initialize(records)
            if self._truth is not None:
                self._truth.ingest(owner.table, records)
        self._started = True

    # -- durability ------------------------------------------------------------

    def save(self, directory, passphrase: str | None = None) -> dict:
        """Write a durable snapshot of the whole deployment to ``directory``.

        One :class:`~repro.edb.store.EncryptedStore` holding the shared EDB
        (or shard router, shards snapshotted inside their workers), every
        member's client-side state and the analyst's observation log --
        enough for :meth:`restore` to resume with bit-identical behaviour.
        Registered external table sources are *not* persisted (they are
        arbitrary callables); re-register them after restoring.  Returns
        the committed manifest.
        """
        import pickle

        from repro.edb import store as edb_store

        store = edb_store.EncryptedStore(directory, passphrase=passphrase)
        kind, blob = edb_store.snapshot_edb(self._edb)
        store.write_blob("edb.pkl", blob)
        store.write_blob(
            "owners.pkl",
            pickle.dumps(
                {
                    name: owner.export_state()
                    for name, owner in self._members.items()
                }
            ),
        )
        store.write_blob("truth.pkl", pickle.dumps(self._truth))
        store.write_blob(
            "observations.pkl", pickle.dumps(list(self._analyst.observations))
        )
        return store.commit(
            {
                "kind": "deployment",
                "edb_kind": kind,
                "started": self._started,
                "members": list(self._members),
                # Source tables are recorded by *name* so restore can demand
                # their re-registration before join ground truth goes wrong.
                "table_sources": sorted(self._table_sources),
            }
        )

    @classmethod
    def restore(cls, directory, passphrase: str | None = None) -> "Deployment":
        """Rebuild a deployment from a :meth:`save` snapshot.

        Every blob is checksum-verified (and unsealed, when a passphrase
        was used); restored shard routers come back under their original
        executor; process workers inherit their restored shards by fork.
        """
        import pickle

        from repro.edb import store as edb_store

        store = edb_store.EncryptedStore(directory, passphrase=passphrase)
        meta = store.manifest()["meta"]
        if meta.get("kind") != "deployment":
            raise edb_store.StoreIntegrityError(
                f"store at {directory} does not hold a deployment snapshot"
            )
        edb = edb_store.restore_edb(meta["edb_kind"], store.read_blob("edb.pkl"))
        truth = pickle.loads(store.read_blob("truth.pkl"))
        deployment = cls(edb, truth_source=truth)
        owner_states = pickle.loads(store.read_blob("owners.pkl"))
        for name in meta["members"]:
            deployment._members[name] = Owner.from_state(
                owner_states[name], edb
            )
        deployment._analyst._observations.extend(
            pickle.loads(store.read_blob("observations.pkl"))
        )
        deployment._started = meta["started"]
        pending = set(meta.get("table_sources", ()))
        if pending:
            # Sources are arbitrary callables the snapshot cannot carry; warn
            # immediately, and refuse (in query()) to compute ground truth
            # over the affected tables until they are re-registered --
            # silently missing a source table would freeze part of the join
            # ground truth without any error.
            deployment._pending_table_sources = pending
            logger.warning(
                "restored deployment recorded external table sources %s; "
                "re-register them with register_table_source() before "
                "querying their tables",
                sorted(pending),
            )
        return deployment

    def receive(
        self, owner_name: str, time: int, update: Record | None
    ) -> SyncDecision:
        """Deliver the logical update ``u_t`` of one member for time ``time``."""
        if not self._started:
            raise RuntimeError("call start() before receive()")
        owner = self._members[owner_name]
        decision = owner.tick(time, update)
        if update is not None and self._truth is not None:
            self._truth.ingest_one(owner.table, update)
        return decision

    def query(self, query: Query | str, time: int | None = None) -> AnalystObservation:
        """Run a query (AST or SQL) through the fleet's Query protocol."""
        if not self._started:
            raise RuntimeError("call start() before query()")
        parsed = parse_query(query) if isinstance(query, str) else query
        missing = self._pending_table_sources.intersection(parsed.tables)
        if missing:
            raise RuntimeError(
                f"query {parsed.name!r} touches restored table source(s) "
                f"{sorted(missing)} that were not re-registered after "
                "restore; call register_table_source() for each (ground "
                "truth would silently miss their records otherwise)"
            )
        at = time if time is not None else self.current_time
        return self._analyst.query(parsed, self.logical_tables, time=at)

    # -- fleet state -----------------------------------------------------------

    @property
    def owners(self) -> dict[str, Owner]:
        """The fleet members, keyed by member name (insertion order)."""
        return dict(self._members)

    def member(self, name: str) -> Owner:
        """One fleet member by name."""
        return self._members[name]

    @property
    def n_owners(self) -> int:
        """Number of fleet members."""
        return len(self._members)

    @property
    def edb(self):
        """The shared encrypted database (or shard router)."""
        return self._edb

    @property
    def measured_edb_stats(self):
        """Measured wall-clock of the shared EDB's protocol surface.

        A :class:`~repro.edb.router.WallClockStats` when the fleet outsources
        through a :class:`~repro.edb.router.ShardRouter` (under the
        ``processes`` executor its shards run concurrently in worker
        processes), ``None`` for a plain back-end.  This is the *measured*
        side of the ledger; the simulated QET/ingest durations in protocol
        results stay model-derived so they remain hardware independent and
        bit-reproducible.
        """
        return getattr(self._edb, "measured", None)

    @property
    def health(self) -> dict | None:
        """Recovery health of the shared EDB's shard fleet.

        A dict of the supervised router's health counters (``recoveries``,
        ``retries``, ``replayed_batches``, ``recovery_seconds`` -- see
        :meth:`repro.edb.router.WallClockStats.health`), or ``None`` for a
        plain back-end with no measured ledger.  All counters stay zero on
        an unsupervised router; recoveries never show up anywhere else
        because healed shards are byte-invisible in the paper-level
        observables.
        """
        measured = getattr(self._edb, "measured", None)
        if measured is None:
            return None
        health = getattr(measured, "health", None)
        return health() if callable(health) else None

    def close(self) -> None:
        """Release the shared EDB's resources (idempotent).

        Required for routers running the process shard executor, whose
        worker processes outlive the deployment object unless explicitly
        shut down; a no-op for plain in-process back-ends.
        """
        close = getattr(self._edb, "close", None)
        if close is not None:
            close()

    @property
    def analyst(self) -> Analyst:
        """The fleet-level analyst."""
        return self._analyst

    @property
    def truth_source(self) -> IncrementalTruth | None:
        """The maintained ground-truth aggregates, when enabled."""
        return self._truth

    @property
    def current_time(self) -> int:
        """Latest time unit processed by any member."""
        if not self._members:
            return 0
        return max(owner.current_time for owner in self._members.values())

    @property
    def epsilon(self) -> float:
        """Fleet-level update-pattern guarantee.

        Members own disjoint record streams, so the fleet composes in
        parallel: the guarantee is the worst (maximum) member epsilon.
        """
        if not self._members:
            return 0.0
        return max(owner.strategy.epsilon for owner in self._members.values())

    def update_patterns(self) -> dict[str, UpdatePattern]:
        """Per-member server-observable update transcripts."""
        return {name: owner.update_pattern for name, owner in self._members.items()}

    def logical_tables(self) -> dict[str, list[Record]]:
        """Ground-truth view: union of member logical databases per table,
        extended by any registered external table sources."""
        tables: dict[str, list[Record]] = {}
        for owner in self._members.values():
            tables.setdefault(owner.table, []).extend(owner.logical_database)
        for table, source in self._table_sources.items():
            tables.setdefault(table, []).extend(source())
        return tables

    def logical_size(self) -> int:
        """Total real records received by the fleet."""
        return sum(owner.logical_size for owner in self._members.values())

    # -- internals -------------------------------------------------------------

    def _owned_tables(self) -> set[str]:
        """Tables whose inserts flow through this deployment's truth source."""
        return {owner.table for owner in self._members.values()}
