"""The end-to-end simulator.

:class:`Simulation` replays one or more growing databases against a single
EDB back-end (or a :class:`~repro.edb.router.ShardRouter` over several
shards), with one owner + synchronization strategy per update stream, and
issues the evaluation queries on a fixed schedule.  It collects the traces
the paper's figures and tables are built from.

This mirrors the paper's experimental client: "the client takes as input a
timestamped dataset but consumes only one record per round", with a one
minute gap between rounds (Section 8, implementation and configuration).

Workloads are keyed by *stream name*.  In the paper's single-owner shape the
stream name is the table name (one owner per table); a fleet run passes
several streams of the same table -- e.g. the partitions produced by
:func:`repro.workload.scenarios.partition_fleet` -- and gets one fleet member
per stream, all outsourcing to the shared EDB.  The owners are coordinated
through a :class:`repro.fleet.Deployment`, whose per-member strategies draw
from ``SeedSequence``-spawned noise streams.

:meth:`Simulation.run` drives :class:`repro.engine.Engine`, which replays
every owner one query interval at a time: each strategy advances over the
whole interval in bulk, the owners' Updates are merged in tick order, and
ground-truth answers fold in only the records delivered since a query last
ran instead of rescanning the logical tables at every query time.  The
per-tick loop with full rescans survives as the test oracle
:func:`repro.testing.reference.run_per_tick`; both produce bit-identical
:class:`RunResult`\\ s at a fixed seed (see
``tests/test_engine_equivalence.py``), and
``benchmarks/bench_engine_speed.py`` tracks the speedup.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.analyst import Analyst
from repro.core.owner import Owner
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.registry import make_strategy
from repro.edb.base import EncryptedDatabase
from repro.edb.records import Schema, SchemaDummyFactory
from repro.engine import Engine
from repro.fleet import Deployment
from repro.query.ast import Query
from repro.query.incremental import IncrementalTruth
from repro.simulation.results import QueryTrace, RunResult, TimePoint
from repro.workload.stream import GrowingDatabase

__all__ = ["SimulationConfig", "Simulation", "derive_schema"]

logger = logging.getLogger(__name__)


def derive_schema(stream: str, workload: GrowingDatabase) -> Schema:
    """Derive a stream's schema from its first record.

    Raises ``ValueError`` for an empty workload -- callers that know the
    schema from elsewhere (e.g. fleet partitions of a non-empty stream,
    where a small partition may be empty) should pass it explicitly.
    """
    record = next(
        (r for r in workload.initial), None
    ) or next((u for u in workload.updates if u is not None), None)
    if record is None:
        raise ValueError(
            f"workload for stream {stream!r} is empty; pass its schema explicitly"
        )
    return Schema(name=workload.table, attributes=tuple(record.values.keys()))


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run."""

    strategy: str = "dp-timer"
    epsilon: float = 0.5
    timer_period: int = 30
    theta: int = 15
    flush: FlushPolicy = field(default_factory=FlushPolicy)
    query_interval: int = 360
    horizon: int | None = None
    seed: int = 0

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """A copy with some fields replaced."""
        current = {
            "strategy": self.strategy,
            "epsilon": self.epsilon,
            "timer_period": self.timer_period,
            "theta": self.theta,
            "flush": self.flush,
            "query_interval": self.query_interval,
            "horizon": self.horizon,
            "seed": self.seed,
        }
        current.update(overrides)
        return SimulationConfig(**current)


@dataclass
class _RunContext:
    """Everything one run operates on."""

    edb: EncryptedDatabase
    analyst: Analyst
    owners: dict[str, Owner]
    deployment: Deployment
    result: RunResult
    queries: list[Query]
    horizon: int


class Simulation:
    """Replay growing databases against an EDB under one strategy.

    Parameters
    ----------
    edb_factory:
        Zero-argument callable building a fresh EDB back-end (or shard
        router) for the run.
    workloads:
        Mapping ``stream name -> GrowingDatabase``.  One owner (with its own
        strategy instance and cache) is created per stream; they all share
        the single EDB.  In the single-owner-per-table shape the stream name
        is the table name; fleet runs pass several streams per table.
    queries:
        The evaluation queries; queries a back-end cannot execute (e.g. joins
        on Crypt-epsilon) are skipped automatically.
    schemas:
        Optional mapping ``stream name -> Schema``; derived from the workload
        records when omitted.
    config:
        Run parameters (strategy, privacy budget, query schedule, ...).
    """

    def __init__(
        self,
        edb_factory: Callable[[], EncryptedDatabase],
        workloads: Mapping[str, GrowingDatabase],
        queries: Sequence[Query],
        config: SimulationConfig,
        schemas: Mapping[str, Schema] | None = None,
    ) -> None:
        if not workloads:
            raise ValueError("at least one workload stream is required")
        self._edb_factory = edb_factory
        self._workloads = dict(workloads)
        self._queries = list(queries)
        self._config = config
        self._schemas = dict(schemas) if schemas else {}
        for stream, workload in self._workloads.items():
            if stream not in self._schemas:
                self._schemas[stream] = derive_schema(stream, workload)

    # -- main entry points --------------------------------------------------------

    def run(
        self,
        persist_dir: str | os.PathLike | None = None,
        persist_passphrase: str | None = None,
    ) -> RunResult:
        """Execute the simulation on the segment-driven engine.

        The result is identical to the per-tick reference loop
        (:func:`repro.testing.reference.run_per_tick`) at the same seed.

        When ``persist_dir`` is given, the run writes a durable
        :class:`~repro.edb.store.SnapshotStore` snapshot after every query
        observation and, if a valid snapshot of the *same* configuration is
        already present, resumes from it instead of starting over -- a killed
        run replays bit-identically (answers, QET, aggregate and per-shard
        update-pattern transcripts).  The store is cleared once the run
        completes.  ``persist_passphrase`` seals the snapshots at rest.
        Registered external table sources are not persisted (arbitrary
        callables); re-registration is the caller's responsibility.
        """
        store = None
        if persist_dir is not None:
            from repro.edb.store import SnapshotStore

            store = SnapshotStore(persist_dir, passphrase=persist_passphrase)
        ctx, resume_time = self._build_or_resume(store)
        try:
            engine = Engine(
                ctx.horizon, start_time=resume_time, truth=ctx.analyst.truth_source
            )
            for stream, owner in ctx.owners.items():
                engine.add_stream(owner, self._workloads[stream].arrivals())
            if self._config.query_interval:
                engine.add_periodic(
                    self._config.query_interval,
                    lambda time: self._observe(time, ctx),
                )
                if store is not None:
                    # Registered after the observation periodic of the same
                    # interval, so every snapshot already includes the query
                    # trace of its own time unit.
                    engine.add_periodic(
                        self._config.query_interval,
                        lambda time: self._persist(time, ctx, store),
                    )
            engine.run()
            result = self._finalize(ctx)
            if store is not None:
                store.clear()
            return result
        finally:
            self._close_edb(ctx)

    @staticmethod
    def _close_edb(ctx: "_RunContext") -> None:
        """Release EDB resources after a run (shard worker processes).

        In-process back-ends make this a cheap no-op, but a run over a
        process-executor :class:`~repro.edb.router.ShardRouter` must always
        tear its workers down, even when the run raises.
        """
        close = getattr(ctx.edb, "close", None)
        if close is not None:
            close()

    # -- durability -----------------------------------------------------------------

    def _config_signature(self) -> str:
        """Fingerprint of everything a resumed run must share with the run
        that wrote the snapshot (the grid runner's sorted-JSON scheme)."""
        config = self._config
        payload = {
            "strategy": config.strategy,
            "epsilon": config.epsilon,
            "timer_period": config.timer_period,
            "theta": config.theta,
            "flush": [config.flush.interval, config.flush.size],
            "query_interval": config.query_interval,
            "horizon": config.horizon,
            "seed": config.seed,
            "streams": sorted(self._workloads),
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def _build_or_resume(self, store) -> tuple[_RunContext, int]:
        """Resume from the newest valid snapshot, else build from scratch."""
        if store is not None:
            snapshot = store.load_latest()
            if snapshot is not None:
                return self._resume(snapshot)
        return self._build(), 0

    def _persist(self, time: int, ctx: _RunContext, store) -> None:
        """Write one durable snapshot generation (fires after ``_observe``):
        the deployment's :meth:`~repro.fleet.Deployment.snapshot_blobs` plus
        the partial result."""
        meta, blobs = ctx.deployment.snapshot_blobs()
        result = json.dumps(ctx.result.to_dict(), sort_keys=True)
        blobs["result.json"] = result.encode("utf-8")
        store.save(
            blobs,
            {
                "kind": "simulation",
                **meta,
                "time": time,
                "horizon": ctx.horizon,
                "signature": self._config_signature(),
            },
        )

    def _resume(self, snapshot) -> tuple[_RunContext, int]:
        """Rebuild the run context from one :class:`EncryptedStore` snapshot."""
        from repro.edb import store as edb_store

        meta = snapshot.manifest()["meta"]
        if meta.get("kind") != "simulation":
            raise edb_store.StoreIntegrityError(
                f"store at {snapshot.path} does not hold a simulation snapshot"
            )
        if meta.get("signature") != self._config_signature():
            raise edb_store.StoreIntegrityError(
                f"snapshot at {snapshot.path} was written by a different "
                "simulation configuration"
            )
        deployment = Deployment.from_blobs(meta, snapshot.read_blob)
        result = RunResult.from_dict(
            json.loads(snapshot.read_blob("result.json").decode("utf-8"))
        )
        return self._context(deployment, result, meta["horizon"]), meta["time"]

    # -- construction ---------------------------------------------------------------

    def _build(self, incremental_truth: bool = True) -> _RunContext:
        """Instantiate the EDB, owner fleet and analyst of one run."""
        config = self._config
        edb = self._edb_factory()

        horizon = config.horizon
        if horizon is None:
            horizon = max(w.horizon for w in self._workloads.values())

        # One independent noise stream per owner: SeedSequence children keep
        # runs reproducible from one seed while adding or removing a stream
        # leaves every other owner's noise untouched.
        deployment = Deployment(
            edb, truth_source=IncrementalTruth() if incremental_truth else None
        )
        children = np.random.SeedSequence(config.seed).spawn(len(self._workloads))
        for (stream, workload), child in zip(self._workloads.items(), children):
            schema = self._schemas[stream]
            strategy = make_strategy(
                config.strategy,
                dummy_factory=SchemaDummyFactory(schema),
                rng=np.random.default_rng(child),
                epsilon=config.epsilon,
                period=config.timer_period,
                theta=config.theta,
                flush=config.flush,
            )
            deployment.add_owner(stream, schema, strategy)
        deployment.start(
            {stream: workload.initial for stream, workload in self._workloads.items()}
        )

        result = RunResult(
            strategy=config.strategy,
            backend=edb.scheme_name,
            epsilon=config.epsilon,
            parameters={
                "timer_period": config.timer_period,
                "theta": config.theta,
                "flush_interval": config.flush.interval,
                "flush_size": config.flush.size,
                "query_interval": config.query_interval,
                "horizon": horizon,
                "seed": config.seed,
            },
        )
        return self._context(deployment, result, horizon)

    def _context(
        self, deployment: Deployment, result: RunResult, horizon: int
    ) -> _RunContext:
        """The run context over ``deployment``: the queries its EDB can run,
        each registered with the truth when there is one."""
        edb = deployment.edb
        queries = [q for q in self._queries if edb.supports(q)]
        truth = deployment.truth_source
        if truth is not None:
            for query in queries:
                truth.register(query)
        return _RunContext(
            edb=edb,
            analyst=deployment.analyst,
            owners=deployment.owners,
            deployment=deployment,
            result=result,
            queries=queries,
            horizon=horizon,
        )

    # -- internals ------------------------------------------------------------------

    def _finalize(self, ctx: _RunContext) -> RunResult:
        """Final snapshot plus run-level totals."""
        result = ctx.result
        # Always capture the final state even if the horizon is not a
        # multiple of the query interval.
        if not result.timeline or result.timeline[-1].time != ctx.horizon:
            self._snapshot(ctx.horizon, ctx.owners, ctx.edb, result)
        result.sync_count = sum(o.strategy.sync_count for o in ctx.owners.values())
        result.total_update_volume = sum(
            o.update_pattern.total_volume() for o in ctx.owners.values()
        )
        # Surface shard-recovery activity (a supervised router's measured
        # ledger): recoveries are byte-invisible in the result itself, so a
        # run that healed mid-flight says so in the log rather than nowhere.
        measured = getattr(ctx.edb, "measured", None)
        if measured is not None:
            health = getattr(measured, "health", None)
            if callable(health):
                report = health()
                if report.get("recoveries"):
                    logger.info(
                        "shard fleet healed during run: %d recoveries "
                        "(%d retries, %d batches replayed, %.3fs)",
                        report.get("recoveries", 0),
                        report.get("retries", 0),
                        report.get("replayed_batches", 0),
                        report.get("recovery_seconds", 0.0),
                    )
        return result

    def _observe(self, time: int, ctx: _RunContext) -> None:
        for query in ctx.queries:
            observation = ctx.analyst.query(
                query, ctx.deployment.logical_tables, time=time
            )
            ctx.result.add_query_trace(
                QueryTrace(
                    time=time,
                    query_name=query.name,
                    l1_error=observation.l1_error,
                    qet_seconds=observation.qet_seconds,
                )
            )
        self._snapshot(time, ctx.owners, ctx.edb, ctx.result)

    @staticmethod
    def _snapshot(
        time: int,
        owners: Mapping[str, Owner],
        edb: EncryptedDatabase,
        result: RunResult,
    ) -> None:
        dummy_records = edb.dummy_count
        storage = edb.storage_bytes
        per_record_bytes = edb.cost_model.parameters.record_storage_bytes
        # The paper reports the logical gap of the primary (Yellow Cab) table;
        # we follow that convention: the first workload stream names the
        # primary table, and in a fleet the table's gap is the sum over the
        # members sharing it (a single owner per table reduces to its own).
        primary_table = next(iter(owners.values())).table
        primary_gap = sum(
            o.logical_gap for o in owners.values() if o.table == primary_table
        )
        result.add_time_point(
            TimePoint(
                time=time,
                outsourced_records=edb.outsourced_count,
                dummy_records=dummy_records,
                storage_bytes=storage,
                dummy_bytes=dummy_records * per_record_bytes,
                logical_gap=primary_gap,
                logical_size=sum(o.logical_size for o in owners.values()),
            )
        )
