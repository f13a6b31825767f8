"""Hash-partitioned sharding of the outsourced database.

A :class:`ShardRouter` presents the same Setup/Update/Query protocol surface
as a single :class:`~repro.edb.base.EncryptedDatabase` while hash-partitioning
each table's records across K independent back-end shards (each with its own
ORAM, cost model and RNG).  Owners and analysts talk to the router exactly as
they would to one EDB; the router

* routes every record by a stable hash of its per-table arrival ordinal
  (deterministic for a fixed ``route_seed``, uniform across shards, and
  independent of record *content* so dummy padding spreads like real data);
* runs Setup on every shard (each shard must be initialized before it can
  accept Updates), then forwards each Update to only the shards that
  receive records (an empty per-shard *update* would itself be an extra
  observable protocol invocation) and aggregates the outcome into one
  :class:`~repro.edb.base.UpdateResult` whose duration is the *maximum* over
  the shards touched -- shards are independent machines that ingest in
  parallel;
* answers queries by scatter-gather (:mod:`repro.query.scatter`): partial
  counts / group histograms / per-side join histograms per shard, merged
  deterministically, with the gathered QET again the per-shard maximum.
  On exact back-ends the gathered answers equal the unsharded ones; on an
  L-DP back-end every shard injects its own noise, so gathered answers sum
  K independent draws (see :mod:`repro.query.scatter`);
* exposes the aggregated update transcript through :attr:`update_history`,
  so :func:`repro.edb.leakage.update_pattern_observables` projects a sharded
  deployment to the same ``(time, volume)`` leakage as an unsharded one,
  while :meth:`per_shard_observables` gives the finer per-shard view.

Shard fan-out runs on a **pluggable executor** (``executor="threads"`` by
default): Setup, per-shard batched Updates and scatter queries execute
concurrently on a thread pool sized to the shard count -- the columnar /
ndarray shard work spends its time in NumPy kernels and hash primitives that
release the GIL, so on multi-core hardware the per-shard *simulated* QET
model (max over shards) is matched by a real wall-clock speedup, which
:attr:`measured` records.  ``executor="serial"`` keeps the original
sequential loop.  ``executor="processes"`` escapes the GIL entirely: each
shard moves into a persistent worker process
(:mod:`repro.edb.shard_worker`) that owns the shard's EDB, ORAM and RNG
stream, and the router's fan-out threads merely block on pipe round-trips
(releasing the GIL) while workers compute truly in parallel; ciphertexts
live in shared-memory arenas the coordinator reads zero-copy.  Shards are
mutated only by their own call and partials are merged in shard-index
order, so answers, transcripts and per-shard state are byte-identical under
every executor (``tests/test_scatter_concurrency.py`` pins this).

With ``K = 1`` every call is forwarded verbatim to the single shard, so a
one-shard router is byte-identical to the unrouted back-end in every
observable (``tests/test_shard_router.py`` pins this).
"""

from __future__ import annotations

import hashlib
import logging
import time as _time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.edb.base import (
    EncryptedDatabase,
    QueryResult,
    UpdateResult,
    derive_surface,
)
from repro.edb.cost_model import UnsupportedQueryError
from repro.edb.leakage import update_pattern_observables
from repro.edb.records import Record
from repro.edb.shard_worker import ShardWorkerClient
from repro.query.ast import JoinCountQuery, MultiJoinCountQuery, Query
from repro.query.scatter import (
    drain_futures,
    join_count_from_histograms,
    join_side_probes,
    merge_grouped_counts,
    merge_partial_answers,
    multi_join_count_from_histograms,
    multi_join_probes,
    scatter_map,
)
from repro.query.views import can_maintain
from repro.util.mp import preferred_mp_context, usable_cpus

__all__ = ["SHARD_EXECUTORS", "WallClockStats", "ShardRouter", "resolve_shard_executor"]

logger = logging.getLogger(__name__)

#: Supported shard fan-out executors: ``"threads"`` scatters protocol calls
#: across a pool with one worker per shard; ``"serial"`` visits shards in a
#: plain loop; ``"processes"`` moves each shard into a persistent worker
#: process (true parallelism, shared-memory ciphertext arenas).  Observables
#: are identical across all three; only wall clock moves.
SHARD_EXECUTORS = ("threads", "serial", "processes")

#: Concurrent executors already warned about on a single-CPU host, so the
#: footgun warning fires once per executor per process, not once per cell.
_warned_single_cpu: set[str] = set()


def _release_router_resources(resources: dict) -> None:
    """Shut down a router's fan-out pool and worker clients.

    Module-level over a shared mutable box (no reference back to the router)
    so it can double as a ``weakref.finalize`` callback: worker processes
    and their shared-memory arenas are reaped deterministically when the
    router is garbage collected or the interpreter exits, instead of
    depending on ``__del__`` timing.  Safe to call repeatedly --
    ``client.close()`` is idempotent and the pool slot is cleared.
    """
    pool = resources.get("pool")
    if pool is not None:
        resources["pool"] = None
        pool.shutdown(wait=False, cancel_futures=True)
    for client in resources.get("clients", ()):
        client.close()


def _resolve_supervision(supervisor, faults):
    """Normalize the router's ``(supervisor, faults)`` inputs.

    Returns ``(SupervisorConfig | None, FaultSchedule | None)``.  A
    non-empty fault schedule implies supervision with the default config --
    injecting faults into an unsupervised fleet would just be crashing it.
    Imports lazily so unsupervised routers never pay for the fleet modules.
    """
    schedule = None
    if faults:
        from repro.testing.chaos import FaultSchedule, parse_fault_schedule

        schedule = (
            faults if isinstance(faults, FaultSchedule) else parse_fault_schedule(faults)
        )
        if len(schedule) == 0:
            schedule = None
    config = None
    if supervisor is not None and supervisor != "off":
        from repro.fleet.supervisor import SupervisorConfig, resolve_supervisor_mode

        if isinstance(supervisor, SupervisorConfig):
            config = supervisor
        elif resolve_supervisor_mode(supervisor) == "on":
            config = SupervisorConfig()
    if config is None and schedule is not None:
        from repro.fleet.supervisor import SupervisorConfig

        config = SupervisorConfig()
    return config, schedule


def resolve_shard_executor(executor: str) -> str:
    """Validate (and normalize) a shard-executor flag.

    Choosing a concurrent executor on a host with one usable CPU is a
    footgun -- fan-out adds coordination cost with no cores to spread the
    work over -- so that combination logs a one-time warning: simulated QET
    is unaffected (it is model-derived), but *measured* wall clock will not
    improve and may regress.
    """
    normalized = executor.lower()
    if normalized not in SHARD_EXECUTORS:
        raise ValueError(
            f"shard executor must be one of {SHARD_EXECUTORS}, got {executor!r}"
        )
    if (
        normalized in ("threads", "processes")
        and normalized not in _warned_single_cpu
        and usable_cpus() == 1
    ):
        _warned_single_cpu.add(normalized)
        logger.warning(
            "shard executor %r selected on a single-CPU host: measured "
            "wall clock will not improve (simulated QET is unaffected)",
            normalized,
        )
    return normalized


@dataclass
class WallClockStats:
    """Measured wall-clock spent inside the router's protocol surface.

    This is the *measured* counterpart of the simulated cost model: QET and
    ingest durations reported in protocol results stay model-derived (and
    hardware independent), while these counters record what the coordinator
    actually waited, so benchmarks can put real and simulated speedups side
    by side without conflating them.

    Every surface counts *attempts*: a call that raises (unsupported query,
    pre-Setup protocol error) still contributes its call and wall clock, so
    calls/seconds share one basis across setup/update/query.

    The process executor additionally splits the coordinator's wall clock
    per shard: :attr:`per_shard_busy_seconds` is each worker's self-reported
    execution time (true shard compute, measured inside the worker), and
    :attr:`serialization_seconds` the remainder of the pipe round-trips --
    argument/result pickling, transport and scheduling, i.e. what the
    process boundary costs over an in-process call.  Both stay zero for the
    in-process executors, where no boundary exists.
    """

    setup_calls: int = 0
    setup_seconds: float = 0.0
    update_calls: int = 0
    update_seconds: float = 0.0
    query_calls: int = 0
    query_seconds: float = 0.0
    per_shard_busy_seconds: dict[int, float] = field(default_factory=dict)
    serialization_seconds: float = 0.0
    worker_commands: int = 0
    #: Supervisor health state (repro.fleet.supervisor): every counter stays
    #: zero on an unsupervised (or fault-free, retry-free) fleet.  Retries,
    #: rebuilds and replay only ever move *measured* wall clock -- simulated
    #: QET and all protocol observables are recovery-invariant by contract.
    recoveries: int = 0
    retries: int = 0
    replayed_batches: int = 0
    recovery_seconds: float = 0.0

    @property
    def mean_query_seconds(self) -> float:
        """Mean measured wall clock per gathered query."""
        return self.query_seconds / self.query_calls if self.query_calls else 0.0

    def health(self) -> dict:
        """The supervisor health counters as a plain dict."""
        return {
            "recoveries": self.recoveries,
            "retries": self.retries,
            "replayed_batches": self.replayed_batches,
            "recovery_seconds": self.recovery_seconds,
        }

    def reset(self) -> None:
        """Zero all counters (benchmarks reset between phases)."""
        for name, value in vars(WallClockStats()).items():
            setattr(self, name, value)


def _fan_out(router: "ShardRouter", name: str, *args, **kwargs) -> None:
    """Send one mutating command to every shard."""
    try:
        router._map(lambda shard: getattr(shard, name)(*args, **kwargs), router._shards)
    finally:
        router._absorb_worker_stats()


def _broadcast(name: str):
    return lambda self, *args, **kwargs: _fan_out(self, name, *args, **kwargs)


def _sum_call(name: str):
    return lambda self, *args: sum(getattr(s, name)(*args) for s in self._shards)


def _sum_read(name: str):
    return lambda self: sum(getattr(shard, name) for shard in self._shards)


def _first_shard_fact(name: str):
    return lambda self: getattr(self._shards[0], name)


@derive_surface(
    mutate=_broadcast, call=_sum_call, read=_sum_read, fact=_first_shard_fact
)
class ShardRouter:
    """Route one logical EDB across K independent back-end shards.

    Shard-surface members (:data:`~repro.edb.base.SHARD_SURFACE`) the body
    does not define are derived: a mutating command goes to every shard
    (``rotate_key``: each draws its own key unless one is given), a call or
    read sums over the shards, a fact is shard 0's.

    Parameters
    ----------
    shards:
        The already-constructed back-end shards.  They should be of the same
        scheme (the router reports shard 0's facts as its own).
    route_seed:
        Seed folded into the routing hash; two routers with equal seeds and
        shard counts route identically.
    executor:
        Shard fan-out executor: ``"threads"`` (default) runs per-shard
        protocol work on a thread pool with one worker per shard,
        ``"serial"`` visits shards sequentially, ``"processes"`` moves each
        shard into a persistent worker process at construction time (the
        shard object crosses the process boundary exactly once; afterwards
        only commands and results travel the pipes).  Gathered answers and
        all transcripts are byte-identical across executors.
    supervisor:
        ``None``/``"off"`` (default) leaves shard failures terminal exactly
        as before; ``"on"`` (or a pre-built
        :class:`~repro.fleet.supervisor.SupervisorConfig`) wraps every
        shard in the self-healing supervision layer: per-command deadlines,
        deterministic retry/backoff, snapshot+replay rebuild of dead
        workers.  Recovery is observable-invisible by contract
        (``tests/test_chaos_recovery.py``).
    faults:
        Deterministic fault schedule (``kind[:shard]@N`` grid syntax, or a
        pre-built :class:`~repro.testing.chaos.FaultSchedule`).  A
        non-empty schedule implies supervision (default config) when
        ``supervisor`` is off.
    """

    def __init__(
        self,
        shards: Sequence[EncryptedDatabase],
        route_seed: int = 0,
        executor: str = "threads",
        supervisor=None,
        faults="",
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("a ShardRouter needs at least one shard")
        self._route_seed = int(route_seed)
        self._executor = resolve_shard_executor(executor)
        #: Measured ledger first: the supervisor wrappers built below share
        #: it as their health sink.
        self.measured = WallClockStats()
        supervisor_config, fault_schedule = _resolve_supervision(supervisor, faults)
        self._supervisor_meta = (
            supervisor_config.to_meta() if supervisor_config is not None else None
        )
        self._supervisor = None
        self._clients: list = []
        context = None
        if self._executor == "processes":
            context = preferred_mp_context()
            timeout_s = (
                supervisor_config.resolved_timeout()
                if supervisor_config is not None
                else None
            )
            shards = self._clients = [
                ShardWorkerClient(shard, index, context, timeout_s=timeout_s)
                for index, shard in enumerate(shards)
            ]
        if supervisor_config is not None:
            from repro.fleet.supervisor import ShardSupervisor

            self._supervisor = ShardSupervisor(
                supervisor_config,
                fault_schedule,
                self._executor,
                self.measured,
                context=context,
            )
            #: In-process wrappers report constant (0, 0, 0) worker stats, so
            #: the delta absorption below skips them; they still live in the
            #: resource box so close()/finalize tears down their scratch.
            shards = self._clients = self._supervisor.wrap(shards)
        self._shards: list = list(shards)
        #: Per-client (busy, overhead, commands) snapshots so measured stats
        #: absorb only the *delta* each protocol call produced -- keeping
        #: ``measured.reset()`` meaningful across benchmark phases.
        self._client_marks = [client.stats() for client in self._clients]
        self._pool: ThreadPoolExecutor | None = None
        #: Mutable box shared with the finalizer: the pool is created lazily
        #: by :meth:`_pool_map`, so the box is updated there as well.
        self._resources: dict = {"pool": None, "clients": self._clients}
        self._finalizer = weakref.finalize(
            self, _release_router_resources, self._resources
        )
        self._ordinals: dict[str, int] = {}
        #: Router-level registered view queries, in registration order.  For
        #: joins the *shards* register the scatter probes instead (a join
        #: over hash-partitioned sides has no shard-local view), so this list
        #: is the only place the original join query is remembered.
        self._view_queries: list[Query] = []
        self._view_answering = True
        #: Partition metadata: per table, how many records were routed to
        #: each shard.  Maintained coordinator-side during partitioning (no
        #: extra shard round-trips), committed together with the staged
        #: ordinals.
        self._table_shard_counts: dict[str, list[int]] = {}
        self._update_history: list[UpdateResult] = []
        self._is_setup = False

    # -- executor ------------------------------------------------------------

    @property
    def shard_executor(self) -> str:
        """The configured fan-out executor (one of :data:`SHARD_EXECUTORS`)."""
        return self._executor

    @property
    def supervisor_mode(self) -> str:
        """``"on"`` when shards run behind the self-healing supervisor."""
        return "off" if self._supervisor_meta is None else "on"

    @property
    def supervisor(self):
        """The :class:`~repro.fleet.supervisor.ShardSupervisor` (or ``None``)."""
        return self._supervisor

    def _map(self, fn: Callable, items: Sequence) -> list:
        """Scatter ``fn`` over ``items``, gathering results in item order.

        The thread pool drives both concurrent executors: with in-process
        shards the NumPy/hashing kernels release the GIL; with process
        shards each pool thread blocks on its worker's pipe (releasing the
        GIL) while the workers compute truly in parallel.
        """
        executor_map = None
        if self._executor in ("threads", "processes") and len(items) > 1:
            executor_map = self._pool_map
        return scatter_map(executor_map, fn, items)

    def _pool_map(self, fn: Callable, items: Sequence) -> list:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=len(self._shards),
                thread_name_prefix="shard-router",
            )
            self._resources["pool"] = self._pool
        # submit + drain (not Executor.map): when one shard call fails, the
        # sibling calls are waited to completion before the error propagates,
        # so no scatter thread is left blocked on a pipe or mid-mutation when
        # the caller (or the supervisor) starts acting on the failure.
        futures = [self._pool.submit(fn, item) for item in items]
        return drain_futures(futures)

    def _absorb_worker_stats(self) -> None:
        """Fold worker-side counters accumulated since the last call into
        :attr:`measured` (per-shard busy seconds, serialization overhead)."""
        for position, client in enumerate(self._clients):
            busy0, overhead0, commands0 = self._client_marks[position]
            busy, overhead, commands = client.stats()
            self._client_marks[position] = (busy, overhead, commands)
            if commands == commands0:
                continue
            shard_busy = self.measured.per_shard_busy_seconds
            shard_busy[client.shard_index] = (
                shard_busy.get(client.shard_index, 0.0) + busy - busy0
            )
            self.measured.serialization_seconds += overhead - overhead0
            self.measured.worker_commands += commands - commands0

    def close(self) -> None:
        """Shut down the fan-out pool and any worker processes (idempotent)."""
        self._pool = None
        _release_router_resources(self._resources)

    # -- topology -----------------------------------------------------------

    @property
    def shards(self) -> tuple[EncryptedDatabase, ...]:
        """The back-end shards, in shard-index order."""
        return tuple(self._shards)

    @property
    def n_shards(self) -> int:
        """Number of shards records are partitioned across."""
        return len(self._shards)

    def shard_index(self, table: str, ordinal: int) -> int:
        """Shard receiving the ``ordinal``-th record ever routed to ``table``.

        A pure function of ``(route_seed, table, ordinal)``: routing is a
        partition by construction (exactly one index per record) and stable
        across runs, which the shard-router property tests rely on.
        """
        if len(self._shards) == 1:
            return 0
        key = f"{self._route_seed}:{table}:{ordinal}".encode()
        digest = hashlib.blake2s(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % len(self._shards)

    # -- protocol surface ---------------------------------------------------

    def setup(self, records: Iterable[Record], time: int = 0) -> UpdateResult:
        """Run Setup on every shard (each must be initialized, even if empty)."""
        started = _time.perf_counter()
        try:
            if len(self._shards) == 1:
                records = list(records)
                result = self._shards[0].setup(records, time=time)
                return self._forwarded(result, self._group(records))
            parts, staged_ordinals, staged_counts = self._partition(
                self._group(records)
            )
            results = self._map(
                lambda pair: pair[0].setup(
                    [r for rows in pair[1].values() for r in rows], time=time
                ),
                list(zip(self._shards, parts)),
            )
            self._commit_routing(staged_ordinals, staged_counts)
            return self._aggregate(results, time)
        finally:
            self.measured.setup_calls += 1
            self.measured.setup_seconds += _time.perf_counter() - started
            self._absorb_worker_stats()

    def update(self, records: Iterable[Record], time: int) -> UpdateResult:
        """Run Update on the shards receiving records (empty γ goes to shard 0)."""
        started = _time.perf_counter()
        try:
            if len(self._shards) == 1:
                records = list(records)
                result = self._shards[0].update(records, time=time)
                return self._forwarded(result, self._group(records))
            parts, staged_ordinals, staged_counts = self._partition(
                self._group(records)
            )
            return self._scatter_update(parts, staged_ordinals, staged_counts, time)
        finally:
            self.measured.update_calls += 1
            self.measured.update_seconds += _time.perf_counter() - started
            self._absorb_worker_stats()

    def insert_many(
        self, batches: Mapping[str, Sequence[Record]], time: int
    ) -> UpdateResult:
        """Batched Update: records pre-grouped by table, routed per record."""
        started = _time.perf_counter()
        try:
            if len(self._shards) == 1:
                result = self._shards[0].insert_many(batches, time=time)
                return self._forwarded(result, batches)
            grouped = {table: list(rows) for table, rows in batches.items() if rows}
            parts, staged_ordinals, staged_counts = self._partition(grouped)
            return self._scatter_update(parts, staged_ordinals, staged_counts, time)
        finally:
            self.measured.update_calls += 1
            self.measured.update_seconds += _time.perf_counter() - started
            self._absorb_worker_stats()

    def query(self, query: Query, time: int = 0) -> QueryResult:
        """Scatter the query to every shard and gather the partial aggregates."""
        started = _time.perf_counter()
        try:
            if len(self._shards) == 1:
                return self._shards[0].query(query, time=time)
            if not self.is_setup:
                raise RuntimeError("Query invoked before Setup")
            if not self.supports(query):
                raise UnsupportedQueryError(
                    f"{self.scheme_name} does not support {type(query).__name__}"
                )
            return self._gather(query, time)
        finally:
            self.measured.query_calls += 1
            self.measured.query_seconds += _time.perf_counter() - started
            self._absorb_worker_stats()

    def table_shard_counts(self, table: str) -> tuple[int, ...]:
        """Routed-record count per shard for one table (partition metadata)."""
        counts = self._table_shard_counts.get(table)
        if counts is None:
            return (0,) * len(self._shards)
        return tuple(counts)

    def _gather(self, query: Query, time: int) -> QueryResult:
        """Scatter ``query`` and merge the partial answers (K > 1)."""
        if isinstance(query, JoinCountQuery):
            return self._gather_join(query, time)
        if isinstance(query, MultiJoinCountQuery):
            return self._gather_multi_join(query, time)
        results = self._map(lambda shard: shard.query(query, time=time), self._shards)
        return QueryResult(
            query_name=query.name,
            answer=merge_partial_answers(query, [r.answer for r in results]),
            qet_seconds=max(r.qet_seconds for r in results),
            records_scanned=sum(r.records_scanned for r in results),
            noise_injected=any(r.noise_injected for r in results),
        )

    # -- delta-maintained views ----------------------------------------------

    def register_view(self, query: Query) -> bool:
        """Register a delta-maintained view for ``query`` across the fleet.

        With one shard the query registers verbatim.  With K > 1 the join
        shapes have no shard-local view (hash-partitioned sides join across
        shards), so every shard registers the *scatter probes* instead --
        per-side key histograms the gather step already merges -- and the
        router remembers the original query.  Returns ``False`` when the
        query was already registered.
        """
        if not self.supports(query):
            raise UnsupportedQueryError(
                f"{self.scheme_name} does not support {type(query).__name__}"
            )
        if not can_maintain(query):
            raise TypeError(
                f"query shape {type(query).__name__} is not delta-maintainable"
            )
        if query in self._view_queries:
            return False
        probes = (query,) if len(self._shards) == 1 else self._shard_view_queries(query)
        try:
            self._map(
                lambda shard: [shard.register_view(p) for p in probes], self._shards
            )
        finally:
            self._absorb_worker_stats()
        self._view_queries.append(query)
        return True

    def _shard_view_queries(self, query: Query) -> tuple[Query, ...]:
        """What each shard maintains for one router-level view query."""
        if isinstance(query, JoinCountQuery):
            return join_side_probes(query)
        if isinstance(query, MultiJoinCountQuery):
            return multi_join_probes(query)
        return (query,)

    def views_cover(self, query: Query) -> bool:
        """Whether a registered router-level view answers ``query``."""
        return query in self._view_queries

    @property
    def registered_views(self) -> tuple[Query, ...]:
        """Router-level view queries, in registration order."""
        return tuple(self._view_queries)

    @property
    def view_answering(self) -> bool:
        """Whether registered views answer queries (else views only maintain)."""
        return self._view_answering

    def set_view_answering(self, enabled: bool) -> None:
        """Toggle answering from maintained views, on every shard.

        The differential-testing switch: with ``False`` every shard falls
        back to its rescan path while views keep maintaining state, and the
        gathered answers must be byte-identical either way.
        """
        self._view_answering = bool(enabled)
        _fan_out(self, "set_view_answering", self._view_answering)

    # -- observable state ----------------------------------------------------

    @property
    def is_setup(self) -> bool:
        """Whether Setup has run on every shard.

        Cached once true: no protocol clears it, and a rebuilt shard replays
        its journaled Setup -- so queries stop asking every shard."""
        if not self._is_setup:
            self._is_setup = all(shard.is_setup for shard in self._shards)
        return self._is_setup

    @property
    def update_history(self) -> tuple[UpdateResult, ...]:
        """Aggregated transcript: one ``(time, total volume)`` entry per
        router-level Setup/Update invocation, regardless of shard count."""
        return tuple(self._update_history)

    def per_shard_observables(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The finer-grained per-shard ``(time, volume)`` transcripts."""
        return tuple(
            update_pattern_observables(shard.update_history)
            for shard in self._shards
        )

    #: The shards' scheme rule on the *original* query shape: a back-end
    #: without join support stays join-free even though the scatter
    #: would only send it group-by probes.
    supports = EncryptedDatabase.supports

    # -- internals -----------------------------------------------------------

    def _group(self, records: Iterable[Record]) -> dict[str, list[Record]]:
        by_table: dict[str, list[Record]] = {}
        for record in records:
            by_table.setdefault(record.table or "default", []).append(record)
        return by_table

    def _partition(
        self, by_table: Mapping[str, Sequence[Record]]
    ) -> tuple[list[dict[str, list[Record]]], dict[str, int], dict[str, list[int]]]:
        """Split grouped records into per-shard groups with *staged* routing.

        Returns ``(parts, staged_ordinals, staged_counts)``.  Routing state
        (``self._ordinals``, ``self._table_shard_counts``) is **not** mutated
        here: the caller commits the staged values via :meth:`_commit_routing`
        only after every touched shard succeeded.  A failed Setup/Update
        (pre-Setup protocol error, a dead worker, any shard raise) therefore
        leaves routing untouched, so a retry routes every record exactly like
        a run that never failed.
        """
        parts: list[dict[str, list[Record]]] = [{} for _ in self._shards]
        staged_ordinals: dict[str, int] = {}
        staged_counts: dict[str, list[int]] = {}
        for table, rows in by_table.items():
            ordinal = self._ordinals.get(table, 0)
            counts = [0] * len(self._shards)
            for record in rows:
                index = self.shard_index(table, ordinal)
                parts[index].setdefault(table, []).append(record)
                counts[index] += 1
                ordinal += 1
            staged_ordinals[table] = ordinal
            staged_counts[table] = counts
        return parts, staged_ordinals, staged_counts

    def _commit_routing(
        self, staged_ordinals: Mapping[str, int], staged_counts: Mapping[str, list[int]]
    ) -> None:
        """Fold staged routing state in, after the scatter succeeded."""
        self._ordinals.update(staged_ordinals)
        for table, counts in staged_counts.items():
            totals = self._table_shard_counts.setdefault(
                table, [0] * len(self._shards)
            )
            for index, count in enumerate(counts):
                totals[index] += count

    def _forwarded(
        self, result: UpdateResult, by_table: Mapping[str, Sequence[Record]]
    ) -> UpdateResult:
        """Record a Setup/Update the one shard ran: its transcript entry and
        the routing state a K > 1 scatter would have committed."""
        counts = {table: len(rows) for table, rows in by_table.items() if rows}
        self._commit_routing(
            {table: self._ordinals.get(table, 0) + n for table, n in counts.items()},
            {table: [n] for table, n in counts.items()},
        )
        self._update_history.append(result)
        return result

    def _scatter_update(
        self,
        parts: Sequence[Mapping[str, Sequence[Record]]],
        staged_ordinals: Mapping[str, int],
        staged_counts: Mapping[str, list[int]],
        time: int,
    ) -> UpdateResult:
        touched = [index for index, part in enumerate(parts) if part]
        if not touched:
            # An empty synchronization is still one observable protocol
            # round-trip; it travels through the first shard.
            results = [self._shards[0].insert_many({}, time=time)]
        else:
            results = self._map(
                lambda index: self._shards[index].insert_many(parts[index], time=time),
                touched,
            )
        self._commit_routing(staged_ordinals, staged_counts)
        return self._aggregate(results, time)

    def _aggregate(self, results: Sequence[UpdateResult], time: int) -> UpdateResult:
        aggregate = UpdateResult(
            time=time,
            records_added=sum(r.records_added for r in results),
            dummies_added=sum(r.dummies_added for r in results),
            bytes_added=sum(r.bytes_added for r in results),
            # Shards ingest in parallel: the deployment-level duration is the
            # slowest shard, which is where shard-count throughput scaling
            # comes from.
            duration_seconds=max(r.duration_seconds for r in results),
        )
        self._update_history.append(aggregate)
        return aggregate

    def _gather_join(self, query: JoinCountQuery, time: int) -> QueryResult:
        """Distributed join count via per-side key histograms.

        Hash-partitioned sides cannot be joined shard-locally, so each shard
        contributes one histogram per side (an ordinary dummy-aware group-by
        through its Query protocol, left side first); the merged histograms'
        dot product is the exact join count.  Each shard runs its two probes
        sequentially; shards run in parallel, so the gathered QET is the
        slowest shard's probe total.
        """
        left_probe, right_probe = join_side_probes(query)
        probe_pairs = self._map(
            lambda shard: (
                shard.query(left_probe, time=time),
                shard.query(right_probe, time=time),
            ),
            self._shards,
        )
        left_parts: list[Mapping] = []
        right_parts: list[Mapping] = []
        shard_qets: list[float] = []
        scanned = 0
        noise = False
        for left_result, right_result in probe_pairs:
            left_parts.append(left_result.answer)
            right_parts.append(right_result.answer)
            shard_qets.append(left_result.qet_seconds + right_result.qet_seconds)
            scanned += left_result.records_scanned + right_result.records_scanned
            noise = noise or left_result.noise_injected or right_result.noise_injected
        answer = join_count_from_histograms(
            merge_grouped_counts(left_parts), merge_grouped_counts(right_parts)
        )
        return QueryResult(
            query_name=query.name,
            answer=answer,
            qet_seconds=max(shard_qets),
            records_scanned=scanned,
            noise_injected=noise,
        )

    def _gather_multi_join(
        self, query: MultiJoinCountQuery, time: int
    ) -> QueryResult:
        """Distributed multi-way star-join count via per-side key histograms.

        The binary gather generalized: each shard answers one group-by probe
        per join side (sequentially, so the per-shard QET is the probe sum),
        the coordinator merges each side's histograms across shards and the
        product-sum over the shared key is the exact star-join count.
        """
        probes = multi_join_probes(query)
        probe_rows = self._map(
            lambda shard: tuple(shard.query(probe, time=time) for probe in probes),
            self._shards,
        )
        side_parts: list[list[Mapping]] = [[] for _ in probes]
        shard_qets: list[float] = []
        scanned = 0
        noise = False
        for results in probe_rows:
            for side, result in enumerate(results):
                side_parts[side].append(result.answer)
            shard_qets.append(sum(result.qet_seconds for result in results))
            scanned += sum(result.records_scanned for result in results)
            noise = noise or any(result.noise_injected for result in results)
        merged = [merge_grouped_counts(parts) for parts in side_parts]
        answer = multi_join_count_from_histograms(merged)
        return QueryResult(
            query_name=query.name,
            answer=answer,
            qet_seconds=max(shard_qets),
            records_scanned=scanned,
            noise_injected=noise,
        )
