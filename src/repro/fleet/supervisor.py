"""Self-healing shard supervision: deadlines, retry, snapshot + replay rebuild.

The fleet's availability story.  A :class:`SupervisedShard` wraps one shard
(an in-process :class:`~repro.edb.base.EncryptedDatabase` or a
:class:`~repro.edb.shard_worker.ShardWorkerClient` proxy) and funnels every
router call through one choke point that

* enforces the per-command pipe deadline the client layer provides
  (:class:`~repro.edb.shard_worker.ShardWorkerTimeout` instead of a hang);
* retries :class:`~repro.edb.shard_worker.TransientShardError` failures with
  bounded, *deterministic* exponential backoff -- the jitter stream is
  ``SeedSequence([seed, shard_index])``-derived, so a chaos run's timing
  decisions replay from the seed alone;
* rebuilds a dead shard from its newest snapshot generation plus the
  :class:`~repro.edb.store.ReplayLog` of every mutating command journaled
  since -- queries included, because an L-DP back-end
  draws noise per query, and the rebuilt RNG stream must resume exactly
  where the dead worker's was.  Under the process executor the replayed
  shard is handed to a fresh worker (fork inheritance) with its heap
  arenas (its executor's fold states rebuild on each plan's first query);
* re-raises once ``max_retries`` rebuilds are spent (``max_retries=0``
  fails fast on the first transient error).  There is no mode that keeps
  serving without a shard: an answer is either complete or an error.

Both halves of that recovery state -- the generations and the journal --
live in coordinator memory.  The coordinator outlives its workers, and
nothing rebuilds a shard once the coordinator itself is gone (a restored
deployment starts new generations), so recovery writes no file and leaves
nothing at rest.  Every generation is a full snapshot of the shard; what
the shard gained since is the journal, so there is no delta kind.  The
wrapper takes a generation (and closes the journal's staged commands into
one segment) once the mutating commands journaled since the head reach
max(``snapshot_every``, rows the head holds): a generation costs O(rows)
and at least that many commands pass between two, so snapshot work stays
amortized O(1) a command, a shard takes O(log |D|) generations once it
outgrows ``snapshot_every``, and a rebuild replays at most that many
commands (:meth:`SupervisedShard._snapshot_now`).

The wrapper's members are derived from the declared shard surface
(:data:`~repro.edb.base.SHARD_SURFACE`): every ``MUTATE`` command runs
through the choke point and is journaled, every ``CALL`` runs through it
unjournaled, every ``MIRROR`` value is read from the live shard (a worker
proxy answers it from its coordinator-side mirror, without a round trip),
and every ``FACT`` is cached once per shard.

The choke point is split in two, :meth:`SupervisedShard.begin` and
:meth:`SupervisedShard.finish`, so the router can send every shard its
command before it collects any reply; a call is ``finish(begin(...))``.

The recovery invariant -- pinned by ``tests/test_chaos_recovery.py`` -- is
that a recovered run is *byte-identical* to a fault-free run in every
paper-level observable: answers, QET, noise flags, and the aggregate and
per-shard ``(t, |γ|)`` update-pattern transcripts.  Three design choices
carry it:

1. commands are journaled only *after* they succeed, and a rebuilt shard is
   restored from snapshot + journal, so a command that half-applied before
   a crash is never double-executed -- the retry runs against a shard that
   provably never saw it;
2. the router's staged-ordinal routing commits only after a scatter
   succeeds, so the retried batch partitions exactly like a run that never
   failed;
3. retry/backoff/rebuild cost lands only in the *measured* wall-clock
   ledger (:class:`~repro.edb.router.WallClockStats` health counters) --
   simulated QET and every protocol result stay model-derived.

Health state (recoveries, retries, replayed batches, recovery seconds) is
folded into the router's ``measured`` ledger under a supervisor-level lock,
and surfaced through ``Deployment.health``.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.edb.base import (
    FACT,
    MUTATE,
    SHARD_SURFACE,
    EncryptedDatabase,
    command_args,
    derive_surface,
    surface_names,
)
from repro.edb.shard_worker import (
    ShardWorkerClient,
    TransientShardError,
    default_shard_timeout,
)
from repro.edb.store import ReplayLog, restore_backend, snapshot_backend
from repro.testing.chaos import ChaosWorkerFault, Fault, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edb.router import WallClockStats

__all__ = [
    "SupervisorConfig",
    "SupervisedShard",
    "ShardSupervisor",
    "resolve_supervisor_mode",
]

def resolve_supervisor_mode(mode: str) -> str:
    """Validate (and normalize) a supervisor grid flag (``"off"``/``"on"``)."""
    normalized = str(mode).lower()
    if normalized not in ("off", "on"):
        raise ValueError(f"supervisor must be 'off' or 'on', got {mode!r}")
    return normalized


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for the self-healing shard fleet.

    ``timeout_s=None`` defers to the process-wide deadline
    (``REPRO_SHARD_TIMEOUT_S``, default 60s).  ``seed`` feeds the
    deterministic backoff jitter.  Each shard keeps its ``keep`` newest
    generations, and takes the next one once the mutating commands journaled
    since its head reach max(``snapshot_every``, rows the head holds):
    ``snapshot_every`` is the cadence's floor.
    """

    timeout_s: float | None = None
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0
    snapshot_every: int = 32
    keep: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for default)")

    def resolved_timeout(self) -> float:
        """The effective per-command deadline in seconds."""
        return default_shard_timeout() if self.timeout_s is None else self.timeout_s

    def to_meta(self) -> dict:
        """Persistable policy."""
        return asdict(self)

    @classmethod
    def from_meta(cls, meta: Mapping) -> "SupervisorConfig":
        """Rebuild a config from :meth:`to_meta` output.

        Older metadata may carry a recovery scratch ``directory``, which is
        ignored (recovery state lives in memory), and an
        ``on_shard_failure`` policy: ``"recover"`` is the only behaviour
        left, ``"raise"`` is ``max_retries=0``, and ``"degrade"`` (answering
        for a lost shard with zeros) is refused.
        """
        fields = {k: v for k, v in dict(meta).items() if k != "directory"}
        policy = fields.pop("on_shard_failure", "recover")
        if policy == "raise":
            fields["max_retries"] = 0
        elif policy != "recover":
            raise ValueError(
                f"on_shard_failure={policy!r} is no longer supported: a lost "
                "shard is rebuilt or the call fails"
            )
        return cls(**fields)


def _supervised(name: str):
    def invoke(self, *args, **kwargs):
        return self._invoke(name, *command_args(name, args, kwargs))

    return invoke


def _live_mirror(name: str):
    return lambda self: getattr(self._live, name)


def _cached_fact(name: str):
    return lambda self: self._facts[name]


@derive_surface(
    mutate=_supervised, call=_supervised, mirror=_live_mirror, fact=_cached_fact
)
class SupervisedShard:
    """One shard behind the supervisor's retry / rebuild loop.

    Exposes the declared shard surface of the object it wraps plus its
    worker stats, so the router's scatter-gather code runs unchanged over
    supervised shards of any executor.
    """

    def __init__(
        self,
        live,
        index: int,
        config: SupervisorConfig,
        schedule: FaultSchedule | None,
        health: "WallClockStats",
        health_lock,
        context=None,
    ) -> None:
        self.shard_index = index
        self._live = live
        self._config = config
        self._schedule = schedule
        self._health = health
        self._health_lock = health_lock
        #: The mp context of a worker shard; ``None`` for an in-process one.
        self._context = context
        #: ``seq -> blob``: full generations, numbered in save order.
        self._generations: dict[int, bytes] = {}
        self._sequences = itertools.count(1)
        self._journal = ReplayLog()
        self._rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), int(index)])
        )
        self._mutation_count = 0
        self._since_snapshot = 0
        self._closed = False
        # Dead proxies' final counters fold in here so stats() stays
        # monotonic across rebuilds (the router absorbs deltas against it).
        self._stats_base = (0.0, 0.0, 0)
        # Facts are invariant across rebuilds (same scheme, same cost model).
        self._facts = {name: getattr(live, name) for name in surface_names(FACT)}
        # The newest generation, and how many mutating commands are
        # journaled after it before the next one is taken.
        self._snapshot_seq: int | None = None
        self._cadence = config.snapshot_every
        # Generation 0 baseline: every shard is recoverable from the instant
        # it is supervised, even before its first cadence snapshot.
        self._snapshot_now()

    # -- the choke point ------------------------------------------------------

    def _invoke(self, command: str, *args):
        return self.finish(self.begin(command, *args))

    def begin(self, command: str, *args) -> tuple:
        """First half of a call: count a mutation, pop its fault and, on a
        worker with no fault due, send the command.  Never raises; what the
        send met surfaces from :meth:`finish`.  A command that carries a
        fault is not sent: :meth:`finish` runs it synchronously."""
        fault: Fault | None = None
        if SHARD_SURFACE.get(command) == MUTATE:
            self._mutation_count += 1
            if self._schedule is not None:
                fault = self._schedule.pop(self.shard_index, self._mutation_count)
        sent = (
            fault is None
            and command in SHARD_SURFACE
            and hasattr(self._live, "send")
        )
        if sent:
            self._live.send(command, *args)
        return command, args, fault, sent

    def finish(self, pending: tuple):
        """Second half of a call: collect the reply (retrying and rebuilding
        on a transient failure), journal a mutation, keep the snapshot
        cadence."""
        command, args, fault, sent = pending
        attempt = 0
        while True:
            try:
                if sent:
                    sent = False
                    result = self._live.receive()
                else:
                    if fault is not None:
                        firing, fault = fault, None
                        self._fire_fault(firing, command, args)
                    result = self._apply(command, args)
                break
            except TransientShardError as exc:
                if attempt >= self._config.max_retries:
                    # The live worker's state is unknown: killed, it cannot
                    # hold up close(), and a later call rebuilds the shard.
                    self._kill_worker()
                    raise
                attempt += 1
                self._backoff(attempt)
                self._recover(exc)
        if SHARD_SURFACE.get(command) == MUTATE:
            self._journal.stage(
                {"tag": self._snapshot_seq, "command": command, "args": args}
            )
            self._since_snapshot += 1
            if self._since_snapshot >= self._cadence:
                self._snapshot_now()
        return result

    def _apply(self, command: str, args: tuple):
        if command == "snapshot":
            return self._snapshot_blob()
        return getattr(self._live, command)(*args)

    # -- retry / backoff / rebuild --------------------------------------------

    def _backoff(self, attempt: int) -> None:
        base = self._config.backoff_base_s * (2.0 ** (attempt - 1))
        delay = min(self._config.backoff_cap_s, base)
        # Deterministic jitter in [0.5, 1.0) x delay: decorrelates shards
        # that failed together without sacrificing replayability.
        _time.sleep(delay * (0.5 + 0.5 * float(self._rng.random())))

    def _recover(self, cause: TransientShardError) -> None:
        """Discard the (possibly half-mutated) live shard and rebuild it
        from the newest snapshot generation plus the replay journal."""
        started = _time.perf_counter()
        with self._health_lock:
            self._health.retries += 1
        self._kill_worker()
        self._teardown_live()
        if not self._generations:
            raise RuntimeError(
                f"shard {self.shard_index} has no snapshot to recover from "
                f"(after {cause})"
            )
        seq = max(self._generations)
        edb = restore_backend(self._generations[seq])
        # Replay everything journaled at or after the restored generation,
        # coordinator-side, against the restored EDB -- faults and journaling
        # are *not* re-entered here, so replay never recurses or re-fires.
        entries = self._journal.entries(min_tag=seq)
        for entry in entries:
            getattr(edb, entry["command"])(*entry["args"])
        self._snapshot_seq = seq
        if self._context is not None:
            # Fork inheritance carries the replayed state into a fresh worker.
            self._live = ShardWorkerClient(
                edb,
                self.shard_index,
                self._context,
                timeout_s=self._config.resolved_timeout(),
            )
        else:
            self._live = edb
        with self._health_lock:
            self._health.recoveries += 1
            self._health.replayed_batches += len(entries)
            self._health.recovery_seconds += _time.perf_counter() - started

    def _kill_worker(self) -> None:
        """SIGKILL the live worker, if any: its state is unknown, so it gets
        no shutdown handshake.  Only failure paths kill; close() does not."""
        process = getattr(self._live, "process", None)
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=self._config.resolved_timeout())

    def _teardown_live(self) -> None:
        """Close the live shard; a healthy worker shuts down gracefully."""
        live, self._live = self._live, None
        if live is None:
            return
        try:
            if hasattr(live, "stats"):
                busy, overhead, commands = live.stats()
                base_busy, base_overhead, base_commands = self._stats_base
                self._stats_base = (
                    base_busy + busy,
                    base_overhead + overhead,
                    base_commands + commands,
                )
            live.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort by design
            pass

    # -- snapshots -------------------------------------------------------------

    def _snapshot_now(self) -> int:
        """Keep one full generation of the live shard and make it the head;
        prunes the generations older than the newest ``keep`` and the
        journal prefix no kept generation can need any more.

        The next generation is due once max(``snapshot_every``, rows this
        one holds) mutating commands are journaled after it.
        """
        head = self._snapshot_seq
        seq = next(self._sequences)
        self._generations[seq] = self._snapshot_blob()
        for stale in sorted(self._generations)[: -max(1, self._config.keep)]:
            del self._generations[stale]
        self._snapshot_seq = seq
        self._since_snapshot = 0
        self._cadence = max(self._config.snapshot_every, self._live.outsourced_count)
        self._journal.flush()
        if head is not None:
            # keep-2 means the oldest reachable fallback is the previous
            # head; its replay needs entries tagged >= head, so only
            # strictly older segments go.
            self._journal.prune(min_tag=head)
        return seq

    def _snapshot_blob(self) -> bytes:
        if hasattr(self._live, "snapshot"):
            return self._live.snapshot()
        return snapshot_backend(self._live)

    # -- fault injection -------------------------------------------------------

    def _fire_fault(self, fault: Fault, command: str, args: tuple) -> None:
        if fault.kind == "kill":
            self._crash_live(command)
            return  # the command itself now raises ShardWorkerDied
        if fault.kind == "delay":
            # Worker oversleeps its next reply by 3x the deadline, so the
            # coordinator's poll() reliably times out first.
            self._live.chaos_delay(self._config.resolved_timeout() * 3.0)
            return
        if fault.kind == "drop":
            self._live.chaos_drop()
            return  # the swallowed command never gets a reply -> timeout
        if fault.kind == "tornsnap":
            # Drop the fresh generation, as an aborted snapshot leaves it:
            # recovery must fall back to the previous generation and a
            # longer replay.
            del self._generations[self._snapshot_now()]
            self._crash_live(command)
            return
        if fault.kind == "raise":
            self._half_apply(command, args)
            raise ChaosWorkerFault(self.shard_index, command)
        raise AssertionError(f"unhandled fault kind {fault.kind!r}")

    def _crash_live(self, command: str) -> None:
        """Make the live shard fail: kill its worker, or (in-process) raise."""
        if getattr(self._live, "process", None) is None:
            raise ChaosWorkerFault(self.shard_index, command)
        self._kill_worker()

    def _half_apply(self, command: str, args: tuple) -> None:
        """Tear the live shard's in-memory state mid-batch on purpose.

        Applies roughly half of an ingest (torn tables, torn history) or an
        extra discarded query (torn RNG stream / work counters) before the
        injected raise, so recovery provably cannot get away with resuming
        the live object -- only a snapshot+replay rebuild survives the
        differential.
        """
        try:
            if command in ("setup", "update"):
                records, time = args
                getattr(self._live, command)(records[: len(records) // 2], time)
            elif command == "insert_many":
                batches, time = args
                torn = {t: rows[: max(1, len(rows) // 2)] for t, rows in batches.items()}
                self._live.insert_many(torn, time)
            elif command == "query":
                self._live.query(*args)
        except Exception:  # noqa: BLE001 - a torn apply may legally fail too
            pass

    #: Answered from the cached cost-model fact, without a pipe round-trip.
    supports = EncryptedDatabase.supports

    def snapshot(self) -> bytes:
        """Authoritative serialized state of the live shard."""
        return self._invoke("snapshot")

    # -- worker plumbing passthrough -------------------------------------------

    @property
    def live(self):
        """The currently wrapped shard (proxy or EDB; ``None`` after close)."""
        return self._live

    @property
    def process(self):
        """The live worker process handle (``None`` for in-process shards)."""
        return getattr(self._live, "process", None)

    def stats(self) -> tuple[float, float, int]:
        """Monotonic (busy, overhead, commands) across worker generations."""
        base_busy, base_overhead, base_commands = self._stats_base
        if self._live is not None and hasattr(self._live, "stats"):
            busy, overhead, commands = self._live.stats()
            return (
                base_busy + busy,
                base_overhead + overhead,
                base_commands + commands,
            )
        return self._stats_base

    def close(self) -> None:
        """Tear down the live shard and drop its recovery state."""
        if self._closed:
            return
        self._closed = True
        self._teardown_live()
        self._generations.clear()
        self._journal.clear()


class ShardSupervisor:
    """Builds and owns the fleet's :class:`SupervisedShard` wrappers.

    One supervisor per router: it shares the health sink (the router's
    measured ledger) and its lock across shards, and hands each wrapper its
    slice of the fault schedule.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        schedule: FaultSchedule | None,
        health: "WallClockStats",
        context=None,
    ) -> None:
        import threading

        self.config = config
        self.schedule = schedule
        self._health = health
        self._health_lock = threading.Lock()
        self._context = context
        self.shards: list[SupervisedShard] = []

    def wrap(self, shards: Sequence) -> list[SupervisedShard]:
        """Wrap already-built shards (proxies or EDBs) for supervision."""
        self.shards = [
            SupervisedShard(
                live,
                index,
                self.config,
                self.schedule,
                self._health,
                self._health_lock,
                context=self._context,
            )
            for index, live in enumerate(shards)
        ]
        return self.shards

    def close(self) -> None:
        """Close every wrapper (idempotent)."""
        for shard in self.shards:
            shard.close()
