"""Persistent per-shard worker processes for the process shard executor.

``ShardRouter(executor="processes")`` moves every shard's state -- EDB,
ciphertext arenas and RNG stream -- into its own long-lived worker
process.  The division of labour:

* :func:`shard_worker_main` is the worker loop: it owns the shard's
  :class:`~repro.edb.base.EncryptedDatabase` and serves the protocol
  commands of the declared shard surface
  (:data:`~repro.edb.base.SHARD_SURFACE`) plus the static facts over one
  duplex pipe, one command at a time; any name outside that table is
  refused.  The shard object crosses the process boundary exactly once, at
  startup (by fork inheritance on POSIX, one pickle on spawn platforms);
  afterwards only commands, answers and
  :class:`UpdateResult`/:class:`QueryResult` payloads travel the pipe --
  shard state never pickles again, except as the snapshot generations a
  supervisor asks for.
* :class:`ShardWorkerClient` is the coordinator-side proxy.  Its forwarding
  members are derived from the same table
  (:func:`~repro.edb.base.derive_surface`), so the router's scatter-gather
  code runs unchanged over process-backed shards: the facts (scheme name,
  cost model, leakage profile, ...) are fetched once at startup,
  ``supports`` answers from the cached cost model, and the ``MIRROR``
  values (transcript, counts, storage) come from a
  :class:`~repro.edb.base.ShardMirror` seeded before the fork and advanced
  by each reply.

Ciphertexts written by a worker (``simulate_encryption=True``) stay in its
own heap :class:`~repro.edb.crypto.CiphertextArena`\\ s, and its record key
never leaves it: as in DP-Sync, the server holds the ciphertexts and no
coordinator-side party reads them back.  Only a snapshot (the ``snapshot``
command) carries the arenas out, as bytes for the durable store or a
supervisor's generation.

Determinism: the worker executes commands strictly in arrival order against
the very shard object (including its RNG stream state) the in-process
``serial`` executor would have used, so answers, transcripts, leakage and
``QueryResult`` payloads are byte-identical to ``serial`` --
``tests/test_scatter_concurrency.py`` pins this for every checkpoint.

Failure model: a worker that dies (crash, OOM kill) closes its pipe, so the
blocked coordinator call raises :class:`ShardWorkerDied` naming the shard
and the in-flight command -- scatter-gather never hangs on a dead pipe and
never silently merges partial answers.
"""

from __future__ import annotations

import os
import threading
import time as _time
from multiprocessing.connection import Connection

from repro.edb.base import (
    CALL,
    FACT,
    MUTATE,
    SHARD_SURFACE,
    EncryptedDatabase,
    ShardMirror,
    command_args,
    derive_surface,
    surface_names,
)

__all__ = [
    "TransientShardError",
    "ShardWorkerDied",
    "ShardWorkerTimeout",
    "ShardWorkerClient",
    "shard_worker_main",
    "default_shard_timeout",
]

#: Default per-command pipe deadline when ``REPRO_SHARD_TIMEOUT_S`` is unset.
#: Generous -- a healthy worker answers in milliseconds; the deadline exists
#: so a wedged or dead worker turns into a typed error instead of a hang.
DEFAULT_SHARD_TIMEOUT_S: float = 60.0


def default_shard_timeout() -> float:
    """The configured per-command pipe deadline, in seconds.

    Reads ``REPRO_SHARD_TIMEOUT_S`` (the single knob unifying *every* pipe
    wait: command round-trips, shutdown handshakes, process joins); falls
    back to :data:`DEFAULT_SHARD_TIMEOUT_S`.  A non-positive or malformed
    value is a configuration error and raises immediately.
    """
    raw = os.environ.get("REPRO_SHARD_TIMEOUT_S")
    if raw is None or not raw.strip():
        return DEFAULT_SHARD_TIMEOUT_S
    timeout = float(raw)
    if timeout <= 0:
        raise ValueError(f"REPRO_SHARD_TIMEOUT_S must be positive, got {raw!r}")
    return timeout


class TransientShardError(RuntimeError):
    """A shard failure that is, in principle, recoverable by a supervisor.

    The common base of :class:`ShardWorkerDied`, :class:`ShardWorkerTimeout`
    and the chaos layer's injected faults: the shard's in-memory state must
    be treated as lost, but a fresh shard rebuilt from the latest durable
    snapshot plus the coordinator's replay journal can take its place
    (:mod:`repro.fleet.supervisor`).  Anything *not* derived from this class
    (protocol misuse, unsupported queries, integrity errors) propagates
    through the supervisor untouched.
    """

    def __init__(self, shard_index: int, command: str, message: str) -> None:
        self.shard_index = shard_index
        self.command = command
        super().__init__(message)


class ShardWorkerDied(TransientShardError):
    """A shard worker process died while (or before) serving a command.

    Raised by the coordinator-side proxy instead of hanging on the closed
    pipe; carries the shard index, the command that was in flight and the
    worker's exit code (``-signal`` for a kill, ``None`` when the process
    had not yet been reaped) so a failed scatter names its culprit.
    """

    def __init__(
        self, shard_index: int, command: str, exit_code: int | None = None
    ) -> None:
        self.exit_code = exit_code
        exit_note = "" if exit_code is None else f" (exit code {exit_code})"
        super().__init__(
            shard_index,
            command,
            f"shard {shard_index} worker died during {command!r}{exit_note}; "
            "its partial state is lost and the gathered result was discarded",
        )


class ShardWorkerTimeout(TransientShardError):
    """A shard worker missed its per-command reply deadline.

    The worker may be wedged, mid-crash, or a chaos fault swallowed/delayed
    the pipe message; either way its state is unknown, so the coordinator
    treats it exactly like a death: the in-flight call fails loudly and a
    supervisor (if any) discards the worker and rebuilds the shard.
    """

    def __init__(self, shard_index: int, command: str, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        super().__init__(
            shard_index,
            command,
            f"shard {shard_index} worker did not answer {command!r} within "
            f"{timeout_s:g}s; its state is unknown and the call was abandoned",
        )


def shard_worker_main(conn: Connection, shard: EncryptedDatabase, index: int) -> None:
    """Worker process entry point: serve shard commands until shutdown.

    The loop is strictly sequential -- one command, one reply -- so command
    order on the pipe *is* execution order on the shard, which is what makes
    process fan-out observably identical to the serial loop.  Every reply
    carries the worker-side execution seconds so the coordinator can split
    its measured wall clock into shard compute vs boundary overhead.
    """
    # Chaos arming state (repro.testing.chaos): a "chaos_delay" command makes
    # the worker sleep before serving the *next* real command (so the
    # coordinator's reply deadline fires); a "chaos_drop" makes it swallow the
    # next real command entirely -- received, never dispatched, never answered.
    # Both leave the worker desynchronized on purpose: a supervisor treats the
    # resulting timeout like a death and rebuilds the shard from its snapshot.
    pending_delay_s = 0.0
    drop_next_command = False
    try:
        while True:
            try:
                command, args = conn.recv()
            except (EOFError, OSError):
                break
            if command == "chaos_delay":
                (pending_delay_s,) = args
                conn.send(("ok", None, 0.0))
                continue
            if command == "chaos_drop":
                drop_next_command = True
                conn.send(("ok", None, 0.0))
                continue
            if drop_next_command:
                drop_next_command = False
                continue
            if pending_delay_s:
                _time.sleep(pending_delay_s)
                pending_delay_s = 0.0
            if command == "shutdown":
                conn.send(("ok", None, 0.0))
                break
            started = _time.perf_counter()
            try:
                payload = _dispatch(shard, command, args)
                conn.send(("ok", payload, _time.perf_counter() - started))
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                busy = _time.perf_counter() - started
                try:
                    conn.send(("error", exc, busy))
                except Exception:
                    # Unpicklable exception: forward a faithful description.
                    conn.send(
                        ("error", RuntimeError(f"{type(exc).__name__}: {exc}"), busy)
                    )
    finally:
        conn.close()


def _dispatch(shard: EncryptedDatabase, command: str, args: tuple):
    kind = SHARD_SURFACE.get(command)
    if kind in (MUTATE, CALL):
        result = getattr(shard, command)(*args)
        # A re-key's new cipher stays in the worker: no key crosses the pipe.
        return None if command == "rotate_key" else result
    if command == "hello":
        return {name: getattr(shard, name) for name in surface_names(FACT)}
    if command == "snapshot":
        # Serialized worker-side so the bytes carry the authoritative shard
        # state (RNG stream, arenas) -- only the blob crosses the pipe.
        # Imported lazily: the worker loop must not pay for the store
        # module unless durability is in use.
        from repro.edb.store import snapshot_backend

        return snapshot_backend(shard)
    raise ValueError(f"unknown shard-worker command {command!r}")


def _forward(name: str):
    def forward(self, *args, **kwargs):
        return self._call(name, *command_args(name, args, kwargs))

    return forward


def _mirrored(name: str):
    return lambda self: getattr(self._mirror, name)


def _fact(name: str):
    return lambda self: self._facts[name]


@derive_surface(mutate=_forward, call=_forward, mirror=_mirrored, fact=_fact)
class ShardWorkerClient:
    """Coordinator-side proxy for one shard living in a worker process.

    Its :data:`~repro.edb.base.SHARD_SURFACE` members are derived: each
    command is one pipe round trip, each ``MIRROR`` value is read from the
    coordinator-side :class:`~repro.edb.base.ShardMirror`, each fact from the
    reply to the startup ``hello``.

    A round trip is :meth:`send` then :meth:`receive`.  :meth:`send` takes
    the pipe lock and :meth:`receive` releases it, so one command is in
    flight per worker, and a round trip from another thread waits until the
    reply to the one in flight has been read: the pipe never carries two
    replies whose order a reader could confuse.

    Measured-wall-clock bookkeeping: ``busy_seconds`` accumulates the
    worker-reported execution time (true shard compute), and
    ``overhead_seconds`` the remainder of each round trip, from the send to
    the read reply (pickling, transport, scheduling, and in a pipelined
    scatter the time spent reading sibling shards' replies first) -- the
    serialization-overhead counter :class:`~repro.edb.router.WallClockStats`
    surfaces per shard.
    """

    def __init__(
        self,
        shard: EncryptedDatabase,
        index: int,
        context,
        timeout_s: float | None = None,
    ) -> None:
        self.shard_index = index
        self.busy_seconds = 0.0
        self.overhead_seconds = 0.0
        self.commands = 0
        # One deadline governs every pipe wait on this client: command
        # round-trips, the shutdown handshake and process joins.
        self._timeout_s = default_shard_timeout() if timeout_s is None else timeout_s
        self._lock = threading.Lock()
        self._in_flight = ""
        self._sent_at = 0.0
        self._send_error: BaseException | None = None
        #: The process that owns the worker handle and the pipe; a process
        #: forked later inherits a copy of this client it must not close.
        self._pid = os.getpid()
        # Seeded before the fork, from the very object the worker inherits.
        self._mirror = ShardMirror(shard)
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        self._process = context.Process(
            target=shard_worker_main,
            args=(child_conn, shard, index),
            name=f"shard-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._facts = self._call("hello")

    # -- pipe plumbing --------------------------------------------------------

    def send(self, command: str, *args) -> None:
        """Write one command to the worker without waiting for its reply.

        Takes the pipe lock that :meth:`receive` releases.  Never raises: a
        failed write is kept for :meth:`receive`, so every send is answered
        by exactly one receive and the pipe stays in step.
        """
        self._lock.acquire()
        self._in_flight = command
        self._send_error = None
        self._sent_at = _time.perf_counter()
        try:
            self._conn.send((command, args))
        except BaseException as exc:  # noqa: BLE001 - raised by receive()
            self._send_error = exc

    def receive(self):
        """Read the reply to the command :meth:`send` wrote, and fold it into
        the mirror.  The deadline counts from the send."""
        command = self._in_flight
        try:
            try:
                if self._send_error is not None:
                    raise self._send_error
                remaining = self._timeout_s - (_time.perf_counter() - self._sent_at)
                if not self._conn.poll(max(0.0, remaining)):
                    # The worker is wedged (or a chaos fault ate the message).
                    # Its state is unknown; a late reply would desynchronize
                    # the pipe, so the proxy is poisoned until closed/replaced.
                    raise ShardWorkerTimeout(
                        self.shard_index, command, self._timeout_s
                    )
                status, payload, busy = self._conn.recv()
            except (EOFError, OSError):
                raise ShardWorkerDied(
                    self.shard_index, command, exit_code=self._process.exitcode
                ) from None
            wall = _time.perf_counter() - self._sent_at
            self.busy_seconds += busy
            self.overhead_seconds += max(0.0, wall - busy)
            self.commands += 1
            if status == "ok":
                self._mirror.fold(payload)
        finally:
            self._lock.release()
        if status == "error":
            raise payload
        return payload

    def _call(self, command: str, *args):
        self.send(command, *args)
        return self.receive()

    @property
    def process(self):
        """The worker process handle (crash tests kill it through this)."""
        return self._process

    def close(self) -> None:
        """Shut the worker down (idempotent; never hangs on a dead worker).

        A no-op outside the process that started the worker: a forked child
        closing its inherited copy (explicitly or through the router's
        finalizer) would otherwise send ``shutdown`` down the parent's pipe.
        """
        if os.getpid() != self._pid:
            return
        # A command still in flight holds the pipe lock: skip the handshake;
        # closing the pipe ends the worker loop all the same.
        if self._process.is_alive() and self._lock.acquire(blocking=False):
            try:
                self._conn.send(("shutdown", ()))
                if self._conn.poll(self._timeout_s):
                    self._conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
            finally:
                self._lock.release()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._process.join(timeout=self._timeout_s)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=self._timeout_s)

    #: Answered from the cached cost-model fact, without a pipe round-trip.
    supports = EncryptedDatabase.supports

    # -- durability ------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Worker-side :func:`repro.edb.store.snapshot_backend` bytes."""
        return self._call("snapshot")

    # -- chaos hooks (deterministic fault injection) ---------------------------

    def chaos_delay(self, seconds: float) -> None:
        """Arm the worker to sleep ``seconds`` before its next real command."""
        self._call("chaos_delay", seconds)

    def chaos_drop(self) -> None:
        """Arm the worker to swallow its next real command without replying."""
        self._call("chaos_drop")

    def stats(self) -> tuple[float, float, int]:
        """Cumulative (busy_seconds, overhead_seconds, commands) counters."""
        return self.busy_seconds, self.overhead_seconds, self.commands
