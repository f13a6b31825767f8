"""The secure-outsourced-growing-database (SOGDB) protocol interface.

Definition 1 of the paper specifies an encrypted database as three protocols
plus a synchronization algorithm::

    (⊥, DS_0, ⊥) <- Setup((λ, D_0), ⊥, ⊥)
    (⊥, DS'_t, ⊥) <- Update(γ, DS_t, ⊥)
    (⊥, ⊥, a_t)  <- Query(⊥, DS_t, q_t)

The ``Sync`` algorithm lives in :mod:`repro.core.strategies`; this module
defines the server-side EDB interface shared by the two simulated back-ends
(:class:`repro.edb.oblidb.ObliDB` and :class:`repro.edb.crypte.CryptEpsilon`).

The base class handles the bookkeeping that is common to every atomic EDB:

* one ciphertext per record (real or dummy), with optional *actual*
  encryption via :class:`repro.edb.crypto.RecordCipher` into one contiguous
  :class:`~repro.edb.crypto.CiphertextArena` per table (disabled by default
  in large simulations because only the count and fixed ciphertext size are
  observable -- tests enable it to check the indistinguishability contract);
* an update-history transcript (time, volume) which is exactly the
  update-pattern leakage DP-Sync reasons about;
* per-table plaintext mirrors over which the "enclave side" of the query
  protocol is evaluated by the vectorized
  :class:`~repro.query.columnar.ColumnarExecutor` (which falls back to the
  row interpreter outside its fragment);
* cost-model charging for Setup/Update/Query.
"""

from __future__ import annotations

import inspect
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.edb.cost_model import CostModel, CostParameters, UnsupportedQueryError
from repro.edb.crypto import ArenaRecord, CiphertextArena, RecordCipher
from repro.edb.leakage import LeakageClass, LeakageProfile
from repro.edb.records import Record, count_dummy
from repro.query.ast import Query
from repro.query.columnar import ColumnarExecutor
from repro.query.executor import Answer, ExecutionStats
from repro.query.views import StaleWindowError, ViewRegistry, can_maintain

__all__ = [
    "UpdateResult",
    "QueryResult",
    "EncryptedDatabase",
    "UnsupportedQueryError",
    "MUTATE",
    "CALL",
    "READ",
    "FACT",
    "SHARD_SURFACE",
    "surface_names",
    "command_args",
    "derive_surface",
]

@dataclass(frozen=True)
class UpdateResult:
    """Outcome of a Setup or Update protocol invocation."""

    time: int
    records_added: int
    dummies_added: int
    bytes_added: float
    duration_seconds: float

    @property
    def total_added(self) -> int:
        """Total ciphertexts added (``|γ_t|`` -- the update volume)."""
        return self.records_added + self.dummies_added


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a Query protocol invocation."""

    query_name: str
    answer: Answer
    qet_seconds: float
    records_scanned: int
    noise_injected: bool = False


class EncryptedDatabase:
    """Base class for simulated encrypted-database back-ends.

    Parameters
    ----------
    cost_parameters:
        Back-end specific cost constants (see :mod:`repro.edb.cost_model`).
    scheme_name:
        Human-readable name used in leakage profiles and reports.
    query_leakage_class:
        The query-side leakage class the back-end belongs to.
    simulate_encryption:
        When true, every record is actually run through
        :class:`RecordCipher`; when false only counts/bytes are tracked,
        which is observationally equivalent for the update pattern and much
        faster for the 43,200-step experiments.
    rng:
        Random generator used by back-ends that inject DP noise.
    """

    def __init__(
        self,
        cost_parameters: CostParameters,
        scheme_name: str,
        query_leakage_class: LeakageClass,
        simulate_encryption: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._cost_model = CostModel(cost_parameters)
        self._scheme_name = scheme_name
        self._query_leakage_class = query_leakage_class
        self._simulate_encryption = simulate_encryption
        self._rng = rng if rng is not None else np.random.default_rng()
        self._cipher = RecordCipher() if simulate_encryption else None
        self._executor = ColumnarExecutor()
        self._arenas: dict[str, CiphertextArena] = {}
        self._arena_factory: Callable[[], CiphertextArena] = CiphertextArena
        self._table_totals: dict[str, int] = {}
        self._table_dummies: dict[str, int] = {}
        self._update_history: list[UpdateResult] = []
        self._storage_bytes = 0.0
        self._is_setup = False
        # Delta-maintained views (derived state: the durable store never
        # persists the maintained counters, only the registered queries).
        self._views = ViewRegistry()
        self._view_answering = True
        # Simulated server-work ledger: what execution actually cost, as
        # opposed to the analyst-visible QET observable (which stays pinned
        # to the rescan cost model so views never change what the analyst
        # sees).  Queries answered from maintained state charge O(1) here;
        # rescans charge the full model cost; ingest deltas charge per-view
        # maintenance.
        self._query_work_seconds = 0.0
        self._view_maintenance_seconds = 0.0
        self._maintained_query_count = 0

    # -- protocol surface ---------------------------------------------------

    def setup(self, records: Iterable[Record], time: int = 0) -> UpdateResult:
        """Run the Setup protocol with the initial record set ``γ_0``."""
        if self._is_setup:
            raise RuntimeError("Setup may only be invoked once")
        self._is_setup = True
        result = self._ingest(list(records), time, is_setup=True)
        return result

    def update(self, records: Iterable[Record], time: int) -> UpdateResult:
        """Run the Update protocol, appending ``γ_t`` to the outsourced data."""
        if not self._is_setup:
            raise RuntimeError("Update invoked before Setup")
        return self._ingest(list(records), time, is_setup=False)

    def insert_many(
        self, batches: Mapping[str, Sequence[Record]], time: int
    ) -> UpdateResult:
        """Batched Update protocol: records pre-grouped by table.

        One invocation ingests the whole batch through a single cost-model
        charge (one update round-trip, one storage charge), exactly like
        :meth:`update`, but skips the per-record regrouping pass -- the owner
        already knows every record of a decision targets its own table.
        """
        if not self._is_setup:
            raise RuntimeError("Update invoked before Setup")
        grouped = {table: list(rows) for table, rows in batches.items() if rows}
        return self._ingest_grouped(grouped, time, is_setup=False)

    def query(
        self, query: Query, time: int = 0, executor: str | None = None
    ) -> QueryResult:
        """Run the Query protocol and return the analyst-visible answer.

        ``executor="maintained"`` forces the answer from a registered view;
        ``None`` answers from maintained view state when a view covers the
        query and view answering is enabled, else rescans the columns.  The
        choice is invisible in the analyst-visible observables (answer, QET,
        noise flag): the QET observable stays pinned to the rescan cost
        model, and only the *simulated work ledger*
        (:attr:`simulated_work_seconds`) records the cheaper maintained
        execution.
        """
        if not self._is_setup:
            raise RuntimeError("Query invoked before Setup")
        if not self._cost_model.supports(query):
            raise UnsupportedQueryError(
                f"{self._scheme_name} does not support {type(query).__name__}"
            )
        if executor == "maintained":
            if not self._views.covers(query):
                raise ValueError(
                    f"query {query.name!r} has no registered view to answer from"
                )
            use_maintained = True
        elif executor is not None:
            raise ValueError(
                f"query executor must be None or 'maintained', got {executor!r}"
            )
        else:
            use_maintained = self._view_answering and self._views.covers(query)
        if use_maintained:
            try:
                answer = self._views.answer(query, time)
            except StaleWindowError:
                # A window ending behind the view's retained horizon cannot
                # be answered from the ring buffer; the rescan path gives
                # the identical exact answer.  A forced "maintained"
                # executor surfaces the error instead of silently rescanning.
                if executor == "maintained":
                    raise
                use_maintained = False
        if use_maintained:
            stats = ExecutionStats()
            self._query_work_seconds += self._cost_model.maintained_query_cost(
                query, answer
            )
            self._maintained_query_count += 1
        else:
            answer, stats = self._executor.execute_with_stats(
                query, rewrite=True, time=time
            )
            self._query_work_seconds += self._cost_model.query_cost(
                query, dict(self._table_totals)
            )
        answer, noise_injected = self._postprocess_answer(query, answer)
        qet = self._cost_model.query_cost(query, dict(self._table_totals))
        return QueryResult(
            query_name=query.name,
            answer=answer,
            qet_seconds=qet,
            records_scanned=stats.rows_scanned,
            noise_injected=noise_injected,
        )

    # -- delta-maintained views ----------------------------------------------

    def register_view(self, query: Query) -> bool:
        """Register a delta-maintained view answering ``query``.

        Bootstraps from the current outsourced tables (so registration is
        valid at any point of the stream, including restore-time rebuilds)
        and maintains an O(|batch|) delta on every later ingest.  Idempotent;
        returns ``False`` when the view already existed.  Raises for query
        shapes outside the maintainable fragment or unsupported by the
        back-end.
        """
        if not self._cost_model.supports(query):
            raise UnsupportedQueryError(
                f"{self._scheme_name} does not support {type(query).__name__}"
            )
        if not can_maintain(query):
            raise TypeError(
                f"query shape {type(query).__name__} is not delta-maintainable"
            )
        return self._views.register(query, self._executor.tables)

    @property
    def registered_views(self) -> tuple[Query, ...]:
        """Queries with a registered maintained view, in registration order."""
        return self._views.registered()

    @property
    def view_answering(self) -> bool:
        """Whether registered views answer queries (else views only maintain)."""
        return self._view_answering

    def set_view_answering(self, enabled: bool) -> None:
        """Toggle answering from maintained views.

        ``False`` forces every query back onto the rescan path while views
        keep maintaining their state -- the differential-testing switch: the
        answers must be byte-identical either way.
        """
        self._view_answering = bool(enabled)

    @property
    def query_work_seconds(self) -> float:
        """Simulated seconds of query execution work actually performed."""
        return self._query_work_seconds

    @property
    def view_maintenance_seconds(self) -> float:
        """Simulated seconds spent applying ingest deltas to views."""
        return self._view_maintenance_seconds

    @property
    def simulated_work_seconds(self) -> float:
        """Total simulated server work: query execution plus view upkeep."""
        return self._query_work_seconds + self._view_maintenance_seconds

    @property
    def maintained_query_count(self) -> int:
        """Number of queries answered from maintained view state."""
        return self._maintained_query_count

    # -- observable state ----------------------------------------------------

    @property
    def scheme_name(self) -> str:
        """Name of the simulated scheme."""
        return self._scheme_name

    @property
    def is_setup(self) -> bool:
        """Whether Setup has run."""
        return self._is_setup

    @property
    def update_history(self) -> tuple[UpdateResult, ...]:
        """Transcript of all Setup/Update invocations (the update pattern)."""
        return tuple(self._update_history)

    @property
    def outsourced_count(self) -> int:
        """Total number of ciphertexts stored (real + dummy)."""
        return sum(self._table_totals.values())

    @property
    def dummy_count(self) -> int:
        """Total number of dummy ciphertexts stored."""
        return sum(self._table_dummies.values())

    @property
    def real_count(self) -> int:
        """Total number of real (non-dummy) ciphertexts stored."""
        return self.outsourced_count - self.dummy_count

    @property
    def storage_bytes(self) -> float:
        """Simulated server-side storage footprint in bytes."""
        return self._storage_bytes

    def table_size(self, table: str) -> int:
        """Ciphertext count (real + dummy) for one table."""
        return self._table_totals.get(table, 0)

    def table_dummy_count(self, table: str) -> int:
        """Dummy ciphertext count for one table."""
        return self._table_dummies.get(table, 0)

    def ciphertexts(self, table: str) -> Sequence[ArenaRecord]:
        """Stored ciphertexts as zero-copy :class:`ArenaRecord` views of the
        table's arena (empty unless encryption is simulated)."""
        arena = self._arenas.get(table)
        return arena.records() if arena is not None else ()

    def ciphertext_arena(self, table: str) -> CiphertextArena | None:
        """The table's backing arena (``None`` until encryption stores a row)."""
        return self._arenas.get(table)

    def set_arena_factory(self, factory: Callable[[], CiphertextArena]) -> None:
        """Choose the arena class backing tables ingested *from now on*.

        Shard worker processes call this at startup with
        :class:`~repro.edb.crypto.SharedCiphertextArena` so their ciphertext
        rows land in named shared memory the coordinator can read zero-copy.
        Arenas that already exist keep their backend; shards are handed to
        workers empty (before Setup), so in practice every arena is created
        through the installed factory.
        """
        self._arena_factory = factory

    def rebuild_arenas(self) -> None:
        """Recreate every table arena through the installed factory.

        Used after restoring a durable snapshot inside a shard worker:
        restored arenas are process-local :class:`CiphertextArena`\\ s, and
        the worker (which has just installed the shared-memory factory)
        rebuilds them so the coordinator can attach by name again.  Rows,
        handles and row indices are copied verbatim, so every outstanding
        handle stays valid.
        """
        for table, arena in list(self._arenas.items()):
            size = len(arena)
            rebuilt = self._arena_factory()
            if size:
                rows = rebuilt.reserve(size)
                rows[:] = arena._data[:size]
                rebuilt.set_handles(0, arena._handles[:size])
            self._arenas[table] = rebuilt
            arena.release()

    def rotate_key(self, new_key: bytes | None = None) -> RecordCipher:
        """Re-encrypt every stored ciphertext in place under a fresh key.

        The key lifecycle operation of the durable store: arena rows are
        re-keyed *in place* (row indices, handles and zero-copy views all
        stay valid), so decrypted payloads are byte-identical before and
        after.  Returns the new cipher (also installed as :attr:`cipher`).
        """
        if self._cipher is None:
            raise RuntimeError(
                "key rotation requires simulate_encryption=True"
            )
        new_cipher = self._cipher.rotated(new_key)
        for arena in self._arenas.values():
            self._cipher.reencrypt_arena(arena, new_cipher)
        self._cipher = new_cipher
        return new_cipher

    def close(self) -> None:
        """Release arena resources (shared-memory segments, if any).

        Idempotent, and a no-op for plain in-process arenas; callers that may
        hold process-backed or shared-arena EDBs should always close.
        """
        for arena in self._arenas.values():
            arena.release()

    @property
    def cipher(self) -> RecordCipher | None:
        """The record cipher (``None`` unless encryption is simulated)."""
        return self._cipher

    @property
    def cost_model(self) -> CostModel:
        """The back-end's cost model."""
        return self._cost_model

    @property
    def leakage_profile(self) -> LeakageProfile:
        """What this back-end leaks; update leakage is the update pattern only."""
        return LeakageProfile(
            scheme=self._scheme_name,
            query_class=self._query_leakage_class,
            update_leaks_only_pattern=True,
            reveals_exact_volume=self._query_leakage_class
            in (LeakageClass.L1, LeakageClass.L2),
            reveals_access_pattern=self._query_leakage_class is LeakageClass.L2,
        )

    def supports(self, query: Query) -> bool:
        """Whether the back-end can run ``query`` (its cost model's rule)."""
        return self.cost_model.supports(query)

    # -- hooks for subclasses -------------------------------------------------

    def _postprocess_answer(self, query: Query, answer: Answer) -> tuple[Answer, bool]:
        """Back-end specific answer transformation (e.g. DP noise).

        Returns the (possibly modified) answer and whether noise was injected.
        """
        return answer, False

    def _on_records_stored(self, table: str, records: Sequence[Record]) -> None:
        """Hook invoked after records are added to ``table`` (e.g. ORAM insert)."""

    # -- internals -------------------------------------------------------------

    def _ingest(self, records: list[Record], time: int, is_setup: bool) -> UpdateResult:
        by_table: dict[str, list[Record]] = {}
        for record in records:
            table = record.table or "default"
            by_table.setdefault(table, []).append(record)
        return self._ingest_grouped(by_table, time, is_setup)

    def _ingest_grouped(
        self, by_table: dict[str, list[Record]], time: int, is_setup: bool
    ) -> UpdateResult:
        num_records = 0
        dummies = 0
        for table, rows in by_table.items():
            self._executor.append(table, rows)
            table_dummies = count_dummy(rows)
            num_records += len(rows)
            dummies += table_dummies
            self._table_totals[table] = self._table_totals.get(table, 0) + len(rows)
            self._table_dummies[table] = self._table_dummies.get(table, 0) + table_dummies
            if self._cipher is not None:
                arena = self._arenas.get(table)
                if arena is None:
                    arena = self._arenas[table] = self._arena_factory()
                self._cipher.encrypt_many_into(rows, arena)
            self._on_records_stored(table, rows)
            if self._views:
                # Views observe exactly the post-flush server-side batch (the
                # dummy-padded γ_t, never the owner's raw stream); dummy rows
                # are skipped inside the states, matching the dummy-rewritten
                # scans the rescan path runs.
                observers = self._views.apply_delta(table, rows)
                if observers:
                    self._view_maintenance_seconds += (
                        self._cost_model.view_maintenance_cost(len(rows), observers)
                    )

        bytes_added = self._cost_model.storage_bytes(num_records)
        self._storage_bytes += bytes_added
        duration = self._cost_model.ingest_cost(num_records, is_setup=is_setup)
        result = UpdateResult(
            time=time,
            records_added=num_records - dummies,
            dummies_added=dummies,
            bytes_added=bytes_added,
            duration_seconds=duration,
        )
        self._update_history.append(result)
        return result


# -- the shard-facing protocol surface -----------------------------------------

#: Kinds of :data:`SHARD_SURFACE` entries: a ``MUTATE`` command is journaled
#: for replay, a ``CALL`` mutates nothing, a ``READ`` is fetched on every
#: access, a ``FACT`` is cached once per shard.
MUTATE, CALL, READ, FACT = "mutate", "call", "read", "fact"

#: The :class:`EncryptedDatabase` surface a shard serves.  The worker serves
#: exactly these names, and the worker proxy, supervisor wrapper and router
#: derive their members from it (:func:`derive_surface`).  ``query`` mutates:
#: an L-DP back-end draws noise per query, which a rebuilt shard must replay.
SHARD_SURFACE: dict[str, str] = {
    "setup": MUTATE,
    "update": MUTATE,
    "insert_many": MUTATE,
    "query": MUTATE,
    "register_view": MUTATE,
    "set_view_answering": MUTATE,
    "rotate_key": MUTATE,
    "table_size": CALL,
    "table_dummy_count": CALL,
    "is_setup": READ,
    "update_history": READ,
    "outsourced_count": READ,
    "dummy_count": READ,
    "real_count": READ,
    "storage_bytes": READ,
    "registered_views": READ,
    "view_answering": READ,
    "query_work_seconds": READ,
    "view_maintenance_seconds": READ,
    "simulated_work_seconds": READ,
    "maintained_query_count": READ,
    "scheme_name": FACT,
    "cost_model": FACT,
    "leakage_profile": FACT,
}


def surface_names(kind: str) -> tuple[str, ...]:
    """The :data:`SHARD_SURFACE` entries of one kind, in table order."""
    return tuple(name for name, entry in SHARD_SURFACE.items() if entry == kind)


def _signature(name: str) -> inspect.Signature:
    return inspect.signature(getattr(EncryptedDatabase, name))


_PARAMETERS = {
    name: tuple(_signature(name).parameters.values())[1:]
    for name in surface_names(MUTATE) + surface_names(CALL)
}


def _detach(value):
    if isinstance(value, abc.Mapping):
        return dict(value)
    if isinstance(value, (list, abc.Iterator)):
        return list(value)
    return value


def command_args(name: str, args: tuple, kwargs: Mapping) -> tuple:
    """A ``MUTATE``/``CALL`` command's arguments, positional with defaults
    filled in and containers copied (iterators drained): the one form the
    pipe pickles and the replay journal keeps, out of the caller's reach."""
    parameters = _PARAMETERS[name]
    if kwargs or len(args) != len(parameters):
        rest = parameters[len(args) :]
        tail = tuple(kwargs.get(p.name, p.default) for p in rest)
        if (
            len(args) < len(parameters)
            and len(kwargs) == sum(p.name in kwargs for p in rest)
            and not any(value is inspect.Parameter.empty for value in tail)
        ):
            args += tail
        else:  # not a valid call: the signature raises the precise TypeError
            _signature(name).bind(None, *args, **kwargs)
    return tuple(_detach(value) for value in args)


def derive_surface(**makers: Callable[[str], Callable]) -> Callable[[type], type]:
    """Class decorator adding one member per :data:`SHARD_SURFACE` entry the
    class body does not define, built by ``makers[kind](name)`` (a property
    getter for ``READ`` and ``FACT``).  No other name is added."""

    def decorate(cls: type) -> type:
        for name, kind in SHARD_SURFACE.items():
            if name in cls.__dict__:
                continue
            member = makers[kind](name)
            member.__name__ = name
            member.__doc__ = getattr(EncryptedDatabase, name).__doc__
            setattr(cls, name, property(member) if kind in (READ, FACT) else member)
        return cls

    return decorate
