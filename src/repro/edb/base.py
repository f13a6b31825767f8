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
* per-table plaintext columns over which the "enclave side" of the query
  protocol is evaluated by the
  :class:`~repro.query.columnar.ColumnarExecutor`, the EDB's one plaintext
  copy of its records;
* cost-model charging for Setup/Update/Query.

An Update is one straight step per table -- seal into the table's arena,
append to its columns, count -- then one cost-model charge and one history
entry for the call.  A step that raises rewinds every table the call has
stepped, so a rejected Update changes nothing.
"""

from __future__ import annotations

import inspect
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.edb.cost_model import CostModel, CostParameters, UnsupportedQueryError
from repro.edb.crypto import ArenaRecord, CiphertextArena, RecordCipher
from repro.edb.leakage import LeakageClass, LeakageProfile
from repro.edb.records import Record
from repro.query.ast import Query
from repro.query.columnar import ColumnarExecutor
from repro.query.executor import Answer

__all__ = [
    "UpdateResult",
    "QueryResult",
    "EncryptedDatabase",
    "UnsupportedQueryError",
    "MUTATE",
    "CALL",
    "MIRROR",
    "FACT",
    "SHARD_SURFACE",
    "ShardMirror",
    "surface_names",
    "command_args",
    "derive_surface",
]

class UpdateResult(NamedTuple):
    """Outcome of a Setup or Update protocol invocation (a named tuple:
    every Update builds one, and a tuple needs no per-field ``__setattr__``;
    the ingest builds it with ``_make``, which skips the Python frame of the
    generated ``__new__``)."""

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
    """

    def __init__(
        self,
        cost_parameters: CostParameters,
        scheme_name: str,
        query_leakage_class: LeakageClass,
        simulate_encryption: bool = False,
    ) -> None:
        self._cost_model = CostModel(cost_parameters)
        self._scheme_name = scheme_name
        self._query_leakage_class = query_leakage_class
        self._simulate_encryption = simulate_encryption
        self._cipher = RecordCipher() if simulate_encryption else None
        self._executor = ColumnarExecutor()
        self._arenas: dict[str, CiphertextArena] = {}
        self._table_totals: dict[str, int] = {}
        self._table_dummies: dict[str, int] = {}
        self._update_history: list[UpdateResult] = []
        self._storage_bytes = 0.0
        self._is_setup = False

    # -- protocol surface ---------------------------------------------------

    def setup(self, records: Iterable[Record], time: int = 0) -> UpdateResult:
        """Run the Setup protocol with the initial record set ``γ_0``."""
        if self._is_setup:
            raise RuntimeError("Setup may only be invoked once")
        result = self._ingest(list(records), time)
        self._is_setup = True
        return result

    def update(self, records: Iterable[Record], time: int) -> UpdateResult:
        """Run the Update protocol, appending ``γ_t`` to the outsourced data."""
        if not self._is_setup:
            raise RuntimeError("Update invoked before Setup")
        return self._ingest(list(records), time)

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
        return self._ingest_grouped(batches, time)

    def query(self, query: Query, time: int = 0) -> QueryResult:
        """Run the Query protocol and return the analyst-visible answer."""
        if not self._is_setup:
            raise RuntimeError("Query invoked before Setup")
        if not self._cost_model.supports(query):
            raise UnsupportedQueryError(
                f"{self._scheme_name} does not support {type(query).__name__}"
            )
        answer, stats = self._executor.execute_with_stats(
            query, rewrite=True, time=time
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
        """End-of-run hook shared with :class:`~repro.edb.router.ShardRouter`
        (whose close stops workers); an in-process EDB holds nothing to free."""

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

    # -- internals -------------------------------------------------------------

    def _ingest(self, records: list[Record], time: int) -> UpdateResult:
        by_table: dict[str, list[Record]] = {}
        for record in records:
            table = record.table or "default"
            by_table.setdefault(table, []).append(record)
        return self._ingest_grouped(by_table, time)

    def _ingest_grouped(
        self, by_table: Mapping[str, Sequence[Record]], time: int
    ) -> UpdateResult:
        # One step a table: seal its rows into its arena (encrypt_many_into
        # validates the whole batch before it writes a row), append them to
        # its columns, count them.  If a step raises, every table stepped so
        # far, the failing one included, is rewound, so a rejected γ_t
        # changes nothing.
        cipher = self._cipher
        totals, table_dummies = self._table_totals, self._table_dummies
        num_records = dummies = 0
        stepped: list[tuple[str, int, int]] = []
        try:
            for table, rows in by_table.items():
                if not rows:  # an empty batch touches no table
                    continue
                size = totals.get(table, 0)
                before = table_dummies.get(table, 0)
                stepped.append((table, size, before))
                if cipher is not None:
                    arena = self._arenas.get(table)
                    if arena is None:
                        arena = self._arenas[table] = CiphertextArena()
                    cipher.encrypt_many_into(rows, arena)
                added = self._executor.append(table, rows)
                totals[table] = size + len(rows)
                table_dummies[table] = before + added
                num_records += len(rows)
                dummies += added
        except BaseException:
            for table, size, before in stepped:
                self._rewind(table, size, before)
            raise

        cost = self._cost_model
        bytes_added = cost.storage_bytes(num_records)
        self._storage_bytes += bytes_added
        duration = cost.ingest_cost(num_records)
        result = UpdateResult._make(
            (time, num_records - dummies, dummies, bytes_added, duration)
        )
        self._update_history.append(result)
        return result

    def _rewind(self, table: str, size: int, dummies: int) -> None:
        """Put ``table`` back to its first ``size`` rows (``dummies`` of them
        dummies): undoes one ingest step, whichever part of it ran."""
        arena = self._arenas.get(table)
        if arena is not None:
            arena.truncate(size)
            if not size:
                del self._arenas[table]
        self._executor.truncate(table, size)
        if size:
            self._table_totals[table] = size
            self._table_dummies[table] = dummies
        else:
            self._table_totals.pop(table, None)
            self._table_dummies.pop(table, None)


# -- the shard-facing protocol surface -----------------------------------------

#: Kinds of :data:`SHARD_SURFACE` entries: a ``MUTATE`` command is journaled
#: for replay, a ``CALL`` mutates nothing, a ``MIRROR`` value is kept on the
#: coordinator (:class:`ShardMirror`) and costs no round trip, a ``FACT`` is
#: cached once per shard.
MUTATE, CALL, MIRROR, FACT = "mutate", "call", "mirror", "fact"

#: The :class:`EncryptedDatabase` surface a shard serves.  The worker serves
#: exactly the commands among these names, and the worker proxy, supervisor
#: wrapper and router derive their members from it (:func:`derive_surface`).
#: ``query`` mutates: an L-DP back-end draws noise per query, which a rebuilt
#: shard must replay.  Every ``MIRROR`` value is a fold of the shard's
#: :class:`UpdateResult` replies, so only protocol calls cross a worker pipe.
SHARD_SURFACE: dict[str, str] = {
    "setup": MUTATE,
    "update": MUTATE,
    "insert_many": MUTATE,
    "query": MUTATE,
    "rotate_key": MUTATE,
    "table_size": CALL,
    "table_dummy_count": CALL,
    "is_setup": MIRROR,
    "update_history": MIRROR,
    "outsourced_count": MIRROR,
    "dummy_count": MIRROR,
    "real_count": MIRROR,
    "storage_bytes": MIRROR,
    "scheme_name": FACT,
    "cost_model": FACT,
    "leakage_profile": FACT,
}


class ShardMirror:
    """A shard's ``MIRROR`` values, kept where its replies arrive.

    Seeded from the shard object before it moves into a worker, then
    advanced by every :class:`UpdateResult` the shard replies with: the same
    additions, in the same order, that the shard makes to its own counters,
    so even the float :attr:`storage_bytes` stays bit-identical.
    """

    def __init__(self, shard: EncryptedDatabase) -> None:
        self.is_setup = shard.is_setup
        self._history = list(shard.update_history)
        self.outsourced_count = shard.outsourced_count
        self.dummy_count = shard.dummy_count
        self.storage_bytes = shard.storage_bytes

    def fold(self, reply) -> None:
        """Advance by one reply; only a Setup/Update result changes anything
        (and only a set-up shard returns one)."""
        if not isinstance(reply, UpdateResult):
            return
        self.is_setup = True
        self._history.append(reply)
        self.outsourced_count += reply.total_added
        self.dummy_count += reply.dummies_added
        self.storage_bytes += reply.bytes_added

    @property
    def update_history(self) -> tuple[UpdateResult, ...]:
        return tuple(self._history)

    @property
    def real_count(self) -> int:
        return self.outsourced_count - self.dummy_count


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
    getter for ``MIRROR`` and ``FACT``).  No other name is added."""

    def decorate(cls: type) -> type:
        for name, kind in SHARD_SURFACE.items():
            if name in cls.__dict__:
                continue
            member = makers[kind](name)
            member.__name__ = name
            member.__doc__ = getattr(EncryptedDatabase, name).__doc__
            setattr(cls, name, property(member) if kind in (MIRROR, FACT) else member)
        return cls

    return decorate
