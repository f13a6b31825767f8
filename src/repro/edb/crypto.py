"""Record-level AES-256-GCM encryption with an arena-backed storage layout.

The paper assumes an *atomic* encrypted database: every record (real or dummy)
is encrypted independently into a fixed-size ciphertext under a semantically
secure scheme, so the server cannot tell real records from dummies.  This
module implements exactly that contract:

* :class:`RecordCipher` serializes a record canonically, pads it to a fixed
  256-byte block and seals the block with AES-256-GCM (``cryptography``'s
  ``AESGCM``) under a fresh random 96-bit nonce.  Each ciphertext is
  ``nonce || body || tag``; the tag authenticates the nonce-bound body, so
  tampering and wrong keys raise ``ValueError`` on decryption.
* Every ciphertext has the same length regardless of the plaintext content or
  the ``is_dummy`` flag, which is what makes the update volume ``|γ_t|`` the
  *only* information the server learns from an update.

Random nonces keep a key safe for about 2^32 records (NIST SP 800-38D);
:meth:`repro.edb.base.EncryptedDatabase.rotate_key` re-keys long before a
reproduction run gets near that.

Server-side, every ciphertext of a table lives in one contiguous
capacity-doubling ``(n, CIPHERTEXT_SIZE)`` ``uint8`` ndarray
(:class:`CiphertextArena`).  :meth:`RecordCipher.encrypt_many_into` seals a
batch and copies it into reserved arena rows at once; the arena's row shape
*is* the length validation.  :class:`ArenaRecord` is a zero-copy view
(handle -> arena row) exposing the same ``ciphertext``/``handle``/
``size_bytes`` surface as the owning :class:`EncryptedRecord` that
:meth:`RecordCipher.encrypt` / :meth:`RecordCipher.encrypt_many` return.

Both forms come from one AEAD call per record and are decrypted by the same
:meth:`RecordCipher.decrypt`.  The key handling around the AEAD is a
reproduction study's and has not been audited for production use.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import uuid
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.edb.records import Record
from repro.util.mp import attach_shared_memory

__all__ = [
    "EncryptedRecord",
    "ArenaRecord",
    "ArenaSegmentHandle",
    "AttachedArenaView",
    "ArenaSegmentCache",
    "CiphertextArena",
    "SharedCiphertextArena",
    "RecordCipher",
    "CIPHERTEXT_SIZE",
]

#: Fixed plaintext-block size (bytes) every record is padded to before
#: encryption.  Large enough for the paper's taxi schema with slack; the
#: cipher raises if a record does not fit rather than silently leaking length.
PLAINTEXT_BLOCK_SIZE: int = 256

#: AES-GCM nonce length in bytes prepended to every ciphertext.
NONCE_SIZE: int = 12

#: AES-GCM authentication tag length in bytes appended to every ciphertext.
TAG_SIZE: int = 16

#: Total ciphertext size: nonce + padded body + authentication tag.
CIPHERTEXT_SIZE: int = NONCE_SIZE + PLAINTEXT_BLOCK_SIZE + TAG_SIZE

#: CPython's C-accelerated JSON string escaper (the exact function
#: ``json.dumps`` uses with the default ``ensure_ascii=True``).
_escape_json_string = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class EncryptedRecord:
    """One owning encrypted record (what :meth:`RecordCipher.encrypt` returns).

    The server-visible surface is only ``ciphertext`` (fixed size) and the
    opaque ``handle`` used to address the record inside the outsourced
    structure.  Nothing about the plaintext, including whether it is a dummy,
    is derivable from these fields without the key.
    """

    ciphertext: bytes
    handle: int

    def __post_init__(self) -> None:
        if len(self.ciphertext) != CIPHERTEXT_SIZE:
            raise ValueError(
                f"ciphertext must be exactly {CIPHERTEXT_SIZE} bytes, "
                f"got {len(self.ciphertext)}"
            )

    @property
    def size_bytes(self) -> int:
        """Server-side storage footprint of this record."""
        return len(self.ciphertext)


class ArenaRecord:
    """Zero-copy view of one ciphertext stored in a :class:`CiphertextArena`.

    Exposes the same surface as :class:`EncryptedRecord` (``ciphertext``,
    ``handle``, ``size_bytes``) but owns no bytes: ``ciphertext`` is a
    read-only memoryview into the arena row looked up *at access time*, so a
    view stays valid -- and reflects the same immutable contents -- across
    arena growth and compaction (which reallocate the backing array).
    """

    __slots__ = ("_arena", "_index")

    def __init__(self, arena: "CiphertextArena", index: int) -> None:
        self._arena = arena
        self._index = index

    @property
    def handle(self) -> int:
        """The cipher-assigned handle of this record."""
        return self._arena.handle_at(self._index)

    @property
    def ciphertext(self) -> memoryview:
        """Read-only zero-copy view of the fixed-size ciphertext row."""
        return self._arena.row(self._index)

    @property
    def size_bytes(self) -> int:
        """Server-side storage footprint of this record."""
        return CIPHERTEXT_SIZE

    def to_encrypted_record(self) -> EncryptedRecord:
        """Materialize an owning :class:`EncryptedRecord` copy (tests only)."""
        return EncryptedRecord(ciphertext=bytes(self.ciphertext), handle=self.handle)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ArenaRecord, EncryptedRecord)):
            return self.handle == other.handle and bytes(self.ciphertext) == bytes(
                other.ciphertext
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Same (ciphertext, handle) tuple a frozen EncryptedRecord hashes, so
        # equal records hash equal across the two layouts.
        return hash((bytes(self.ciphertext), self.handle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaRecord(handle={self.handle}, index={self._index})"


class CiphertextArena:
    """All ciphertexts of one table in a single contiguous ``uint8`` ndarray.

    Rows are appended through :meth:`reserve` (amortized O(1): capacity
    doubles when exhausted) and never mutated afterwards; handles are recorded
    in a parallel ``int64`` array.  Growth and :meth:`compact` reallocate the
    backing buffers but copy contents verbatim, so handles and decrypted
    records are invariant under both -- a property the Hypothesis suite pins.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        data, handles = self._allocate(initial_capacity)
        self._adopt(data, handles)
        self._size = 0
        self._grow_count = 0

    # -- storage backend (overridden by the shared-memory arena) --------------

    def _allocate(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        """Allocate backing buffers for ``capacity`` rows (plus handles)."""
        return (
            np.empty((capacity, CIPHERTEXT_SIZE), dtype=np.uint8),
            np.empty(capacity, dtype=np.int64),
        )

    def _adopt(self, data: np.ndarray, handles: np.ndarray) -> None:
        """Swap in freshly allocated (and already filled) backing buffers."""
        self._data = data
        self._handles = handles

    def release(self) -> None:
        """Release any owned backing resources (no-op for process-local heap
        arenas; the shared-memory arena unlinks its segment here)."""

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Row capacity of the current backing buffer."""
        return int(self._data.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the ciphertext buffer (capacity, not just size)."""
        return int(self._data.nbytes)

    @property
    def grow_count(self) -> int:
        """How many times the backing buffer was reallocated by growth."""
        return self._grow_count

    def reserve(self, count: int) -> np.ndarray:
        """Append ``count`` uninitialized rows; return them as a 2-D view.

        The caller must fill the rows (and their handles via
        :meth:`set_handles`) before anything reads them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        needed = self._size + count
        if needed > self.capacity:
            new_capacity = self.capacity
            while new_capacity < needed:
                new_capacity *= 2
            data, handles = self._allocate(new_capacity)
            data[: self._size] = self._data[: self._size]
            handles[: self._size] = self._handles[: self._size]
            self._adopt(data, handles)
            self._grow_count += 1
        start = self._size
        self._size = needed
        return self._data[start:needed]

    def set_handles(self, start: int, handles: Sequence[int]) -> None:
        """Record the cipher handles for rows ``start .. start+len(handles)``."""
        self._handles[start : start + len(handles)] = handles

    def compact(self) -> None:
        """Shrink the backing buffers to exactly the used size.

        Contents, row order and handles are preserved verbatim; only the
        over-allocated growth headroom is released.
        """
        if self._size == self.capacity:
            return
        size = max(self._size, 1)
        # A fresh allocation (not a view) so the old full-capacity buffer
        # really is released once nothing else references it.
        data, handles = self._allocate(size)
        data[:] = self._data[:size]
        handles[:] = self._handles[:size]
        self._adopt(data, handles)

    def row(self, index: int) -> memoryview:
        """Read-only zero-copy view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return self._data[index].data.toreadonly()

    def handle_at(self, index: int) -> int:
        """Cipher handle of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return int(self._handles[index])

    def record(self, index: int) -> ArenaRecord:
        """The zero-copy :class:`ArenaRecord` view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaRecord(self, index)

    def records(self) -> tuple[ArenaRecord, ...]:
        """Views of every stored ciphertext, in insertion order."""
        return tuple(ArenaRecord(self, index) for index in range(self._size))

    def as_array(self) -> np.ndarray:
        """The used portion of the ciphertext buffer (a read-only view)."""
        view = self._data[: self._size]
        view.flags.writeable = False
        return view


#: Per-row byte stride of a shared arena segment: one fixed-size ciphertext
#: plus its ``int64`` handle (handles live in the same segment, after the
#: ciphertext block, so one attach resolves both).
_SEGMENT_ROW_STRIDE: int = CIPHERTEXT_SIZE + 8

_arena_sequence = itertools.count()


def _new_arena_id() -> str:
    """A process-unique shared-arena id (also the /dev/shm name prefix)."""
    return f"repro-arena-{os.getpid()}-{next(_arena_sequence)}-{uuid.uuid4().hex[:8]}"


def _segment_views(
    buffer: memoryview, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, handles) ndarray views over one segment buffer."""
    data = np.ndarray(
        (capacity, CIPHERTEXT_SIZE), dtype=np.uint8, buffer=buffer
    )
    handles = np.ndarray(
        capacity,
        dtype=np.int64,
        buffer=buffer,
        offset=capacity * CIPHERTEXT_SIZE,
    )
    return data, handles


def _plain_arena_from_rows(
    row_bytes: bytes, handle_bytes: bytes, size: int
) -> "CiphertextArena":
    """Rebuild a process-local arena from serialized rows (pickle support)."""
    arena = CiphertextArena(initial_capacity=max(size, 1))
    if size:
        rows = arena.reserve(size)
        rows[:] = np.frombuffer(row_bytes, dtype=np.uint8).reshape(
            size, CIPHERTEXT_SIZE
        )
        arena._handles[:size] = np.frombuffer(handle_bytes, dtype=np.int64)
    return arena


def _reap_shared_segments(segments: dict) -> None:
    """Unlink/close every segment a shared arena still owns.

    Module-level (no reference back to the arena) so it can serve as a
    ``weakref.finalize`` callback: it runs deterministically when the arena
    is garbage collected *or* at interpreter exit -- whichever comes first --
    instead of depending on ``__del__`` timing.  Unlinking is the part that
    prevents ``/dev/shm`` leaks; a mapping pinned by a live numpy view is
    released with the process.
    """
    for slot in ("current", "pending"):
        segment = segments.get(slot)
        if segment is None:
            continue
        segments[slot] = None
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view still pins the map
            pass
    for segment in segments.get("retired", ()):
        try:
            segment.close()
        except BufferError:  # pragma: no cover - still pinned
            pass
    segments["retired"] = []


def _close_attached_segment(segment: shared_memory.SharedMemory) -> None:
    """Detach one attached segment (``weakref.finalize`` callback)."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a row view is still alive
        pass


@dataclass(frozen=True)
class ArenaSegmentHandle:
    """Cross-process address of one ciphertext row: ``(segment_name, row)``.

    Handles are minted by a :class:`SharedCiphertextArena` (typically inside
    a shard worker process) and resolved by an :class:`ArenaSegmentCache` in
    another process.  ``segment_name`` is the arena's segment at mint time;
    growth and compaction copy rows verbatim at unchanged indices into a
    fresh segment, so a stale handle still resolves correctly against the
    arena's *current* segment once the swap has been published.
    """

    segment_name: str
    row: int

    @property
    def arena_id(self) -> str:
        """The owning arena's stable id (segment names are ``id.g<n>``)."""
        return self.segment_name.rsplit(".g", 1)[0]


class SharedCiphertextArena(CiphertextArena):
    """A :class:`CiphertextArena` whose rows live in named shared memory.

    Same contract and row layout as the in-process arena (the Hypothesis
    suite pins byte-identity), but the backing buffer is a
    ``multiprocessing.shared_memory`` segment named ``<arena_id>.g<n>``, so
    another process can attach it by name and read ciphertext rows (and
    their handles) zero-copy.  Growth doubles into a *fresh* named segment
    (generation ``n+1``), copies rows verbatim and unlinks the old segment;
    readers learn of the swap through :meth:`export_state` -- and because
    rows are immutable once written, a reader still holding the old mapping
    sees correct bytes for every row that existed before the swap.

    The creating process owns the segment: call :meth:`release` to unlink it
    when the arena is dropped (shard workers do this on shutdown).  As a
    backstop, a ``weakref.finalize`` reaper unlinks the segments when the
    arena is garbage collected or the interpreter exits -- unlike ``__del__``
    this is deterministic at shutdown, so an unclosed arena can no longer
    leak ``/dev/shm`` segments past process exit.

    Pickling serializes the *contents* and reconstructs a process-local
    :class:`CiphertextArena` (rows, handles and indices preserved verbatim):
    a shared-memory mapping is only meaningful inside its creating host, so
    snapshots and cross-process payloads always carry plain arenas.
    """

    def __init__(self, initial_capacity: int = 64, name: str | None = None) -> None:
        self._arena_id = name if name is not None else _new_arena_id()
        self._generation = 0
        #: Mutable box owning the shm segments; shared with the finalizer so
        #: the reaper never needs a reference back to ``self``.
        self._segments: dict = {"current": None, "pending": None, "retired": []}
        self._finalizer = weakref.finalize(
            self, _reap_shared_segments, self._segments
        )
        super().__init__(initial_capacity)

    # -- storage backend ------------------------------------------------------

    def _allocate(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        segment = shared_memory.SharedMemory(
            name=f"{self._arena_id}.g{self._generation + 1}",
            create=True,
            size=capacity * _SEGMENT_ROW_STRIDE,
        )
        self._generation += 1
        self._segments["pending"] = segment
        return _segment_views(segment.buf, capacity)

    def _adopt(self, data: np.ndarray, handles: np.ndarray) -> None:
        old = self._segments["current"]
        self._segments["current"] = self._segments["pending"]
        self._segments["pending"] = None
        super()._adopt(data, handles)
        if old is not None:
            self._retire(old)

    def _retire(self, segment: shared_memory.SharedMemory) -> None:
        """Unlink a superseded segment; close it when no views pin it."""
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.close()
        except BufferError:
            # A numpy view over the old buffer is still alive somewhere;
            # the mapping is released with the process (the name is gone
            # already, so nothing leaks past process exit).
            self._segments["retired"].append(segment)

    def release(self) -> None:
        """Unlink the current segment (idempotent; creator-side cleanup)."""
        self._data = np.empty((0, CIPHERTEXT_SIZE), dtype=np.uint8)
        self._handles = np.empty(0, dtype=np.int64)
        # The finalizer doubles as the release implementation: it is
        # idempotent (finalize callbacks run at most once) and detaching it
        # here means a released arena costs nothing at GC/exit time.
        self._finalizer()

    def __reduce__(self):
        return (
            _plain_arena_from_rows,
            (
                self._data[: self._size].tobytes(),
                self._handles[: self._size].tobytes(),
                self._size,
            ),
        )

    # -- publication ----------------------------------------------------------

    @property
    def arena_id(self) -> str:
        """Stable id of this arena across growth/compaction swaps."""
        return self._arena_id

    @property
    def generation(self) -> int:
        """How many segments this arena has allocated so far."""
        return self._generation

    @property
    def segment_name(self) -> str:
        """Name of the current backing segment (``<arena_id>.g<n>``)."""
        segment = self._segments["current"]
        if segment is None:
            raise RuntimeError("arena released")
        return segment.name

    def handle_for(self, index: int) -> ArenaSegmentHandle:
        """The cross-process handle of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaSegmentHandle(segment_name=self.segment_name, row=index)

    def export_state(self) -> dict:
        """The published view of this arena: current segment name and size.

        This is the "swap publication" message workers send the coordinator
        after every ingest: feeding it to
        :meth:`ArenaSegmentCache.publish` lets stale handles resolve against
        the current segment.
        """
        return {
            "arena_id": self._arena_id,
            "segment_name": self.segment_name,
            "size": self._size,
            "generation": self._generation,
        }


class AttachedArenaView:
    """Read-only attachment to one published shared-arena segment.

    Exposes the same ``row``/``handle_at``/``record`` surface as the arena
    itself, so :class:`ArenaRecord` views work identically whether they are
    backed by the local arena or by an attachment in another process --
    nothing downstream of the attach can tell the difference (and no bytes
    are copied either way).
    """

    def __init__(self, segment_name: str, size: int) -> None:
        # Arena ids embed the creating pid: an attach within the creator's
        # own process (tests, single-process fleets) must leave the creator's
        # resource-tracker registration alone.
        created_here = segment_name.startswith(f"repro-arena-{os.getpid()}-")
        self._segment = attach_shared_memory(segment_name, untrack=not created_here)
        self._name = segment_name
        self._finalizer = weakref.finalize(
            self, _close_attached_segment, self._segment
        )
        capacity = len(self._segment.buf) // _SEGMENT_ROW_STRIDE
        if size > capacity:
            self._finalizer()
            raise ValueError(
                f"published size {size} exceeds segment capacity {capacity}"
            )
        self._data, self._handles = _segment_views(self._segment.buf, capacity)
        self._size = size

    def __len__(self) -> int:
        return self._size

    @property
    def segment_name(self) -> str:
        """Name of the attached segment."""
        return self._name

    def row(self, index: int) -> memoryview:
        """Read-only zero-copy view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return self._data[index].data.toreadonly()

    def handle_at(self, index: int) -> int:
        """Cipher handle of row ``index`` (read from the shared segment)."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return int(self._handles[index])

    def record(self, index: int) -> ArenaRecord:
        """Zero-copy :class:`ArenaRecord` over the attached row."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaRecord(self, index)

    def records(self) -> tuple[ArenaRecord, ...]:
        """Views of every published ciphertext, in insertion order."""
        return tuple(ArenaRecord(self, index) for index in range(self._size))

    def close(self) -> None:
        """Detach from the segment (never unlinks -- the creator owns it)."""
        self._data = np.empty((0, CIPHERTEXT_SIZE), dtype=np.uint8)
        self._handles = np.empty(0, dtype=np.int64)
        self._size = 0
        self._finalizer()


class ArenaSegmentCache:
    """Coordinator-side resolver for :class:`ArenaSegmentHandle`\\ s.

    Tracks, per arena id, the arena's *current* published segment (fed by
    :meth:`publish` from worker ``export_state`` messages) and keeps one
    attachment per segment.  Handles minted before a growth swap resolve
    against the current segment -- row indices are invariant under growth
    and compaction, which the shared-arena Hypothesis suite pins.
    """

    def __init__(self) -> None:
        self._views: dict[str, AttachedArenaView] = {}
        self._current: dict[str, dict] = {}

    def publish(self, state: Mapping) -> AttachedArenaView:
        """Record an arena's published state; return the current attachment.

        Publishes are generation-ordered: a state older than the one already
        known for the arena (a delayed/re-delivered message from before a
        growth swap) is ignored rather than re-attached -- its segment name
        is already unlinked, and rolling ``_current`` back would strand every
        handle minted since the swap.
        """
        arena_id = state["arena_id"]
        segment_name = state["segment_name"]
        known = self._current.get(arena_id)
        if known is not None:
            if state["generation"] < known["generation"]:
                return self.publish(known)
            if known["segment_name"] != segment_name:
                # The arena grew or compacted into a fresh segment: drop the
                # superseded attachment (its name may already be unlinked).
                stale = self._views.pop(known["segment_name"], None)
                if stale is not None:
                    stale.close()
        self._current[arena_id] = dict(state)
        view = self._views.get(segment_name)
        if view is None or len(view) < state["size"]:
            if view is not None:
                view.close()
            view = AttachedArenaView(segment_name, state["size"])
            self._views[segment_name] = view
        return view

    def resolve(self, handle: ArenaSegmentHandle) -> ArenaRecord:
        """Resolve a handle to a zero-copy record view.

        The handle's own segment name is only a hint: resolution goes
        through the arena's current published segment, so handles minted
        before a growth/compaction swap stay valid.
        """
        state = self._current.get(handle.arena_id)
        if state is None:
            raise KeyError(
                f"no published state for arena {handle.arena_id!r}; "
                "feed export_state() to publish() first"
            )
        view = self.publish(state)
        return view.record(handle.row)

    def close(self) -> None:
        """Detach every cached attachment (idempotent)."""
        for view in self._views.values():
            view.close()
        self._views = {}
        self._current = {}


@dataclass
class RecordCipher:
    """Keyed AES-256-GCM cipher that encrypts records into fixed-size
    ciphertexts.

    Parameters
    ----------
    key:
        32-byte secret key.  Generated randomly when omitted.
    """

    key: bytes = field(default_factory=lambda: os.urandom(32))
    _next_handle: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != 32:
            raise ValueError("key must be exactly 32 bytes")
        self._aead = AESGCM(self.key)

    def __getstate__(self) -> dict:
        # The AESGCM context cannot be pickled; it is rebuilt from the key.
        return {"key": self.key, "_next_handle": self._next_handle}

    def __setstate__(self, state: dict) -> None:
        self.key = state["key"]
        self._next_handle = state["_next_handle"]
        self.__post_init__()

    def rotated(self, new_key: bytes | None = None) -> "RecordCipher":
        """A cipher under a fresh key that continues this handle sequence.

        Handles are opaque server-side identifiers, not key material: a
        rotation must keep minting from where the old cipher stopped so
        existing :class:`ArenaRecord` handles stay unique alongside
        post-rotation ones.
        """
        cipher = RecordCipher(
            key=new_key if new_key is not None else os.urandom(32)
        )
        cipher._next_handle = self._next_handle
        return cipher

    def _mint_handles(self, n: int) -> list[int]:
        start = self._next_handle
        self._next_handle += n
        return list(range(start, start + n))

    def _seal(self, blocks: Sequence[bytes]) -> bytes:
        """``nonce || body || tag`` for every padded block, joined.

        One ``os.urandom`` call draws the nonces of the whole batch.
        """
        nonces = os.urandom(NONCE_SIZE * len(blocks))
        encrypt = self._aead.encrypt
        parts: list[bytes] = []
        for index, block in enumerate(blocks):
            nonce = nonces[index * NONCE_SIZE : (index + 1) * NONCE_SIZE]
            parts += (nonce, encrypt(nonce, block, None))
        return b"".join(parts)

    def _open(self, ciphertext) -> bytes:
        """Verify one ciphertext and return its padded plaintext block."""
        if len(ciphertext) != CIPHERTEXT_SIZE:
            raise ValueError(
                f"ciphertext must be exactly {CIPHERTEXT_SIZE} bytes, "
                f"got {len(ciphertext)}"
            )
        try:
            return self._aead.decrypt(
                ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:], None
            )
        except InvalidTag:
            raise ValueError("ciphertext failed authentication") from None

    def encrypt(self, record: Record) -> EncryptedRecord:
        """Encrypt ``record`` into a fixed-size :class:`EncryptedRecord`."""
        ciphertext = self._seal([self._serialize(record)])
        return EncryptedRecord(ciphertext=ciphertext, handle=self._mint_handles(1)[0])

    def encrypt_many(self, records: Iterable[Record]) -> list[EncryptedRecord]:
        """Encrypt a batch of records into owning :class:`EncryptedRecord`\\ s.

        Every record still gets its own fresh nonce and fixed-size
        ciphertext, so a batch leaks exactly what the same records leaked
        when encrypted one at a time: the count.  The EDB stores batches
        with :meth:`encrypt_many_into` instead.
        """
        return [self.encrypt(record) for record in records]

    def encrypt_many_into(
        self, records: Sequence[Record], arena: CiphertextArena
    ) -> list[int]:
        """Encrypt a batch straight into reserved arena rows; return handles.

        Every record is serialized before any row is reserved, so an
        oversized record leaves the arena untouched.  The joined ciphertexts
        land in the reserved rows with one buffer copy, which also checks
        the fixed ciphertext size for the whole batch at once.
        """
        n = len(records)
        if n == 0:
            return []
        sealed = self._seal([self._serialize(record) for record in records])
        memoryview(arena.reserve(n)).cast("B")[:] = sealed
        handles = self._mint_handles(n)
        arena.set_handles(len(arena) - n, handles)
        return handles

    def decrypt(self, encrypted: "EncryptedRecord | ArenaRecord") -> Record:
        """Decrypt an encrypted record (either storage layout) back to a
        :class:`Record`.

        Raises ``ValueError`` if the authentication tag does not verify.
        """
        return self._deserialize(self._open(encrypted.ciphertext))

    def decrypt_many(
        self, encrypted: Iterable["EncryptedRecord | ArenaRecord"]
    ) -> list[Record]:
        """Decrypt a batch; a single bad row fails the whole call loudly."""
        return [self.decrypt(record) for record in encrypted]

    def reencrypt_arena(
        self, arena: "CiphertextArena", new_cipher: "RecordCipher"
    ) -> int:
        """Re-encrypt every arena row *in place* under ``new_cipher``'s key.

        Rotation works at the padded-plaintext-block level: every row is
        verified and opened under this (old) key before any row is written,
        and that exact block is sealed under ``new_cipher`` with a fresh
        nonce -- no serialize round trip, so decrypted payloads are
        byte-identical before and after.  Rows, handles and row indices are
        untouched, which keeps every outstanding :class:`ArenaRecord` /
        :class:`ArenaSegmentHandle` valid.  Returns the number of rows
        re-encrypted.
        """
        n = len(arena)
        if n == 0:
            return 0
        rows = arena._data[:n]
        data = rows.tobytes()
        blocks = [
            self._open(data[index * CIPHERTEXT_SIZE : (index + 1) * CIPHERTEXT_SIZE])
            for index in range(n)
        ]
        memoryview(rows).cast("B")[:] = new_cipher._seal(blocks)
        return n

    @staticmethod
    def _record_json(record: Record) -> str | None:
        """Hand-rolled canonical JSON for the common scalar-valued record.

        Byte-for-byte equal to ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` for records whose field values are plain
        ``str`` / exact ``int`` / finite exact ``float`` / ``bool`` / ``None``
        (every workload in the repository) -- the property test in
        ``tests/test_edb_crypto.py`` pins the equality.  Returns ``None`` for
        anything else (numpy scalars, containers, non-string keys, NaN/inf),
        sending the record down the stock ``json.dumps`` path.
        """
        if type(record.arrival_time) is not int or type(record.table) is not str:
            return None
        parts = []
        for key in sorted(record.values):
            if type(key) is not str:
                return None
            value = record.values[key]
            if value is True:
                scalar = "true"
            elif value is False:
                scalar = "false"
            elif type(value) is int:
                scalar = repr(value)
            elif type(value) is float:
                # json.dumps renders finite floats with float.__repr__ and
                # non-finite ones as NaN/Infinity; only the former is common.
                if value != value or math.isinf(value):
                    return None
                scalar = repr(value)
            elif type(value) is str:
                scalar = _escape_json_string(value)
            elif value is None:
                scalar = "null"
            else:
                return None
            parts.append(f"{_escape_json_string(key)}:{scalar}")
        return (
            f'{{"arrival_time":{record.arrival_time!r},'
            f'"is_dummy":{"true" if record.is_dummy else "false"},'
            f'"table":{_escape_json_string(record.table)},'
            f'"values":{{{",".join(parts)}}}}}'
        )

    @staticmethod
    def _serialize(record: Record) -> bytes:
        encoded = RecordCipher._record_json(record)
        if encoded is None:
            payload: dict[str, Any] = {
                "values": dict(record.values),
                "arrival_time": record.arrival_time,
                "is_dummy": record.is_dummy,
                "table": record.table,
            }
            encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        raw = encoded.encode()
        if len(raw) > PLAINTEXT_BLOCK_SIZE - 4:
            raise ValueError(
                f"record serialization of {len(raw)} bytes exceeds the "
                f"{PLAINTEXT_BLOCK_SIZE - 4}-byte plaintext block"
            )
        length_prefix = len(raw).to_bytes(4, "big")
        padding = b"\x00" * (PLAINTEXT_BLOCK_SIZE - 4 - len(raw))
        return length_prefix + raw + padding

    @staticmethod
    def _deserialize(plaintext: bytes) -> Record:
        length = int.from_bytes(plaintext[:4], "big")
        payload = json.loads(plaintext[4 : 4 + length].decode())
        return Record(
            values=payload["values"],
            arrival_time=payload["arrival_time"],
            is_dummy=payload["is_dummy"],
            table=payload["table"],
        )
