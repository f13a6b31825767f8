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
(:class:`CiphertextArena`).  :meth:`RecordCipher.encrypt_many_into`
serializes a whole batch, seals it, and writes the batch's ciphertexts with
one slice write into the arena's flat byte view and its handles with one
store into the view of the handle array.  :class:`ArenaRecord` is a
zero-copy view (handle -> arena row) exposing the same
``ciphertext``/``handle``/``size_bytes`` surface as the owning
:class:`EncryptedRecord` that :meth:`RecordCipher.encrypt` /
:meth:`RecordCipher.encrypt_many` return.

Both forms come from one AEAD call per record and are decrypted by the same
:meth:`RecordCipher.decrypt`.  The key handling around the AEAD is a
reproduction study's and has not been audited for production use.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.edb.records import Record

__all__ = [
    "EncryptedRecord",
    "ArenaRecord",
    "CiphertextArena",
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

#: A plaintext block: 4-byte big-endian length, then the zero-padded payload.
_pack_block = struct.Struct(f">I{PLAINTEXT_BLOCK_SIZE - 4}s").pack

#: CPython's C-accelerated JSON string escaper (the exact function
#: ``json.dumps`` uses with the default ``ensure_ascii=True``).
_escape_json_string = json.encoder.encode_basestring_ascii

#: Memo of :func:`_compile_layout` by ``(table, *keys)`` in insertion order;
#: it never changes an output, and clears at 1024 shapes.
_LAYOUTS: dict[tuple, tuple[str, Callable[[list], tuple]]] = {}


def _json_literal(text: str) -> str:
    """``text`` as a JSON string literal, ``%``-escaped for a template."""
    return _escape_json_string(text).replace("%", "%%")


def _compile_layout(table: str, keys: tuple[str, ...]) -> tuple[str, Callable]:
    """A record shape's ``%``-template, with the table name and the sorted,
    escaped ``"key":`` prefixes filled in, and the getter that puts a
    record's scalars (``arrival_time``, ``is_dummy``, then its values in
    insertion order) into template order."""
    if len(_LAYOUTS) >= 1024:
        _LAYOUTS.clear()
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = ",".join(f"{_json_literal(keys[index])}:%s" for index in order)
    template = (
        f'{{"arrival_time":%s,"is_dummy":%s,"table":{_json_literal(table)},'
        f'"values":{{{fields}}}}}'
    )
    layout = template, operator.itemgetter(0, 1, *(index + 2 for index in order))
    _LAYOUTS[(table, *keys)] = layout
    return layout


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


def _allocate(capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Backing buffers for ``capacity`` rows and their handles."""
    return (
        np.empty((capacity, CIPHERTEXT_SIZE), dtype=np.uint8),
        np.empty(capacity, dtype=np.int64),
    )


class CiphertextArena:
    """All ciphertexts of one table in a single contiguous ``uint8`` ndarray.

    Rows are appended (amortized O(1): capacity doubles when exhausted) and
    never mutated afterwards; handles are recorded in a parallel ``int64``
    array.  Growth and :meth:`compact` reallocate the backing buffers but
    copy contents verbatim, so handles and decrypted records are invariant
    under both -- a property the Hypothesis suite pins.

    Writers go through two views of those buffers: ``_rows``, the flat byte
    view of ``_data`` (a batch's ciphertexts land with one slice write), and
    ``_slots``, the view of ``_handles`` (a batch's handles land with one
    store).  The views are rebuilt whenever the buffers are reallocated and
    on unpickling; they are never pickled.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self._size = 0
        self._grow_count = 0
        self._install(*_allocate(initial_capacity))

    def _install(self, data: np.ndarray, handles: np.ndarray) -> None:
        """Make ``data``/``handles`` the backing buffers and rebuild their views."""
        self._data, self._handles = data, handles
        self._rows = memoryview(data).cast("B")
        self._slots = memoryview(handles)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_rows"], state["_slots"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._install(self._data, self._handles)

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Row capacity of the current backing buffer."""
        return int(self._data.shape[0])

    @property
    def grow_count(self) -> int:
        """How many times the backing buffer was reallocated by growth."""
        return self._grow_count

    def _grow(self, needed: int) -> None:
        """Double the capacity until ``needed`` rows fit, keeping the rows."""
        capacity = len(self._handles)
        while capacity < needed:
            capacity *= 2
        size = self._size
        data, handles = _allocate(capacity)
        data[:size] = self._data[:size]
        handles[:size] = self._handles[:size]
        self._install(data, handles)
        self._grow_count += 1

    def reserve(self, count: int) -> np.ndarray:
        """Append ``count`` uninitialized rows; return them as a 2-D view.

        The caller must fill the rows (and their handles via
        :meth:`set_handles`) before anything reads them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._size
        needed = start + count
        if needed > len(self._handles):
            self._grow(needed)
        self._size = needed
        return self._data[start:needed]

    def set_handles(self, start: int, handles: Sequence[int]) -> None:
        """Record the cipher handles for rows ``start .. start+len(handles)``."""
        self._handles[start : start + len(handles)] = handles

    def truncate(self, size: int) -> None:
        """Drop every row from ``size`` on (undoes appends)."""
        self._size = min(self._size, size)

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
        data, handles = _allocate(size)
        data[:] = self._data[:size]
        handles[:] = self._handles[:size]
        self._install(data, handles)

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
        self._next_handle += 1
        return EncryptedRecord(ciphertext=ciphertext, handle=self._next_handle - 1)

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
        """Encrypt a batch straight into the arena's next rows; return handles.

        Every record is serialized -- and so validated -- before the arena is
        touched, so an oversized record leaves it unchanged.  One
        ``os.urandom`` call draws the batch's nonces and each record gets one
        AEAD call; then the batch's ``nonce || body || tag`` rows land in the
        arena's flat byte view with one slice write (which checks their total
        length) and its handles with one store.
        """
        n = len(records)
        if n == 1:
            block = self._serialize(records[0])
            nonce = os.urandom(NONCE_SIZE)
            sealed = nonce + self._aead.encrypt(nonce, block, None)
        elif n:
            sealed = self._seal(list(map(self._serialize, records)))
        else:
            return []
        first = self._next_handle
        start = arena._size
        stop = start + n
        if stop > len(arena._slots):
            arena._grow(stop)
        arena._rows[start * CIPHERTEXT_SIZE : stop * CIPHERTEXT_SIZE] = sealed
        if n == 1:
            arena._slots[start] = first
            handles = [first]
        else:
            arena._slots[start:stop] = np.arange(first, first + n, dtype=np.int64)
            handles = list(range(first, first + n))
        arena._size = stop
        self._next_handle = first + n
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
        untouched, which keeps every outstanding :class:`ArenaRecord` valid.
        Returns the number of rows re-encrypted.
        """
        n = len(arena)
        if n == 0:
            return 0
        data = arena._rows[: n * CIPHERTEXT_SIZE].tobytes()
        blocks = [
            self._open(data[index * CIPHERTEXT_SIZE : (index + 1) * CIPHERTEXT_SIZE])
            for index in range(n)
        ]
        arena._rows[: n * CIPHERTEXT_SIZE] = new_cipher._seal(blocks)
        return n

    @staticmethod
    def _record_json(record: Record) -> str | None:
        """Canonical JSON of a scalar-valued record through its compiled layout.

        Byte-for-byte equal to ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` when the table and keys are plain ``str``,
        ``arrival_time`` an ``int``, ``is_dummy`` a ``bool`` and every value a
        plain ``str`` / ``int`` / finite ``float`` / ``bool`` / ``None`` (every
        workload in the repository); ``test_compiled_codec_matches_json_dumps``
        in ``tests/test_edb_crypto.py`` pins the equality.  Returns ``None``
        for anything else (numpy scalars, containers, ``str`` subclasses,
        non-string keys, NaN/inf), sending the record down ``json.dumps``.
        """
        table, arrival, dummy = record.table, record.arrival_time, record.is_dummy
        if type(table) is not str or type(arrival) is not int or type(dummy) is not bool:
            return None
        values = record.values
        scalars = [arrival, "true" if dummy else "false"]
        for key, value in values.items():
            kind = type(value)
            if type(key) is not str:
                return None
            if kind is int:
                scalars.append(value)
            elif kind is str:
                scalars.append(_escape_json_string(value))
            elif kind is bool:
                scalars.append("true" if value else "false")
            elif kind is float and math.isfinite(value):
                # json.dumps spells finite floats with float.__repr__.
                scalars.append(repr(value))
            elif value is None:
                scalars.append("null")
            else:
                return None
        template, reorder = _LAYOUTS.get((table, *values)) or _compile_layout(
            table, tuple(values)
        )
        return template % reorder(scalars)

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
        return _pack_block(len(raw), raw)

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
