"""Durable encrypted store: atomic, checksummed on-disk snapshots.

ROADMAP item 3's durability half.  Everything the fleet holds in memory --
ciphertext arenas, ORAM position maps and client metadata, router routing
state (per-table ordinals, per-shard counts), per-owner strategy /
accountant / update-pattern state -- can be written to disk and restored so
that a killed deployment or grid cell resumes and replays *bit-identically*
(answers, QET, aggregate and per-shard ``(t, |γ_t|)`` transcripts).

Layers, bottom up:

* **Sealing** -- :func:`seal_bytes` / :func:`unseal_bytes` encrypt a blob
  at rest with the same AES-256-GCM layout
  :class:`~repro.edb.crypto.RecordCipher` uses for records (``nonce ||
  ciphertext || tag``), at any length.  Keys are derived from a
  passphrase with scrypt over a per-store random salt
  (:func:`derive_key` / :func:`get_or_create_salt`); ``passphrase=None``
  stores plaintext blobs (checksummed either way).
* **:class:`EncryptedStore`** -- one snapshot directory: named blobs
  written via the fsync'd atomic-write helper, then a ``MANIFEST.json``
  written *last* carrying per-blob SHA-256 checksums (over the on-disk
  sealed bytes), sizes, KDF metadata and a content fingerprint computed
  with the grid runner's scheme (sorted-JSON SHA-256 prefix).  A directory
  without a valid manifest is an aborted write by construction.  Reads
  verify checksums and raise :class:`StoreIntegrityError` on any mismatch.
  :meth:`EncryptedStore.change_passphrase` implements the re-keying
  workflow (decrypt all, new salt + key, rewrite, recommit) so a store can
  be reopened under a new passphrase.
* **:class:`SnapshotStore`** -- generational kill-safe snapshots for
  mid-run persistence: each :meth:`SnapshotStore.save` lands in its own
  ``snapshots/<seq>/`` :class:`EncryptedStore` whose manifest names its
  ``parent`` (``None`` for a full generation, else the generation a delta
  extends), and an atomic ``LATEST`` pointer is advanced only after the
  manifest is durable.  Restore applies a chain from its full base; the
  prune keeps the newest two valid heads and every generation their
  chains reference.  A SIGKILL at any instant leaves either the previous
  complete head or the new one reachable; torn leftovers, and deltas
  whose chain they break, are skipped by the newest-valid scan.
* **:class:`ReplayLog`** -- the supervisor's journal of commands routed
  since a generation: one fsync'd segment file per flush, ``HEAD.json``
  written last, pruned a whole segment at a time.
* **Snapshot codecs** -- :func:`snapshot_backend` / :func:`restore_backend`
  serialize one :class:`~repro.edb.base.EncryptedDatabase` (arenas as raw
  row/handle bytes, everything else in a single pickle so shared objects
  like the ObliDB ORAMs' RNG stay shared), with the ORAM position maps
  re-verified against their checksummed snapshots on restore.  Because
  nothing is ever deleted from the outsourced store, a generation can be
  a *delta* (``since=<marks>``, :func:`snapshot_marks`): the tails of the
  append-only components plus the small mutable state, O(rows since the
  parent) instead of O(|D|).  :func:`snapshot_router` /
  :func:`restore_router` serialize a :class:`~repro.edb.router.ShardRouter`
  plus its routing state in full, pulling each process-backed shard's
  snapshot over the worker pipe.

Restored arenas are always process-local :class:`~repro.edb.crypto.
CiphertextArena`\\ s; a restored shard handed to a worker process converts
them back to shared memory via
:meth:`~repro.edb.base.EncryptedDatabase.rebuild_arenas`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.edb.crypto import NONCE_SIZE, TAG_SIZE, CiphertextArena
from repro.util.io import atomic_write_bytes, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edb.base import EncryptedDatabase
    from repro.edb.router import ShardRouter

__all__ = [
    "StoreIntegrityError",
    "EncryptedStore",
    "SnapshotStore",
    "ReplayLog",
    "get_or_create_salt",
    "derive_key",
    "seal_bytes",
    "unseal_bytes",
    "manifest_fingerprint",
    "arena_to_bytes",
    "arena_from_bytes",
    "snapshot_marks",
    "snapshot_backend",
    "snapshot_generation",
    "restore_backend",
    "snapshot_router",
    "restore_router",
    "snapshot_edb",
    "restore_edb",
]

#: On-disk format version stamped into every manifest.  Version 4: a
#: manifest names its ``parent`` generation (``None`` for a full one),
#: records and sealed blobs are AES-256-GCM (284-byte arena rows), and
#: ciphertexts live only in arenas (a delta carries no per-record object
#: tails).  Stores of earlier versions are refused rather than misread.
STORE_VERSION: int = 4

#: Random salt length for the at-rest key derivation.
SALT_SIZE: int = 32

#: scrypt cost parameters: interactive-grade (a few ms per derivation) --
#: snapshots are written continuously, so the KDF must not dominate.
_SCRYPT_PARAMS: dict = {"n": 2**14, "r": 8, "p": 1}

_MANIFEST_NAME = "MANIFEST.json"
_SALT_NAME = "salt.bin"


class StoreIntegrityError(RuntimeError):
    """A stored blob or manifest failed verification (torn write, bit rot,
    wrong passphrase, or state that does not match its checksum)."""


# -- key derivation ----------------------------------------------------------


def get_or_create_salt(path: str | os.PathLike) -> bytes:
    """Read the store's KDF salt, creating it (0600, fsync'd) on first use."""
    path = Path(path)
    try:
        salt = path.read_bytes()
    except FileNotFoundError:
        salt = os.urandom(SALT_SIZE)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, salt, mode=0o600)
        return salt
    if len(salt) != SALT_SIZE:
        raise StoreIntegrityError(
            f"salt file {path} has {len(salt)} bytes, expected {SALT_SIZE}"
        )
    return salt


def derive_key(passphrase: str, salt: bytes) -> bytes:
    """Derive a 32-byte at-rest key from a passphrase (stdlib scrypt)."""
    return hashlib.scrypt(
        passphrase.encode("utf-8"), salt=salt, dklen=32, **_SCRYPT_PARAMS
    )


# -- blob sealing ------------------------------------------------------------


def seal_bytes(data: bytes, key: bytes) -> bytes:
    """AES-256-GCM seal a blob: ``nonce || ciphertext || tag``."""
    nonce = os.urandom(NONCE_SIZE)
    return nonce + AESGCM(key).encrypt(nonce, data, None)


def unseal_bytes(blob: bytes, key: bytes) -> bytes:
    """Verify and decrypt a :func:`seal_bytes` blob."""
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise StoreIntegrityError("sealed blob is too short")
    try:
        return AESGCM(key).decrypt(blob[:NONCE_SIZE], blob[NONCE_SIZE:], None)
    except InvalidTag:
        raise StoreIntegrityError(
            "sealed blob failed authentication (corrupt data or wrong key)"
        ) from None


def manifest_fingerprint(blobs: Mapping[str, Mapping]) -> str:
    """Content fingerprint over the blob table -- the grid runner's scheme
    (SHA-256 of sorted canonical JSON, 16 hex chars)."""
    canonical = json.dumps(
        {name: dict(entry) for name, entry in blobs.items()}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# -- one snapshot directory --------------------------------------------------


class EncryptedStore:
    """One atomic snapshot directory of named, checksummed blobs.

    Write side: :meth:`write_blob` each payload (fsync'd atomic replace,
    sealed when a passphrase is set), then :meth:`commit` -- the manifest is
    written last, so its presence certifies every blob it names is complete.
    Read side: :meth:`manifest` / :meth:`read_blob` verify the version, the
    per-blob SHA-256 (over the on-disk sealed bytes) and the seal tag,
    raising :class:`StoreIntegrityError` on the first mismatch.

    ``key`` (with the ``salt`` it was derived from) seals with an
    already-derived key instead of running the KDF again: a
    :class:`SnapshotStore` derives once and hands it to every generation.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        passphrase: str | None = None,
        salt: bytes | None = None,
        key: bytes | None = None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        if key is not None:
            self._salt = salt
            self._key: bytes | None = key
        elif passphrase is not None:
            self._salt = (
                salt if salt is not None else get_or_create_salt(self._dir / _SALT_NAME)
            )
            self._key = derive_key(passphrase, self._salt)
        else:
            self._salt = None
            self._key = None
        self._staged: dict[str, dict] = {}
        self._manifest: dict | None = None

    @property
    def path(self) -> Path:
        """The snapshot directory."""
        return self._dir

    @property
    def sealed(self) -> bool:
        """Whether blobs are encrypted at rest."""
        return self._key is not None

    # -- writing -------------------------------------------------------------

    def write_blob(self, name: str, data: bytes) -> None:
        """Stage one named blob (atomic + fsync'd; sealed when keyed)."""
        if "/" in name or name in (_MANIFEST_NAME, _SALT_NAME):
            raise ValueError(f"invalid blob name {name!r}")
        payload = seal_bytes(data, self._key) if self._key is not None else data
        atomic_write_bytes(self._dir / name, payload, mode=0o600)
        self._staged[name] = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        }

    def commit(self, meta: Mapping | None = None, parent: int | None = None) -> dict:
        """Write the manifest (last, atomically) sealing the snapshot.

        ``parent`` names the generation a delta snapshot extends (see
        :class:`SnapshotStore`); ``None`` marks a full snapshot.
        """
        manifest = {
            "version": STORE_VERSION,
            "parent": parent,
            "sealed": self.sealed,
            "kdf": (
                {"name": "scrypt", **_SCRYPT_PARAMS, "salt": self._salt.hex()}
                if self.sealed
                else None
            ),
            "blobs": dict(self._staged),
            "fingerprint": manifest_fingerprint(self._staged),
            "meta": dict(meta or {}),
        }
        atomic_write_text(
            self._dir / _MANIFEST_NAME,
            json.dumps(manifest, indent=1, sort_keys=True) + "\n",
        )
        self._manifest = manifest
        return manifest

    # -- reading -------------------------------------------------------------

    def manifest(self) -> dict:
        """Load and validate the manifest (cached after first read)."""
        if self._manifest is not None:
            return self._manifest
        try:
            raw = (self._dir / _MANIFEST_NAME).read_text()
        except OSError as exc:
            raise StoreIntegrityError(
                f"no readable manifest in {self._dir}: {exc}"
            ) from exc
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                f"manifest in {self._dir} is not valid JSON (torn write?)"
            ) from exc
        if manifest.get("version") != STORE_VERSION:
            raise StoreIntegrityError(
                f"manifest version {manifest.get('version')!r} is not "
                f"{STORE_VERSION}"
            )
        if manifest.get("fingerprint") != manifest_fingerprint(
            manifest.get("blobs", {})
        ):
            raise StoreIntegrityError(
                f"manifest fingerprint mismatch in {self._dir}"
            )
        if manifest.get("sealed") and self._key is None:
            raise StoreIntegrityError(
                f"store {self._dir} is sealed but no passphrase was given"
            )
        self._manifest = manifest
        return manifest

    def blob_names(self) -> tuple[str, ...]:
        """Names of all committed blobs."""
        return tuple(self.manifest()["blobs"])

    def read_blob(self, name: str) -> bytes:
        """Read one blob, verifying its checksum (and seal, when keyed)."""
        entry = self.manifest()["blobs"].get(name)
        if entry is None:
            raise StoreIntegrityError(f"no blob {name!r} in {self._dir}")
        payload = (self._dir / name).read_bytes()
        if len(payload) != entry["size"] or (
            hashlib.sha256(payload).hexdigest() != entry["sha256"]
        ):
            raise StoreIntegrityError(
                f"blob {name!r} in {self._dir} failed its checksum"
            )
        if self.manifest()["sealed"]:
            return unseal_bytes(payload, self._key)
        return payload

    # -- key lifecycle --------------------------------------------------------

    def change_passphrase(self, new_passphrase: str | None) -> None:
        """Re-key the store: decrypt every blob, rewrite under a new key.

        The SNIPPETS encryption-test workflow (encrypt-copy, key change,
        reopen): all blobs are read and verified under the current key, a
        fresh salt is drawn for the new passphrase, every blob is resealed
        and the manifest recommitted.  ``new_passphrase=None`` decrypts the
        store to plaintext-at-rest.
        """
        manifest = self.manifest()
        plaintext = {name: self.read_blob(name) for name in manifest["blobs"]}
        meta = manifest.get("meta", {})
        if new_passphrase is not None:
            self._salt = os.urandom(SALT_SIZE)
            atomic_write_bytes(self._dir / _SALT_NAME, self._salt, mode=0o600)
            self._key = derive_key(new_passphrase, self._salt)
        else:
            self._salt = None
            self._key = None
        self._staged = {}
        self._manifest = None
        for name, data in plaintext.items():
            self.write_blob(name, data)
        self.commit(meta, parent=manifest.get("parent"))


# -- generational snapshots for kill-and-resume -------------------------------


class SnapshotStore:
    """Kill-safe generational snapshots: ``snapshots/<seq>/`` directories,
    an atomic ``LATEST`` pointer, and chains of delta generations.

    A generation is *full* (``parent`` ``None``) or a *delta* naming the
    generation it extends; a chain runs from its full base to its head, and
    restoring a head applies the whole chain (:meth:`load_chain`).  A chain
    is valid only when every manifest along it is: a delta whose parent is
    missing or torn is never restored on its own.

    A writer killed mid-:meth:`save` leaves a directory without a manifest
    (invalid by construction) and a ``LATEST`` pointer still naming the
    previous complete head; :meth:`latest_sequence` additionally falls back
    to a newest-valid scan, so even a torn pointer cannot poison resume.
    Pruning keeps the newest :attr:`keep` valid heads and every generation
    their chains reference.
    """

    _LATEST = "LATEST"

    def __init__(
        self,
        directory: str | os.PathLike,
        passphrase: str | None = None,
        keep: int = 2,
    ) -> None:
        self._dir = Path(directory)
        (self._dir / "snapshots").mkdir(parents=True, exist_ok=True)
        self._passphrase = passphrase
        self._keep = max(1, keep)
        self._salt = (
            get_or_create_salt(self._dir / _SALT_NAME)
            if passphrase is not None
            else None
        )
        #: The at-rest key, derived on first use and shared by every
        #: generation this store opens (scrypt is deliberately slow).
        self._key: bytes | None = None
        #: Parent of every generation whose manifest was verified (or written)
        #: here, so pruning walks chains without re-reading manifests.
        self._parents: dict[int, int | None] = {}

    @property
    def path(self) -> Path:
        """The store's root directory."""
        return self._dir

    def _snapshot_dir(self, seq: int) -> Path:
        return self._dir / "snapshots" / f"{seq:08d}"

    def _open(self, seq: int) -> EncryptedStore:
        if self._passphrase is not None and self._key is None:
            self._key = derive_key(self._passphrase, self._salt)
        return EncryptedStore(
            self._snapshot_dir(seq), salt=self._salt, key=self._key
        )

    def _sequence_numbers(self) -> list[int]:
        numbers = []
        for entry in (self._dir / "snapshots").iterdir():
            if entry.is_dir() and entry.name.isdigit():
                numbers.append(int(entry.name))
        return sorted(numbers)

    def save(
        self,
        blobs: Mapping[str, bytes],
        meta: Mapping | None = None,
        parent: int | None = None,
    ) -> int:
        """Write one generation -- full, or a delta of ``parent`` -- and
        make it the newest head; returns its sequence."""
        if parent is not None:
            self._chain(parent)  # a delta must extend a valid chain
        existing = self._sequence_numbers()
        seq = (existing[-1] if existing else 0) + 1
        store = self._open(seq)
        for name, data in blobs.items():
            store.write_blob(name, data)
        store.commit(dict(meta or {}, sequence=seq), parent=parent)
        atomic_write_text(self._dir / self._LATEST, f"{seq}\n")
        self._parents[seq] = parent
        self._prune(existing + [seq])
        return seq

    def _chain(self, seq: int, verify: bool = False) -> list[int]:
        """The sequences from ``seq``'s full base to ``seq``, base first.

        Raises :class:`StoreIntegrityError` when any manifest on the chain
        is missing or torn.  ``verify`` re-reads every manifest from disk
        instead of trusting the ones already checked.
        """
        chain = [seq]
        parent = self._parent(seq, verify)
        while parent is not None:
            if parent >= chain[-1]:
                raise StoreIntegrityError(
                    f"generation {chain[-1]} names a later parent {parent}"
                )
            chain.append(parent)
            parent = self._parent(parent, verify)
        return chain[::-1]

    def _parent(self, seq: int, verify: bool) -> int | None:
        if not verify and seq in self._parents:
            return self._parents[seq]
        try:
            parent = self._open(seq).manifest().get("parent")
        except StoreIntegrityError:
            self._parents.pop(seq, None)
            raise
        self._parents[seq] = parent
        return parent

    def latest_sequence(self) -> int | None:
        """Sequence of the newest head whose whole chain is valid (``None``
        when there is none).

        Trusts the ``LATEST`` pointer when its chain verifies; otherwise
        scans generations newest-first, skipping torn or incomplete
        directories and deltas whose chain is broken.
        """
        try:
            pointed = [int((self._dir / self._LATEST).read_text().strip())]
        except (OSError, ValueError):
            pointed = []
        for seq in pointed + self._sequence_numbers()[::-1]:
            if self._is_valid(seq):
                return seq
        return None

    def load_latest(self) -> EncryptedStore | None:
        """Open the newest valid head (``None`` when none exists)."""
        seq = self.latest_sequence()
        return None if seq is None else self._open(seq)

    def load_chain(self, seq: int | None = None) -> list[EncryptedStore]:
        """Open every generation of ``seq``'s chain (default: the newest
        valid head), full base first; empty when the store holds none."""
        if seq is None:
            seq = self.latest_sequence()
            if seq is None:
                return []
        return [self._open(link) for link in self._chain(seq, verify=True)]

    def clear(self) -> None:
        """Remove the whole store (crash-recovery data no longer needed)."""
        shutil.rmtree(self._dir, ignore_errors=True)

    def _is_valid(self, seq: int) -> bool:
        try:
            self._chain(seq, verify=True)
        except StoreIntegrityError:
            return False
        return True

    def _prune(self, existing: list[int]) -> None:
        live: set[int] = set()
        heads = 0
        for seq in reversed(existing):
            if heads == self._keep:
                break
            try:
                live.update(self._chain(seq))
            except StoreIntegrityError:
                continue
            heads += 1
        for seq in existing:
            if seq not in live:
                self._parents.pop(seq, None)
                shutil.rmtree(self._snapshot_dir(seq), ignore_errors=True)


# -- coordinator-side replay journal ------------------------------------------


class ReplayLog:
    """Crash-safe append-only journal of routed shard commands.

    The supervisor's second half of durability: snapshots capture a shard
    at generation boundaries, the replay log records every mutating command
    routed *since*, so a dead worker rebuilds as snapshot + replay.  The
    write protocol is the store's manifest-last discipline in miniature:

    * each :meth:`flush` writes the entries staged since the previous one
      as one ``segments/<first serial>.pkl`` file through the fsync'd
      atomic-write helper (optionally sealed at rest),
    * ``HEAD.json`` -- ``{"start", "stop"}`` live-range pointers -- is
      rewritten atomically *after* the segment file is durable.

    A crash between the two leaves an orphan segment at ``stop``: invisible
    to readers (the live range never covered it) and atomically overwritten
    by the next flush.  A crash mid-write leaves only a ``*.tmp`` file the
    naming scheme never resolves.  Either way no torn entry can enter a
    replay, which is what the recovery differential (byte-identical
    transcripts) depends on.

    Entries are dicts carrying at least ``tag`` (the snapshot sequence that
    was current when the command was journaled, nondecreasing across
    appends); :meth:`prune` drops the whole segments older than a given tag
    once a newer snapshot generation makes them unreachable.
    """

    _HEAD = "HEAD.json"

    def __init__(
        self, directory: str | os.PathLike, passphrase: str | None = None
    ) -> None:
        self._dir = Path(directory)
        (self._dir / "segments").mkdir(parents=True, exist_ok=True)
        if passphrase is not None:
            salt = get_or_create_salt(self._dir / _SALT_NAME)
            self._key: bytes | None = derive_key(passphrase, salt)
        else:
            self._key = None
        self._start, stop = self._read_head()
        #: Live entries, serials ``start ..``; the durable ones come first.
        self._entries: list[dict] = []
        #: First serial of every durable live segment, ascending.
        self._segments: list[int] = []
        for first in self._segment_firsts():
            if self._start <= first < stop:
                if first != self._start + len(self._entries):
                    raise StoreIntegrityError(
                        f"journal {self._dir} is missing entries before "
                        f"serial {first}"
                    )
                self._segments.append(first)
                self._entries.extend(self._read_segment(first))
        if self._start + len(self._entries) != stop:
            raise StoreIntegrityError(
                f"journal {self._dir} does not cover its live range"
            )
        self._durable = stop

    @property
    def path(self) -> Path:
        """The journal's root directory."""
        return self._dir

    def __len__(self) -> int:
        return len(self._entries)

    def _segment_path(self, first: int) -> Path:
        return self._dir / "segments" / f"{first:010d}.pkl"

    def _segment_firsts(self) -> list[int]:
        return sorted(
            int(path.stem)
            for path in (self._dir / "segments").glob("*.pkl")
            if path.stem.isdigit()
        )

    def _read_head(self) -> tuple[int, int]:
        try:
            head = json.loads((self._dir / self._HEAD).read_text())
            return int(head["start"]), int(head["stop"])
        except (OSError, KeyError, TypeError, ValueError):
            return 0, 0

    def _write_head(self) -> None:
        atomic_write_text(
            self._dir / self._HEAD,
            json.dumps({"start": self._start, "stop": self._durable}) + "\n",
        )

    def _read_segment(self, first: int) -> list[dict]:
        payload = self._segment_path(first).read_bytes()
        if self._key is not None:
            payload = unseal_bytes(payload, self._key)
        return pickle.loads(payload)

    def append(self, entry: Mapping) -> int:
        """Durably journal one entry; returns its serial number."""
        serial = self.stage(entry)
        self.flush()
        return serial

    def stage(self, entry: Mapping) -> int:
        """Journal one entry in memory only; returns its serial number.

        Staged entries are immediately visible to :meth:`entries` -- a
        live coordinator replays from memory -- but die with the process
        until :meth:`flush` makes them durable.  The supervisor's hot
        path stages and lets snapshot boundaries flush, so the
        fault-free per-command cost is a list append rather than an
        fsync.
        """
        self._entries.append(dict(entry))
        return self._start + len(self._entries) - 1

    def flush(self) -> int:
        """Make every staged entry durable; returns how many were written.

        One segment file holds them all (through the fsync'd atomic-write
        helper), and the ``HEAD.json`` manifest is written last: a crash
        mid-flush leaves an orphan segment at the durable ``stop`` --
        invisible to readers and atomically overwritten by the next flush
        -- never a torn or half-visible entry.
        """
        staged = self._entries[self._durable - self._start :]
        if not staged:
            return 0
        payload = pickle.dumps(staged)
        if self._key is not None:
            payload = seal_bytes(payload, self._key)
        atomic_write_bytes(self._segment_path(self._durable), payload, mode=0o600)
        self._segments.append(self._durable)
        self._durable += len(staged)
        self._write_head()
        return len(staged)

    def entries(self, min_tag: int | None = None) -> list[dict]:
        """Live entries in append order, optionally only ``tag >= min_tag``."""
        if min_tag is None:
            return list(self._entries)
        return [entry for entry in self._entries if entry.get("tag", 0) >= min_tag]

    def prune(self, min_tag: int) -> int:
        """Drop the leading durable segments whose entries all have
        ``tag < min_tag``; returns how many entries went.

        A segment survives while any of its entries may still be replayed,
        and staged entries are never pruned.  The head advances (atomically)
        before the segment files are removed, so a crash mid-prune strands
        at most a few unreferenced files -- never a live entry.
        """
        bounds = self._segments + [self._durable]
        dropped = 0
        while dropped < len(self._segments) and (
            self._entries[bounds[dropped + 1] - 1 - self._start].get("tag", 0)
            < min_tag
        ):
            dropped += 1
        if not dropped:
            return 0
        gone, self._segments = self._segments[:dropped], self._segments[dropped:]
        count = bounds[dropped] - self._start
        del self._entries[:count]
        self._start = bounds[dropped]
        self._write_head()
        for first in gone:
            try:
                self._segment_path(first).unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return count

    def clear(self) -> None:
        """Remove the whole journal directory."""
        shutil.rmtree(self._dir, ignore_errors=True)


# -- EDB snapshot codecs ------------------------------------------------------


def arena_to_bytes(
    arena: CiphertextArena, start: int = 0
) -> tuple[bytes, bytes, int]:
    """Serialize an arena's used rows and handles from row ``start`` on
    (backend-agnostic)."""
    size = len(arena)
    return (
        arena._data[start:size].tobytes(),
        arena._handles[start:size].tobytes(),
        size - start,
    )


def arena_from_bytes(
    row_bytes: bytes,
    handle_bytes: bytes,
    size: int,
    arena: CiphertextArena | None = None,
) -> CiphertextArena:
    """Rebuild a process-local arena with rows/handles/indices verbatim, or
    append them to ``arena``."""
    if arena is None:
        arena = CiphertextArena(initial_capacity=max(size, 1))
    if size:
        start = len(arena)
        rows = arena.reserve(size)
        rows[:] = np.frombuffer(row_bytes, dtype=np.uint8).reshape(size, -1)
        arena.set_handles(start, np.frombuffer(handle_bytes, dtype=np.int64))
    return arena


def snapshot_marks(edb: "EncryptedDatabase") -> dict | None:
    """Lengths of ``edb``'s append-only state: the ``since`` of a later
    delta generation (:func:`snapshot_backend`).

    ``None`` for a shard whose storage is not append-only -- ObliDB's ORAM
    storage remaps blocks on every access -- which writes only full
    generations.
    """
    if not _append_only(edb):
        return None
    executor = edb._executor
    return {
        "history": len(edb._update_history),
        "arenas": {table: len(arena) for table, arena in edb._arenas.items()},
        "rows": {table: len(rows) for table, rows in executor.tables.items()},
        "columns": {
            table: store.marks() for table, store in executor._columnar.items()
        },
    }


def _append_only(edb: "EncryptedDatabase") -> bool:
    return getattr(edb, "_storage_mode", "flat") != "oram"


#: Components a delta generation ships as tails, and derived state rebuilt
#: on restore; the rest of an EDB's ``__dict__`` is the small mutable state
#: (RNG, cipher, counters, table totals) every generation ships whole.
_APPEND_ONLY = ("_arenas", "_update_history", "_executor")
_DERIVED = ("_views", "_arena_factory")


def snapshot_backend(
    edb: "EncryptedDatabase", since: Mapping | None = None
) -> bytes:
    """Serialize one EDB back-end (plain or shared arenas) to bytes.

    ``since=None`` writes a *full* generation.  The whole non-arena state
    travels in a *single* pickle so shared objects -- most importantly the
    RNG generator the ObliDB ORAMs share with the EDB -- stay shared after
    restore.  Arenas are serialized as raw row/handle bytes; ORAM position
    maps additionally get checksummed snapshots that :func:`restore_backend`
    re-verifies.

    ``since=<marks>`` (:func:`snapshot_marks` of an earlier generation)
    writes a *delta*: the tails appended since -- arena rows and handles,
    executor rows and columns, the update history -- plus the small mutable
    state whole.  Its size is O(rows since the marks).  It relies on the
    shard being append-only since then: a
    :meth:`~repro.edb.base.EncryptedDatabase.rotate_key` rewrites every row
    in place, so the generation after one must be full, and an ORAM-storage
    shard cannot write deltas at all.
    """
    if since is not None:
        return pickle.dumps(_delta_payload(edb, since))
    state = dict(edb.__dict__)
    arenas = state.pop("_arenas", {})
    state.pop("_arena_factory", None)
    # Views are derived state: only the registered queries are persisted;
    # restore re-registers them and bootstraps from the restored tables.
    views = state.pop("_views", None)
    payload = {
        "class": f"{type(edb).__module__}:{type(edb).__qualname__}",
        "state": state,
        "view_queries": tuple(views.registered()) if views is not None else (),
        "arenas": {
            table: arena_to_bytes(arena) for table, arena in arenas.items()
        },
        "oram_maps": {
            table: oram.position_map_snapshot()
            for table, oram in state.get("_orams", {}).items()
        },
    }
    return pickle.dumps(payload)


def _delta_payload(edb: "EncryptedDatabase", since: Mapping) -> dict:
    if not _append_only(edb):
        raise ValueError(
            f"{type(edb).__name__} with ORAM storage is not append-only; "
            "it writes only full generations"
        )
    state = {
        key: value
        for key, value in edb.__dict__.items()
        if key not in _APPEND_ONLY + _DERIVED
    }
    executor = edb._executor
    executor_state = {
        key: value
        for key, value in executor.__dict__.items()
        if key not in ("tables", "_columnar")
    }
    empty = (0, 0, {})
    return {
        "class": f"{type(edb).__module__}:{type(edb).__qualname__}",
        "since": dict(since),
        "state": state,
        "executor": executor_state,
        "view_queries": tuple(edb._views.registered()),
        "history": edb._update_history[since["history"] :],
        "arenas": {
            table: arena_to_bytes(arena, since["arenas"].get(table, 0))
            for table, arena in edb._arenas.items()
        },
        "rows": {
            table: rows[since["rows"].get(table, 0) :]
            for table, rows in executor.tables.items()
        },
        "columns": {
            table: store.tail(since["columns"].get(table, empty))
            for table, store in executor._columnar.items()
        },
    }


def snapshot_generation(
    edb: "EncryptedDatabase", since: Mapping | None = None
) -> tuple[bytes, dict | None]:
    """One generation of ``edb`` -- full, or a delta ``since`` earlier
    marks -- together with the marks its own successor deltas start from."""
    return snapshot_backend(edb, since), snapshot_marks(edb)


def restore_backend(blob: bytes, *deltas: bytes) -> "EncryptedDatabase":
    """Rebuild an EDB from a full :func:`snapshot_backend` generation and
    the deltas of its chain, oldest first.

    Arenas come back as process-local :class:`CiphertextArena`\\ s (workers
    re-share them via ``rebuild_arenas``), and every ORAM's position map is
    verified against its stored checksum before the EDB is returned.  Each
    delta must extend exactly the state restored so far, and a delta is
    never restored without its base.
    """
    payload = pickle.loads(blob)
    if payload.get("since") is not None:
        raise StoreIntegrityError(
            "a delta generation cannot be restored without its parent chain"
        )
    module_name, _, qualname = payload["class"].partition(":")
    cls = getattr(importlib.import_module(module_name), qualname)
    edb = cls.__new__(cls)
    edb.__dict__.update(payload["state"])
    edb._arena_factory = CiphertextArena
    edb._arenas = {
        table: arena_from_bytes(*serialized)
        for table, serialized in payload["arenas"].items()
    }
    for table, snapshot in payload["oram_maps"].items():
        oram = getattr(edb, "_orams", {}).get(table)
        if (
            oram is None
            or oram.position_map_snapshot()["checksum"] != snapshot["checksum"]
        ):
            raise StoreIntegrityError(
                f"ORAM position map for table {table!r} did not survive "
                "the snapshot round trip"
            )
    view_queries = payload.get("view_queries", ())
    for delta in deltas:
        view_queries = _apply_delta(edb, payload["class"], pickle.loads(delta))
    # Rebuild the derived view state: re-registration bootstraps each view
    # from the restored executor tables, whose insertion order is exactly
    # the pre-kill ingest order -- so the rebuilt counters (and their group
    # key order) are bit-identical to the killed process's.
    from repro.query.views import ViewRegistry

    edb._views = ViewRegistry()
    for query in view_queries:
        edb.register_view(query)
    return edb


def _apply_delta(edb: "EncryptedDatabase", cls: str, payload: dict) -> tuple:
    """Extend a restored EDB by one delta; returns its view queries."""
    if payload.get("since") is None or payload["class"] != cls:
        raise StoreIntegrityError("chain link is not a delta of this back-end")
    if snapshot_marks(edb) != payload["since"]:
        raise StoreIntegrityError("delta generation does not extend its parent")
    edb.__dict__.update(payload["state"])
    executor = edb._executor
    executor.__dict__.update(payload["executor"])
    edb._update_history.extend(payload["history"])
    for table, tail in payload["arenas"].items():
        edb._arenas[table] = arena_from_bytes(*tail, edb._arenas.get(table))
    for table, tail in payload["rows"].items():
        executor.tables.setdefault(table, []).extend(tail)
    for table, tail in payload["columns"].items():
        executor._store(table).extend(tail)
    return payload["view_queries"]


def snapshot_router(router: "ShardRouter") -> bytes:
    """Serialize a shard router: per-shard snapshots plus routing state.

    Process-backed shards are snapshotted *inside* their worker (one
    ``snapshot`` pipe command each), so the bytes reflect the worker's
    authoritative state including its RNG stream.  Routing state covers
    exactly what :meth:`ShardRouter.shard_index` depends on plus the
    partition metadata: per-table ordinals, per-shard counts and the
    aggregate update history.  Wall-clock measurements are deliberately
    not persisted (observables do not depend on them).
    """
    shard_blobs = []
    for shard in router.shards:
        # Duck-typed: ShardWorkerClient serializes inside its worker, and a
        # SupervisedShard delegates to whatever it currently wraps; a plain
        # in-process EDB has no ``snapshot`` and is serialized here.
        if hasattr(shard, "snapshot"):
            shard_blobs.append(shard.snapshot())
        else:
            shard_blobs.append(snapshot_backend(shard))
    payload = {
        "route_seed": router._route_seed,
        "executor": router._executor,
        "supervisor": getattr(router, "_supervisor_meta", None),
        "ordinals": dict(router._ordinals),
        "table_shard_counts": {
            table: list(counts)
            for table, counts in router._table_shard_counts.items()
        },
        "update_history": list(router._update_history),
        "view_queries": list(router._view_queries),
        "view_answering": router._view_answering,
        "shards": shard_blobs,
    }
    return pickle.dumps(payload)


def restore_router(blob: bytes) -> "ShardRouter":
    """Rebuild a shard router (and its shards) from :func:`snapshot_router`.

    Shards are restored first, then handed to the public constructor --
    under the process executor the workers inherit the restored state by
    fork and re-share their arenas -- and finally the staged-ordinal
    routing state is reinstalled so post-restore records route exactly
    where an uninterrupted run would have sent them.
    """
    from repro.edb.router import ShardRouter

    payload = pickle.loads(blob)
    shards = [restore_backend(shard_blob) for shard_blob in payload["shards"]]
    extra: dict = {}
    supervisor_meta = payload.get("supervisor")
    if supervisor_meta is not None:
        # The restored fleet supervises again with the same policy but a
        # fresh scratch directory (and no fault schedule -- faults are a
        # test harness, not deployment state).
        from repro.fleet.supervisor import SupervisorConfig

        extra["supervisor"] = SupervisorConfig.from_meta(supervisor_meta)
    router = ShardRouter(
        shards,
        route_seed=payload["route_seed"],
        executor=payload["executor"],
        **extra,
    )
    router._ordinals = dict(payload["ordinals"])
    router._table_shard_counts = {
        table: list(counts)
        for table, counts in payload["table_shard_counts"].items()
    }
    router._update_history = list(payload["update_history"])
    # Shard-level views were rebuilt inside restore_backend (each shard
    # recorded its own registered probes), so only the router-level query
    # list and answering flag are reinstated -- no re-fanout.
    router._view_queries = list(payload.get("view_queries", ()))
    router._view_answering = bool(payload.get("view_answering", True))
    return router


def snapshot_edb(edb) -> tuple[str, bytes]:
    """Dispatch on the EDB kind; returns ``(kind, blob)`` for the manifest."""
    from repro.edb.router import ShardRouter

    if isinstance(edb, ShardRouter):
        return "router", snapshot_router(edb)
    return "backend", snapshot_backend(edb)


def restore_edb(kind: str, blob: bytes):
    """Inverse of :func:`snapshot_edb`."""
    if kind == "router":
        return restore_router(blob)
    if kind == "backend":
        return restore_backend(blob)
    raise StoreIntegrityError(f"unknown EDB snapshot kind {kind!r}")
