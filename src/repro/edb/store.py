"""Durable encrypted store: atomic, checksummed on-disk snapshots.

ROADMAP item 3's durability half.  Everything the fleet holds in memory --
ciphertext arenas and client metadata, router routing state (per-table
ordinals, per-shard counts), per-owner strategy / accountant /
update-pattern state -- can be written to disk and restored so
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
  ``snapshots/<seq>/`` :class:`EncryptedStore`, and an atomic ``LATEST``
  pointer is advanced only after the manifest is durable; the prune keeps
  the newest two valid generations.  A SIGKILL at any instant leaves
  either the previous complete generation or the new one reachable; torn
  leftovers are skipped by the newest-valid scan.
* **:class:`ReplayLog`** -- the supervisor's in-memory journal of commands
  routed since a generation, closed into one segment per snapshot and
  pruned a whole segment at a time.
* **Snapshot codecs** -- :func:`snapshot_backend` / :func:`restore_backend`
  serialize one :class:`~repro.edb.base.EncryptedDatabase` whole (arenas as
  raw row/handle bytes, the update history as plain tuples, everything else
  in a single pickle so an object the state references twice stays one
  object).  Every generation is full: what a shard gained since its last
  generation is the supervisor's replay journal, not a second snapshot
  kind.  :func:`snapshot_router` / :func:`restore_router` serialize a
  :class:`~repro.edb.router.ShardRouter` plus its routing state in full,
  pulling each process-backed shard's snapshot over the worker pipe.
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

from repro.edb.base import UpdateResult
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
    "snapshot_backend",
    "restore_backend",
    "snapshot_router",
    "restore_router",
    "snapshot_edb",
    "restore_edb",
]

#: On-disk format version stamped into every manifest.  Version 8: every
#: generation is full (a manifest carries no ``parent`` key) and the update
#: history pickles as plain tuples; records and sealed blobs are AES-256-GCM
#: (284-byte arena rows), ciphertexts live only in arenas, every shard is
#: flat and append-only (no ORAM position maps), only a Crypt-epsilon
#: shard's state carries an RNG, and no generation carries maintained-view
#: state, view queries or the executor's plan cache.  Stores of earlier
#: versions are refused rather than misread.
STORE_VERSION: int = 8

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

    def commit(self, meta: Mapping | None = None) -> dict:
        """Write the manifest (last, atomically) sealing the snapshot."""
        manifest = {
            "version": STORE_VERSION,
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
        self.commit(meta)


# -- generational snapshots for kill-and-resume -------------------------------


class SnapshotStore:
    """Kill-safe generational snapshots: ``snapshots/<seq>/`` directories
    and an atomic ``LATEST`` pointer.

    A writer killed mid-:meth:`save` leaves a directory without a manifest
    (invalid by construction) and a ``LATEST`` pointer still naming the
    previous complete generation; :meth:`latest_sequence` additionally falls
    back to a newest-valid scan, so even a torn pointer cannot poison
    resume.  Pruning keeps the newest :attr:`keep` valid generations.
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

    def save(self, blobs: Mapping[str, bytes], meta: Mapping | None = None) -> int:
        """Write one generation and make it the newest; returns its
        sequence."""
        existing = self._sequence_numbers()
        seq = (existing[-1] if existing else 0) + 1
        store = self._open(seq)
        for name, data in blobs.items():
            store.write_blob(name, data)
        store.commit(dict(meta or {}, sequence=seq))
        atomic_write_text(self._dir / self._LATEST, f"{seq}\n")
        self._prune(existing + [seq])
        return seq

    def latest_sequence(self) -> int | None:
        """Sequence of the newest valid generation (``None`` when there is
        none).

        Trusts the ``LATEST`` pointer when its manifest verifies; otherwise
        scans generations newest-first, skipping torn or incomplete
        directories.
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
        """Open the newest valid generation (``None`` when none exists)."""
        seq = self.latest_sequence()
        return None if seq is None else self._open(seq)

    def clear(self) -> None:
        """Remove the whole store (crash-recovery data no longer needed)."""
        shutil.rmtree(self._dir, ignore_errors=True)

    def _is_valid(self, seq: int) -> bool:
        try:
            self._open(seq).manifest()
        except StoreIntegrityError:
            return False
        return True

    def _prune(self, existing: list[int]) -> None:
        kept = 0
        for seq in reversed(existing):
            if kept < self._keep and self._is_valid(seq):
                kept += 1
            else:
                shutil.rmtree(self._snapshot_dir(seq), ignore_errors=True)


# -- coordinator-side replay journal ------------------------------------------


class ReplayLog:
    """The supervisor's journal of routed shard commands, in memory.

    Snapshots capture a shard at generation boundaries; the replay log
    holds every mutating command routed *since*, so a dead worker rebuilds
    as snapshot + replay.  Both live in the coordinator, which outlives its
    workers; nothing recovers a shard after the coordinator itself is gone,
    so neither is written at rest.

    Entries are dicts carrying at least ``tag`` (the snapshot sequence that
    was current when the command was journaled, nondecreasing across
    stages).  :meth:`stage` appends one; :meth:`flush` closes the entries
    staged since the last flush into one segment at a snapshot boundary;
    :meth:`prune` drops the whole closed segments older than a given tag
    once a newer snapshot generation makes them unreachable.
    """

    def __init__(self) -> None:
        self._entries: list[dict] = []
        #: Lengths of the closed segments, oldest first; staged entries
        #: follow them.
        self._segments: list[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def stage(self, entry: dict) -> None:
        """Journal one entry; :meth:`entries` returns it at once."""
        self._entries.append(entry)

    def flush(self) -> int:
        """Close every staged entry into one segment; returns how many."""
        staged = len(self._entries) - sum(self._segments)
        if staged:
            self._segments.append(staged)
        return staged

    def entries(self, min_tag: int | None = None) -> list[dict]:
        """Live entries in append order, optionally only ``tag >= min_tag``."""
        if min_tag is None:
            return list(self._entries)
        return [entry for entry in self._entries if entry["tag"] >= min_tag]

    def prune(self, min_tag: int) -> int:
        """Drop the leading closed segments whose entries all have
        ``tag < min_tag``; returns how many entries went.

        A segment survives while any of its entries may still be replayed,
        and staged entries are never pruned.
        """
        count = 0
        while self._segments and (
            self._entries[count + self._segments[0] - 1]["tag"] < min_tag
        ):
            count += self._segments.pop(0)
        del self._entries[:count]
        return count

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._segments.clear()


# -- EDB snapshot codecs ------------------------------------------------------


def arena_to_bytes(arena: CiphertextArena) -> tuple[bytes, bytes, int]:
    """Serialize an arena's used rows and handles (backend-agnostic)."""
    size = len(arena)
    return arena._data[:size].tobytes(), arena._handles[:size].tobytes(), size


def arena_from_bytes(
    row_bytes: bytes, handle_bytes: bytes, size: int
) -> CiphertextArena:
    """Rebuild a process-local arena with rows/handles/indices verbatim."""
    arena = CiphertextArena(initial_capacity=max(size, 1))
    if size:
        rows = arena.reserve(size)
        rows[:] = np.frombuffer(row_bytes, dtype=np.uint8).reshape(size, -1)
        arena.set_handles(0, np.frombuffer(handle_bytes, dtype=np.int64))
    return arena


def snapshot_backend(edb: "EncryptedDatabase") -> bytes:
    """Serialize one EDB back-end to bytes: one full generation.

    The whole non-arena state travels in a *single* pickle, which memoizes
    by identity: an object two parts of the state reference comes back as
    one object, where pickling the parts separately would silently restore
    two copies.  Arenas are serialized as raw row/handle bytes, and the
    update history as plain tuples (a named tuple pickles as a constructor
    call per entry).
    """
    state = dict(edb.__dict__)
    arenas = state.pop("_arenas", {})
    state["_update_history"] = list(map(tuple, state["_update_history"]))
    payload = {
        "class": f"{type(edb).__module__}:{type(edb).__qualname__}",
        "state": state,
        "arenas": {
            table: arena_to_bytes(arena) for table, arena in arenas.items()
        },
    }
    return pickle.dumps(payload)


def restore_backend(blob: bytes) -> "EncryptedDatabase":
    """Rebuild an EDB from a :func:`snapshot_backend` generation."""
    payload = pickle.loads(blob)
    module_name, _, qualname = payload["class"].partition(":")
    cls = getattr(importlib.import_module(module_name), qualname)
    edb = cls.__new__(cls)
    edb.__dict__.update(payload["state"])
    edb._update_history = list(map(UpdateResult._make, edb._update_history))
    edb._arenas = {
        table: arena_from_bytes(*serialized)
        for table, serialized in payload["arenas"].items()
    }
    return edb


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
        "shards": shard_blobs,
    }
    return pickle.dumps(payload)


def restore_router(blob: bytes) -> "ShardRouter":
    """Rebuild a shard router (and its shards) from :func:`snapshot_router`.

    Shards are restored first, then handed to the public constructor --
    under the process executor the workers inherit the restored state by
    fork -- and finally the staged-ordinal
    routing state is reinstalled so post-restore records route exactly
    where an uninterrupted run would have sent them.
    """
    from repro.edb.router import ShardRouter

    payload = pickle.loads(blob)
    shards = [restore_backend(shard_blob) for shard_blob in payload["shards"]]
    extra: dict = {}
    supervisor_meta = payload.get("supervisor")
    if supervisor_meta is not None:
        # The restored fleet supervises again with the same policy, from
        # new snapshot chains (and no fault schedule -- faults are a test
        # harness, not deployment state).
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
