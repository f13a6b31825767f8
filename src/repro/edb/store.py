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
  ``snapshots/<seq>/`` :class:`EncryptedStore`, an atomic ``LATEST``
  pointer is advanced only after the manifest is durable, and older
  generations are pruned (newest two kept).  A SIGKILL at any instant
  leaves either the previous complete snapshot or the new complete
  snapshot reachable; torn leftovers are skipped by the newest-valid scan.
* **Snapshot codecs** -- :func:`snapshot_backend` / :func:`restore_backend`
  serialize one :class:`~repro.edb.base.EncryptedDatabase` (arenas as raw
  row/handle bytes, everything else in a single pickle so shared objects
  like the ObliDB ORAMs' RNG stay shared), with the ORAM position maps
  re-verified against their checksummed snapshots on restore;
  :func:`snapshot_router` / :func:`restore_router` do the same for a
  :class:`~repro.edb.router.ShardRouter` plus its routing state, pulling
  each process-backed shard's snapshot over the worker pipe.

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
    "snapshot_backend",
    "restore_backend",
    "snapshot_router",
    "restore_router",
    "snapshot_edb",
    "restore_edb",
]

#: On-disk format version stamped into every manifest.  Version 2: records
#: and sealed blobs are AES-256-GCM (284-byte arena rows); version-1 stores
#: are refused rather than misread.
STORE_VERSION: int = 2

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
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        passphrase: str | None = None,
        salt: bytes | None = None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._passphrase = passphrase
        if passphrase is not None:
            self._salt = (
                salt if salt is not None else get_or_create_salt(self._dir / _SALT_NAME)
            )
            self._key: bytes | None = derive_key(passphrase, self._salt)
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
        self._passphrase = new_passphrase
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
    """Kill-safe generational snapshots: ``snapshots/<seq>/`` directories,
    an atomic ``LATEST`` pointer, newest :attr:`keep` generations retained.

    A writer killed mid-:meth:`save` leaves a directory without a manifest
    (invalid by construction) and a ``LATEST`` pointer still naming the
    previous complete snapshot; :meth:`load_latest` additionally falls back
    to a newest-valid scan, so even a torn pointer cannot poison resume.
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

    @property
    def path(self) -> Path:
        """The store's root directory."""
        return self._dir

    def _snapshot_dir(self, seq: int) -> Path:
        return self._dir / "snapshots" / f"{seq:08d}"

    def _open(self, seq: int) -> EncryptedStore:
        return EncryptedStore(
            self._snapshot_dir(seq), passphrase=self._passphrase, salt=self._salt
        )

    def _sequence_numbers(self) -> list[int]:
        numbers = []
        for entry in (self._dir / "snapshots").iterdir():
            if entry.is_dir() and entry.name.isdigit():
                numbers.append(int(entry.name))
        return sorted(numbers)

    def save(self, blobs: Mapping[str, bytes], meta: Mapping | None = None) -> int:
        """Write one complete snapshot generation; returns its sequence."""
        existing = self._sequence_numbers()
        seq = (existing[-1] if existing else 0) + 1
        store = self._open(seq)
        for name, data in blobs.items():
            store.write_blob(name, data)
        store.commit(dict(meta or {}, sequence=seq))
        atomic_write_text(self._dir / self._LATEST, f"{seq}\n")
        self._prune(seq)
        return seq

    def latest_sequence(self) -> int | None:
        """Sequence of the newest *valid* snapshot (``None`` when empty).

        Trusts the ``LATEST`` pointer when it names a snapshot with a valid
        manifest; otherwise scans generations newest-first, skipping torn
        or incomplete directories.
        """
        try:
            pointed = int((self._dir / self._LATEST).read_text().strip())
        except (OSError, ValueError):
            pointed = None
        if pointed is not None and self._is_valid(pointed):
            return pointed
        for seq in reversed(self._sequence_numbers()):
            if self._is_valid(seq):
                return seq
        return None

    def load_latest(self) -> EncryptedStore | None:
        """Open the newest valid snapshot (``None`` when none exists)."""
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

    def _prune(self, newest: int) -> None:
        for seq in self._sequence_numbers():
            if seq <= newest - self._keep:
                shutil.rmtree(self._snapshot_dir(seq), ignore_errors=True)


# -- coordinator-side replay journal ------------------------------------------


class ReplayLog:
    """Crash-safe append-only journal of routed shard commands.

    The supervisor's second half of durability: snapshots capture a shard
    at generation boundaries, the replay log records every mutating command
    routed *since*, so a dead worker rebuilds as snapshot + replay.  The
    write protocol is the store's manifest-last discipline in miniature:

    * each record is one ``records/<serial>.pkl`` file written through the
      fsync'd atomic-write helper (optionally sealed at rest),
    * ``HEAD.json`` -- ``{"start", "stop"}`` live-range pointers -- is
      rewritten atomically *after* the record file is durable.

    A crash between the two leaves an orphan record file past ``stop``:
    invisible to readers (the live range never covered it) and atomically
    overwritten by the next append.  A crash mid-write leaves only a
    ``*.tmp`` file the naming scheme never resolves.  Either way no torn
    record can enter a replay, which is what the recovery differential
    (byte-identical transcripts) depends on.

    Entries are dicts carrying at least ``tag`` (the snapshot sequence that
    was current when the command was journaled, nondecreasing across
    appends); :meth:`prune` drops the prefix older than a given tag once a
    newer snapshot generation makes it unreachable.
    """

    _HEAD = "HEAD.json"

    def __init__(
        self, directory: str | os.PathLike, passphrase: str | None = None
    ) -> None:
        self._dir = Path(directory)
        (self._dir / "records").mkdir(parents=True, exist_ok=True)
        if passphrase is not None:
            salt = get_or_create_salt(self._dir / _SALT_NAME)
            self._key: bytes | None = derive_key(passphrase, salt)
        else:
            self._key = None
        self._start, self._stop = self._read_head()
        self._durable = self._stop
        self._entries: dict[int, dict] = {
            serial: self._read_record(serial)
            for serial in range(self._start, self._stop)
        }

    @property
    def path(self) -> Path:
        """The journal's root directory."""
        return self._dir

    def __len__(self) -> int:
        return self._stop - self._start

    def _record_path(self, serial: int) -> Path:
        return self._dir / "records" / f"{serial:010d}.pkl"

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

    def _read_record(self, serial: int) -> dict:
        payload = self._record_path(serial).read_bytes()
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
        fault-free per-command cost is a dictionary insert rather than
        two fsyncs.
        """
        record = dict(entry)
        serial = self._stop
        self._entries[serial] = record
        self._stop = serial + 1
        return serial

    def flush(self) -> int:
        """Make every staged entry durable; returns how many were written.

        Record files first (each through the fsync'd atomic-write
        helper), the ``HEAD.json`` manifest last: a crash mid-flush
        leaves orphan record files past the durable ``stop`` --
        invisible to readers and atomically overwritten by the next
        flush -- never a torn or half-visible entry.
        """
        if self._durable >= self._stop:
            return 0
        flushed = 0
        for serial in range(self._durable, self._stop):
            payload = pickle.dumps(self._entries[serial])
            if self._key is not None:
                payload = seal_bytes(payload, self._key)
            atomic_write_bytes(self._record_path(serial), payload, mode=0o600)
            flushed += 1
        self._durable = self._stop
        self._write_head()
        return flushed

    def entries(self, min_tag: int | None = None) -> list[dict]:
        """Live entries in append order, optionally only ``tag >= min_tag``."""
        return [
            self._entries[serial]
            for serial in range(self._start, self._stop)
            if min_tag is None or self._entries[serial].get("tag", 0) >= min_tag
        ]

    def prune(self, min_tag: int) -> int:
        """Drop the live prefix with ``tag < min_tag``; returns the count.

        The head advances (atomically) before the record files are removed,
        so a crash mid-prune strands at most a few unreferenced files --
        never a live entry.
        """
        start = self._start
        while start < self._stop and self._entries[start].get("tag", 0) < min_tag:
            start += 1
        dropped = range(self._start, start)
        if not dropped:
            return 0
        self._start = start
        # Pruning may outrun the durable mark when staged-only entries go;
        # the head's live range must stay well-formed (start <= stop).
        self._durable = max(self._durable, start)
        self._write_head()
        for serial in dropped:
            self._entries.pop(serial, None)
            try:
                self._record_path(serial).unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return len(dropped)

    def clear(self) -> None:
        """Remove the whole journal directory."""
        shutil.rmtree(self._dir, ignore_errors=True)


# -- EDB snapshot codecs ------------------------------------------------------


def arena_to_bytes(arena: CiphertextArena) -> tuple[bytes, bytes, int]:
    """Serialize an arena's used rows and handles (backend-agnostic)."""
    size = len(arena)
    return (
        arena._data[:size].tobytes(),
        arena._handles[:size].tobytes(),
        size,
    )


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
    """Serialize one EDB back-end (plain or shared arenas) to bytes.

    The whole non-arena state travels in a *single* pickle so shared
    objects -- most importantly the RNG generator the ObliDB ORAMs share
    with the EDB -- stay shared after restore.  Arenas are serialized as
    raw row/handle bytes; ORAM position maps additionally get checksummed
    snapshots that :func:`restore_backend` re-verifies.
    """
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


def restore_backend(blob: bytes) -> "EncryptedDatabase":
    """Rebuild an EDB from :func:`snapshot_backend` bytes.

    Arenas come back as process-local :class:`CiphertextArena`\\ s (workers
    re-share them via ``rebuild_arenas``), and every ORAM's position map is
    verified against its stored checksum before the EDB is returned.
    """
    payload = pickle.loads(blob)
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
    # Rebuild the derived view state: re-registration bootstraps each view
    # from the restored executor tables, whose insertion order is exactly
    # the pre-kill ingest order -- so the rebuilt counters (and their group
    # key order) are bit-identical to the killed process's.
    from repro.query.views import ViewRegistry

    edb._views = ViewRegistry()
    for query in payload.get("view_queries", ()):
        edb.register_view(query)
    return edb


def snapshot_router(router: "ShardRouter") -> bytes:
    """Serialize a shard router: per-shard snapshots plus routing state.

    Process-backed shards are snapshotted *inside* their worker (one
    ``snapshot`` pipe command each), so the bytes reflect the worker's
    authoritative state including its RNG stream.  Routing state covers
    exactly what :meth:`ShardRouter.shard_index` and the planner's shard
    pruning depend on: per-table ordinals, per-shard counts and the
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
        "planner": "on" if router._planner is not None else "off",
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
        planner=payload["planner"],
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
