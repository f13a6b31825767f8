"""Durable encrypted store: sealing, manifests, snapshots, key lifecycle.

Covers the :mod:`repro.edb.store` layers bottom-up -- blob sealing, the
atomic :class:`EncryptedStore` directory with its write-manifest-last
protocol, the generational :class:`SnapshotStore`, and the supervisor's
in-memory generations -- plus the durability bugfixes that ride along:

* the grid runner's checkpoint writes are fsync'd-atomic, and a torn
  leftover ``.tmp`` (or a torn checkpoint itself) is skipped cleanly on
  resume instead of poisoning it;
* :class:`~repro.edb.crypto.RecordCipher` pickles (key + handle counter)
  and rotates: re-keying an EDB re-encrypts every arena row in place
  without invalidating handles, with decrypted payloads byte-identical
  and the *old* key failing authentication afterwards.
"""

from __future__ import annotations

import json
import os
import pickle
import stat
import threading

import numpy as np
import pytest

from repro.edb.crypto import NONCE_SIZE, TAG_SIZE, CiphertextArena, RecordCipher
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.store import (
    STORE_VERSION,
    EncryptedStore,
    ReplayLog,
    SnapshotStore,
    StoreIntegrityError,
    arena_from_bytes,
    arena_to_bytes,
    derive_key,
    get_or_create_salt,
    restore_backend,
    restore_router,
    seal_bytes,
    snapshot_router,
    unseal_bytes,
)
from repro.edb.router import ShardRouter, WallClockStats
from repro.fleet.supervisor import SupervisedShard, SupervisorConfig
from repro.query.ast import CountQuery
from repro.simulation.results import RunResult
from repro.simulation.runner import CellSpec, GridRunner
from repro.testing.chaos import parse_fault_schedule
from repro.util.io import atomic_write_bytes

SCHEMA = Schema(name="events", attributes=("key", "value"))


def _records(n: int, start: int = 0, time: int = 1) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 5, "value": start + i},
            arrival_time=time,
            table="events",
        )
        for i in range(n)
    ]


# -- sealing ------------------------------------------------------------------


def test_seal_unseal_round_trip_and_tamper_detection():
    key = derive_key("hunter2", b"\x01" * 32)
    for payload in (b"", b"x", os.urandom(5000)):
        sealed = seal_bytes(payload, key)
        assert unseal_bytes(sealed, key) == payload
        assert len(sealed) == NONCE_SIZE + len(payload) + TAG_SIZE
        assert sealed[NONCE_SIZE:-TAG_SIZE] != payload or not payload
    sealed = seal_bytes(b"secret", key)
    torn = bytearray(sealed)
    torn[20] ^= 0xFF
    with pytest.raises(StoreIntegrityError):
        unseal_bytes(bytes(torn), key)
    with pytest.raises(StoreIntegrityError):
        unseal_bytes(sealed, derive_key("wrong", b"\x01" * 32))
    with pytest.raises(StoreIntegrityError):
        unseal_bytes(b"short", key)


def test_salt_is_created_once_with_owner_only_permissions(tmp_path):
    path = tmp_path / "salt.bin"
    salt = get_or_create_salt(path)
    assert len(salt) == 32
    assert get_or_create_salt(path) == salt
    assert (os.stat(path).st_mode & 0o777) == 0o600
    path.write_bytes(b"short")
    with pytest.raises(StoreIntegrityError):
        get_or_create_salt(path)


def _private(path) -> bool:
    """No group or other permission bits on ``path``."""
    return stat.S_IMODE(os.stat(path).st_mode) & 0o077 == 0


def test_atomic_write_mode_applies_to_a_leftover_temp_file(tmp_path):
    path = tmp_path / "secret.bin"
    leftover = tmp_path / "secret.bin.tmp"
    leftover.write_bytes(b"crashed writer")
    os.chmod(leftover, 0o644)
    atomic_write_bytes(path, b"key material", mode=0o600)
    assert path.read_bytes() == b"key material"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


@pytest.mark.parametrize("passphrase", [None, "pw"])
def test_salt_blobs_and_journal_records_are_owner_only(
    tmp_path, monkeypatch, passphrase
):
    """Stored blobs and salts are 0600; the supervisor's journal records
    never leave the coordinator's memory, so no file holds one."""
    monkeypatch.chdir(tmp_path)
    store = EncryptedStore(tmp_path / "store", passphrase=passphrase)
    store.write_blob("owners.pkl", b"plaintext client state")
    store.commit()
    journal = ReplayLog()
    journal.stage({"command": "insert_many", "tag": 1, "args": ("secret",)})
    journal.flush()
    written = [tmp_path / "store" / "owners.pkl"]
    if passphrase is not None:
        written.append(tmp_path / "store" / "salt.bin")
        store.change_passphrase("new")
    assert all(_private(path) for path in written)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == sorted(
        ["MANIFEST.json"] + [p.name for p in written]
    )


# -- EncryptedStore -----------------------------------------------------------


@pytest.mark.parametrize("passphrase", [None, "open sesame"])
def test_store_round_trip(tmp_path, passphrase):
    store = EncryptedStore(tmp_path, passphrase=passphrase)
    store.write_blob("a.bin", b"alpha")
    store.write_blob("b.bin", os.urandom(2048))
    manifest = store.commit({"kind": "test"})
    assert manifest["sealed"] == (passphrase is not None)

    reopened = EncryptedStore(tmp_path, passphrase=passphrase)
    assert set(reopened.blob_names()) == {"a.bin", "b.bin"}
    assert reopened.read_blob("a.bin") == b"alpha"
    assert reopened.manifest()["meta"] == {"kind": "test"}
    if passphrase is not None:
        # Blobs on disk are sealed, not plaintext.
        assert b"alpha" not in (tmp_path / "a.bin").read_bytes()


def test_store_rejects_bad_blob_names(tmp_path):
    store = EncryptedStore(tmp_path)
    for name in ("../evil", "a/b", "MANIFEST.json", "salt.bin"):
        with pytest.raises(ValueError):
            store.write_blob(name, b"x")


def test_wrong_passphrase_and_missing_passphrase_fail_closed(tmp_path):
    store = EncryptedStore(tmp_path, passphrase="right")
    store.write_blob("a.bin", b"alpha")
    store.commit()
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="wrong").read_blob("a.bin")
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path).manifest()  # sealed, no passphrase


def test_torn_manifest_and_torn_blob_are_detected(tmp_path):
    store = EncryptedStore(tmp_path, passphrase="pw")
    store.write_blob("a.bin", b"alpha" * 100)
    store.commit()

    blob_path = tmp_path / "a.bin"
    whole = blob_path.read_bytes()
    blob_path.write_bytes(whole[:-3])  # torn write
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="pw").read_blob("a.bin")
    corrupted = bytearray(whole)
    corrupted[30] ^= 0x01  # bit rot, same length
    blob_path.write_bytes(bytes(corrupted))
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="pw").read_blob("a.bin")
    blob_path.write_bytes(whole)
    assert EncryptedStore(tmp_path, passphrase="pw").read_blob("a.bin")

    manifest_path = tmp_path / "MANIFEST.json"
    raw = manifest_path.read_text()
    manifest_path.write_text(raw[: len(raw) // 2])  # torn JSON
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="pw").manifest()
    doctored = json.loads(raw)
    doctored["blobs"]["a.bin"]["size"] += 1  # edited without re-fingerprinting
    manifest_path.write_text(json.dumps(doctored))
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="pw").manifest()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
def test_earlier_manifest_versions_are_refused(tmp_path, version):
    """Stores of an earlier format are refused with their version named, not
    misread: version 1 predates AES-GCM, version 2 delta generations,
    version 3 arena-only ciphertexts (its deltas carry per-record object
    tails), version 4 flat-only shards (its full generations still carry
    ORAM position maps), version 5 RNG-free ObliDB shards and named-tuple
    update histories (its ObliDB states still carry an unused RNG), version
    6 view-free EDB states (its generations still carry maintained-view
    state, view queries and the plan cache), version 7 full-only
    generations with plain-tuple update histories (its manifests carry a
    ``parent`` key and its histories pickle as named tuples)."""
    store = EncryptedStore(tmp_path)
    store.write_blob("a.bin", b"alpha")
    manifest = store.commit()
    assert manifest["version"] == STORE_VERSION == 8
    assert "parent" not in manifest
    manifest["version"] = version
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(
        StoreIntegrityError, match=f"manifest version {version} is not 8"
    ):
        EncryptedStore(tmp_path).manifest()


def test_change_passphrase_rekeys_and_reopens(tmp_path):
    """The encrypt-copy / key-change / reopen workflow."""
    payloads = {"a.bin": b"alpha", "b.bin": os.urandom(512)}
    store = EncryptedStore(tmp_path, passphrase="old")
    for name, data in payloads.items():
        store.write_blob(name, data)
    store.commit({"generation": 1})
    old_salt = (tmp_path / "salt.bin").read_bytes()

    store.change_passphrase("new")
    assert (tmp_path / "salt.bin").read_bytes() != old_salt

    reopened = EncryptedStore(tmp_path, passphrase="new")
    assert reopened.manifest()["meta"] == {"generation": 1}
    for name, data in payloads.items():
        assert reopened.read_blob(name) == data
    with pytest.raises(StoreIntegrityError):
        EncryptedStore(tmp_path, passphrase="old").read_blob("a.bin")

    # Decrypting to plaintext-at-rest also round-trips.
    reopened.change_passphrase(None)
    plain = EncryptedStore(tmp_path)
    assert plain.read_blob("a.bin") == b"alpha"
    assert not plain.manifest()["sealed"]


# -- SnapshotStore ------------------------------------------------------------


def test_snapshot_store_generations_and_pruning(tmp_path):
    store = SnapshotStore(tmp_path, keep=2)
    for generation in range(1, 5):
        seq = store.save({"state.bin": bytes([generation])}, {"g": generation})
        assert seq == generation
    assert store.latest_sequence() == 4
    latest = store.load_latest()
    assert latest.read_blob("state.bin") == b"\x04"
    assert latest.manifest()["meta"] == {"g": 4, "sequence": 4}
    # Only the newest two generations survive pruning.
    kept = sorted(p.name for p in (tmp_path / "snapshots").iterdir())
    assert kept == ["00000003", "00000004"]
    store.clear()
    assert not tmp_path.exists()


def test_snapshot_store_skips_torn_generation(tmp_path):
    """A SIGKILL mid-save leaves the previous complete snapshot reachable."""
    store = SnapshotStore(tmp_path, keep=3)
    store.save({"state.bin": b"one"}, {})
    store.save({"state.bin": b"two"}, {})
    # Simulate a writer killed after creating generation 3's blobs but
    # before its manifest: the directory exists, the manifest does not.
    torn = tmp_path / "snapshots" / "00000003"
    torn.mkdir()
    (torn / "state.bin").write_bytes(b"thr")
    # ...and a torn LATEST pointer on top.
    (tmp_path / "LATEST").write_text("3\n")
    assert store.latest_sequence() == 2
    assert store.load_latest().read_blob("state.bin") == b"two"
    # The next save claims a fresh sequence number above the torn leftover.
    assert store.save({"state.bin": b"four"}, {}) == 4
    assert store.load_latest().read_blob("state.bin") == b"four"


def test_sealed_snapshot_store_derives_its_key_once(tmp_path, monkeypatch):
    import repro.edb.store as store_module

    calls = []

    def counting_derive_key(passphrase, salt):
        calls.append(salt)
        return derive_key(passphrase, salt)

    monkeypatch.setattr(store_module, "derive_key", counting_derive_key)
    store = SnapshotStore(tmp_path, passphrase="pw", keep=2)
    for generation in range(4):
        head = store.save({"state.bin": bytes([generation])})
    assert store.latest_sequence() == head
    assert store.load_latest().read_blob("state.bin") == b"\x03"
    assert len(calls) == 1
    # A second store over the same directory derives its own key, once.
    reopened = SnapshotStore(tmp_path, passphrase="pw")
    assert reopened.latest_sequence() == head
    assert reopened.load_latest().read_blob("state.bin") == b"\x03"
    assert len(calls) == 2


def _supervised_shard(edb, snapshot_every=1, schedule=None):
    return SupervisedShard(
        edb,
        0,
        SupervisorConfig(snapshot_every=snapshot_every, backoff_base_s=0.0),
        schedule,
        WallClockStats(),
        threading.Lock(),
    )


def test_snapshot_store_keeps_every_generation_a_kept_head_references():
    """A supervised shard keeps exactly its newest ``keep`` (2)
    generations.  Each is full, so a kept head references only itself and
    restores alone; the next one is due after max(``snapshot_every``, rows
    the head holds) mutating commands."""
    shard = _supervised_shard(ObliDB(simulate_encryption=True))
    try:
        assert sorted(shard._generations) == [1]  # generation 0: no rows
        shard.setup(_records(3))  # 2: holds 3 rows, so 3 is due 3 later
        assert sorted(shard._generations) == [1, 2]
        for time in range(1, 3):
            shard.query(CountQuery(table="events"), time=time)
        assert sorted(shard._generations) == [1, 2]
        shard.query(CountQuery(table="events"), time=3)
        assert sorted(shard._generations) == [2, 3]
        for seq, blob in shard._generations.items():
            assert restore_backend(blob).outsourced_count == 3
        assert restore_backend(shard._generations[3]).update_history == (
            shard.update_history
        )
    finally:
        shard.close()


def test_a_rotated_shard_recovers_from_the_generation_before_a_torn_one():
    """``rotate_key`` rewrites every row in place and is journaled like any
    command: a recovery from the generation before a torn one replays it
    (with its key) and the rest of the journal, and the rebuilt shard
    matches an unfaulted twin: transcript, key and decrypted rows."""
    edb = ObliDB(simulate_encryption=True)
    twin = ObliDB(simulate_encryption=True)
    shard = _supervised_shard(edb, schedule=parse_fault_schedule("tornsnap@5"))
    try:
        for target in (shard, twin):
            target.setup(_records(4))  # generation 2: 4 rows, 4 due next
            target.insert_many({"events": _records(4, start=4)}, 1)
            target.rotate_key(b"k" * 32)
            target.insert_many({"events": _records(2, start=8)}, 2)
        assert sorted(shard._generations) == [1, 2]
        # At mutation 5 generation 3 is taken and dropped, the live shard
        # crashes, and the rebuild replays mutations 2-4 onto generation 2
        # before the retried insert runs.
        shard.insert_many({"events": _records(2, start=10)}, 3)
        twin.insert_many({"events": _records(2, start=10)}, 3)
        assert 3 not in shard._generations
        assert shard.update_history == tuple(twin.update_history)
        assert shard.live.cipher.key == twin.cipher.key == b"k" * 32
        assert [r.values for r in shard.live.cipher.decrypt_many(
            shard.live.ciphertexts("events")
        )] == [r.values for r in _records(12)]
    finally:
        shard.close()


def test_snapshot_store_sealed_shares_one_salt(tmp_path):
    store = SnapshotStore(tmp_path, passphrase="pw")
    store.save({"state.bin": b"one"}, {})
    store.save({"state.bin": b"two"}, {})
    reopened = SnapshotStore(tmp_path, passphrase="pw")
    assert reopened.load_latest().read_blob("state.bin") == b"two"
    with pytest.raises(StoreIntegrityError):
        SnapshotStore(tmp_path, passphrase="nope").load_latest().read_blob(
            "state.bin"
        )


def test_router_payload_with_a_planner_key_still_restores():
    """Router payloads written before the scatter planner was removed carry
    a ``planner`` key; restore ignores it."""
    router = ShardRouter(
        [ObliDB() for _ in range(2)],
        route_seed=5,
        executor="serial",
    )
    router.setup(_records(12))
    payload = pickle.loads(snapshot_router(router))
    payload["planner"] = "on"
    restored = restore_router(pickle.dumps(payload))
    query = CountQuery(table="events", label="q")
    assert restored.query(query, time=2) == router.query(query, time=2)
    assert restored.table_shard_counts("events") == router.table_shard_counts(
        "events"
    )


def test_router_payload_naming_the_threads_executor_is_refused():
    """The thread-pool executor was deleted; a stored router that names it
    fails to restore with an error that names the two executors left."""
    router = ShardRouter([ObliDB() for _ in range(2)], route_seed=5)
    router.setup(_records(12))
    payload = pickle.loads(snapshot_router(router))
    payload["executor"] = "threads"
    with pytest.raises(ValueError, match=r"\('serial', 'processes'\).*'threads'"):
        restore_router(pickle.dumps(payload))


# -- EDB snapshot codecs ------------------------------------------------------


def test_arena_bytes_round_trip_preserves_rows_and_handles():
    cipher = RecordCipher(key=os.urandom(32))
    arena = CiphertextArena(initial_capacity=4)
    handles = cipher.encrypt_many_into(_records(10), arena)
    rebuilt = arena_from_bytes(*arena_to_bytes(arena))
    assert len(rebuilt) == len(arena)
    assert np.array_equal(rebuilt.as_array(), arena.as_array())
    assert [rebuilt.handle_at(i) for i in range(len(rebuilt))] == [
        arena.handle_at(i) for i in range(len(arena))
    ]
    decrypted = cipher.decrypt_many(rebuilt.records())
    assert [r.values for r in decrypted] == [r.values for r in _records(10)]
    assert handles  # handles stayed live through the round trip


# -- runner checkpoint durability --------------------------------------------


def _checkpoint_runner(tmp_path):
    spec = CellSpec(strategy="dp-timer", scenario="sparse", scale=0.05)
    runner = GridRunner(artifact_dir=tmp_path)
    result = RunResult(strategy="dp-timer", backend="oblidb", epsilon=0.5)
    return runner, spec, result


def test_runner_checkpoint_survives_torn_tmp_file(tmp_path):
    """Regression: a leftover torn ``.tmp`` never shadows or corrupts the
    real checkpoint, and a torn checkpoint itself is skipped cleanly."""
    runner, spec, result = _checkpoint_runner(tmp_path)
    runner._save_checkpoint(spec, result, 1.25)
    path = runner._cell_path(spec)
    assert path.exists()
    assert not list(path.parent.glob("*.tmp"))  # no droppings after success

    # A torn temp file from a killed writer sits next to the checkpoint.
    torn_tmp = path.with_name(path.name + ".tmp")
    torn_tmp.write_text('{"fingerprint": "')
    loaded = runner._load_checkpoint(spec)
    assert loaded is not None
    assert loaded[0].to_dict() == result.to_dict()
    assert loaded[1] == 1.25

    # The checkpoint itself torn mid-JSON -> resume recomputes, no crash.
    path.write_text(path.read_text()[:40])
    assert runner._load_checkpoint(spec) is None

    # A checkpoint from an older spec definition is ignored too.
    runner._save_checkpoint(spec, result, 1.0)
    payload = json.loads(path.read_text())
    payload["fingerprint"] = "f" * 16
    path.write_text(json.dumps(payload))
    assert runner._load_checkpoint(spec) is None


# -- key lifecycle: cipher pickling and rotation ------------------------------


def test_record_cipher_pickles_key_and_handle_counter():
    cipher = RecordCipher(key=os.urandom(32))
    cipher.encrypt_many(_records(5))
    clone = pickle.loads(pickle.dumps(cipher))
    assert clone.key == cipher.key
    assert clone._next_handle == cipher._next_handle
    record = _records(1, start=99)[0]
    assert clone.decrypt(cipher.encrypt(record)).values == record.values


def test_rotation_preserves_handles_and_golden_payloads():
    """Re-keying re-encrypts arena rows in place: same handles, same row
    indices, byte-identical decrypted payloads, old key rejected."""
    edb = ObliDB(simulate_encryption=True)
    edb.setup(_records(40))
    edb.insert_many({"events": _records(20, start=40, time=2)}, time=2)
    old_cipher = edb._cipher
    arena = edb._arenas["events"]
    golden = [
        (view.handle, tuple(sorted(old_cipher.decrypt(view).values.items())))
        for view in arena.records()
    ]
    old_rows = arena.as_array().copy()

    new_cipher = edb.rotate_key()
    assert new_cipher.key != old_cipher.key
    assert edb._cipher is new_cipher

    after = [
        (view.handle, tuple(sorted(new_cipher.decrypt(view).values.items())))
        for view in arena.records()
    ]
    assert after == golden  # handles resolvable, payloads byte-identical
    assert not np.array_equal(arena.as_array(), old_rows)  # rows re-keyed
    with pytest.raises(ValueError):
        old_cipher.decrypt(next(iter(arena.records())))


def test_rotation_to_explicit_key_is_deterministic():
    key = os.urandom(32)
    edb = ObliDB(simulate_encryption=True)
    edb.setup(_records(10))
    edb.rotate_key(key)
    assert edb._cipher.key == key


def test_rotation_refuses_simulated_encryption_off():
    edb = ObliDB()
    edb.setup(_records(10))
    with pytest.raises(RuntimeError):
        edb.rotate_key()


def test_reencrypt_arena_rejects_corrupt_rows():
    cipher = RecordCipher(key=os.urandom(32))
    arena = CiphertextArena(initial_capacity=4)
    cipher.encrypt_many_into(_records(6), arena)
    arena._data[2, 40] ^= 0xFF
    with pytest.raises(ValueError, match="authentication"):
        cipher.reencrypt_arena(arena, cipher.rotated())
