"""Durable encrypted store: sealing, manifests, snapshots, key lifecycle.

Covers the :mod:`repro.edb.store` layers bottom-up -- blob sealing, the
atomic :class:`EncryptedStore` directory with its write-manifest-last
protocol, the generational :class:`SnapshotStore` -- plus the durability
bugfixes that ride along in the same PR:

* the grid runner's checkpoint writes are fsync'd-atomic, and a torn
  leftover ``.tmp`` (or a torn checkpoint itself) is skipped cleanly on
  resume instead of poisoning it;
* :class:`~repro.edb.crypto.RecordCipher` pickles (key + handle counter)
  and rotates: re-keying an EDB re-encrypts every arena row in place
  without invalidating handles, with decrypted payloads byte-identical
  and the *old* key failing authentication afterwards;
* :class:`~repro.edb.crypto.ArenaSegmentCache` ignores out-of-order
  (stale-generation) publishes, so handles into the newest segment keep
  resolving.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import stat
import threading

import numpy as np
import pytest

from repro.edb.crypto import (
    NONCE_SIZE,
    TAG_SIZE,
    ArenaSegmentCache,
    CiphertextArena,
    RecordCipher,
    SharedCiphertextArena,
)
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
    snapshot_backend,
    snapshot_marks,
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
def test_salt_blobs_and_journal_records_are_owner_only(tmp_path, passphrase):
    store = EncryptedStore(tmp_path / "store", passphrase=passphrase)
    store.write_blob("owners.pkl", b"plaintext client state")
    store.commit()
    journal = ReplayLog(tmp_path / "journal", passphrase=passphrase)
    journal.append({"command": "insert_many", "tag": 1})
    written = [tmp_path / "store" / "owners.pkl"]
    written += list((tmp_path / "journal" / "segments").iterdir())
    if passphrase is not None:
        written += [tmp_path / "store" / "salt.bin", tmp_path / "journal" / "salt.bin"]
        store.change_passphrase("new")
    assert written and all(_private(path) for path in written)


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


@pytest.mark.parametrize("version", [1, 2, 3])
def test_earlier_manifest_versions_are_refused(tmp_path, version):
    """Stores of an earlier format are refused with their version named, not
    misread: version 1 predates AES-GCM, version 2 delta generations (no
    ``parent``), version 3 arena-only ciphertexts (its deltas carry
    per-record object tails)."""
    store = EncryptedStore(tmp_path)
    store.write_blob("a.bin", b"alpha")
    manifest = store.commit()
    assert manifest["version"] == STORE_VERSION == 4
    assert manifest["parent"] is None
    manifest["version"] = version
    if version < 3:
        del manifest["parent"]
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(
        StoreIntegrityError, match=f"manifest version {version} is not 4"
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
    head = store.save({"state.bin": b"base"})
    for delta in range(3):
        head = store.save({"state.bin": bytes([delta])}, parent=head)
    assert store.latest_sequence() == head
    assert [s.read_blob("state.bin") for s in store.load_chain()] == [
        b"base", b"\x00", b"\x01", b"\x02",
    ]
    assert len(calls) == 1
    # A second store over the same directory derives its own key, once.
    reopened = SnapshotStore(tmp_path, passphrase="pw")
    assert reopened.latest_sequence() == head
    assert len(reopened.load_chain()) == 4
    assert len(calls) == 2


def _parents(store: SnapshotStore) -> dict:
    return {
        seq: store._open(seq).manifest()["parent"]
        for seq in store._sequence_numbers()
    }


def test_snapshot_store_keeps_every_generation_a_kept_head_references(tmp_path):
    store = SnapshotStore(tmp_path, keep=2)
    head = store.save({"state.bin": b"base"})
    for delta in range(4):
        head = store.save({"state.bin": bytes([delta])}, parent=head)
    # Heads 5 and 4 both extend the chain from full generation 1.
    assert _parents(store) == {1: None, 2: 1, 3: 2, 4: 3, 5: 4}
    assert [s.read_blob("state.bin") for s in store.load_chain()] == [
        b"base", b"\x00", b"\x01", b"\x02", b"\x03",
    ]
    # A fold starts a new chain; once two heads sit on it, the old one goes.
    store.save({"state.bin": b"fold"})
    assert sorted(_parents(store)) == [1, 2, 3, 4, 5, 6]
    store.save({"state.bin": b"next"}, parent=6)
    assert _parents(store) == {6: None, 7: 6}
    assert [s.read_blob("state.bin") for s in store.load_chain()] == [
        b"fold", b"next",
    ]


def test_delta_with_missing_or_torn_parent_is_never_restored(tmp_path):
    store = SnapshotStore(tmp_path, keep=3)
    store.save({"state.bin": b"one"})
    store.save({"state.bin": b"two"}, parent=1)
    store.save({"state.bin": b"three"}, parent=2)
    assert store.latest_sequence() == 3
    # Tear the middle generation: head 3 loses its chain, and so does 2.
    (tmp_path / "snapshots" / "00000002" / "MANIFEST.json").unlink()
    assert store.latest_sequence() == 1
    assert [s.read_blob("state.bin") for s in store.load_chain()] == [b"one"]
    with pytest.raises(StoreIntegrityError):
        store.load_chain(3)
    with pytest.raises(StoreIntegrityError):
        store.save({"state.bin": b"orphan"}, parent=2)
    # A missing base is as fatal as a torn one.
    store.save({"state.bin": b"four"}, parent=1)
    shutil.rmtree(tmp_path / "snapshots" / "00000001")
    assert store.latest_sequence() is None
    assert store.load_chain() == []


def _supervised_shard(tmp_path, edb, snapshot_every=1, schedule=None):
    return SupervisedShard(
        edb,
        0,
        SupervisorConfig(snapshot_every=snapshot_every, backoff_base_s=0.0),
        schedule,
        "serial",
        WallClockStats(),
        threading.Lock(),
        tmp_path,
    )


def test_oram_shard_writes_only_full_generations(tmp_path):
    edb = ObliDB(
        rng=np.random.default_rng(3), simulate_encryption=True, storage_mode="oram"
    )
    assert snapshot_marks(edb) is None
    with pytest.raises(ValueError, match="ORAM"):
        snapshot_backend(edb, since={})
    shard = _supervised_shard(tmp_path, edb)
    try:
        shard.setup(_records(6))
        for time in range(1, 4):
            shard.insert_many({"events": _records(2, start=6 + 2 * time)}, time)
        parents = _parents(shard._store)
        assert len(parents) == 2 and set(parents.values()) == {None}
    finally:
        shard.close()


def test_setup_starts_a_new_chain(tmp_path):
    """Setup fills the near-empty generation 0, so the generation after it
    is full and the next one a delta of it -- not a delta that outgrows its
    base and forces a fold right after."""
    edb = ObliDB(rng=np.random.default_rng(3), simulate_encryption=True)
    shard = _supervised_shard(tmp_path, edb)
    try:
        shard.setup(_records(40))  # generation 2: full
        assert _parents(shard._store) == {1: None, 2: None}
        shard.insert_many({"events": _records(2, start=40)}, 1)  # 3: a delta
        assert _parents(shard._store) == {2: None, 3: 2}
        chain = [s.read_blob("shard.pkl") for s in shard._store.load_chain()]
        assert restore_backend(*chain).update_history == shard.update_history
    finally:
        shard.close()


def test_rotated_and_recovered_shards_start_a_new_chain(tmp_path):
    """After rotate_key every row was rewritten, and after a recovery the
    shard has replayed past its head: either way the next generation is
    full, and the chain restores the live shard exactly."""
    edb = ObliDB(rng=np.random.default_rng(3), simulate_encryption=True)
    shard = _supervised_shard(
        tmp_path, edb, schedule=parse_fault_schedule("tornsnap@5")
    )
    try:
        shard.setup(_records(40))  # generation 2: full
        # 3: a delta as large as its base, so 4 folds the chain.
        shard.insert_many({"events": _records(80, start=40)}, 1)
        shard.insert_many({"events": _records(2, start=120)}, 2)
        assert _parents(shard._store) == {2: None, 3: 2, 4: None}
        shard.rotate_key(b"k" * 32)  # 5: full
        assert _parents(shard._store) == {4: None, 5: None}
        # 6 is written and torn, the live shard crashes and is rebuilt from
        # 5 plus the journal, and the retried insert writes full 7.
        shard.insert_many({"events": _records(2, start=122)}, 3)
        assert shard._store.latest_sequence() == 7
        assert _parents(shard._store) == {5: None, 7: None}
        shard.insert_many({"events": _records(2, start=124)}, 4)  # 8: a delta
        assert _parents(shard._store) == {7: None, 8: 7}
        chain = [s.read_blob("shard.pkl") for s in shard._store.load_chain()]
        assert restore_backend(*chain).update_history == shard.update_history
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
        [ObliDB(rng=np.random.default_rng(i)) for i in range(2)],
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


def test_backend_snapshot_verifies_oram_position_maps():
    edb = ObliDB(
        rng=np.random.default_rng(7),
        simulate_encryption=True,
        storage_mode="oram",
    )
    edb.setup(_records(25))
    blob = snapshot_backend(edb)
    restored = restore_backend(blob)
    assert restored.outsourced_count == edb.outsourced_count
    assert restored.update_history == edb.update_history

    # Corrupting the recorded position-map checksum is caught on restore.
    payload = pickle.loads(blob)
    (table,) = payload["oram_maps"]
    payload["oram_maps"][table]["checksum"] = "0" * 64
    with pytest.raises(StoreIntegrityError):
        restore_backend(pickle.dumps(payload))


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
    edb = ObliDB(rng=np.random.default_rng(3), simulate_encryption=True)
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
    edb = ObliDB(rng=np.random.default_rng(3), simulate_encryption=True)
    edb.setup(_records(10))
    edb.rotate_key(key)
    assert edb._cipher.key == key


def test_rotation_refuses_simulated_encryption_off():
    edb = ObliDB(rng=np.random.default_rng(3))
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


# -- segment cache: out-of-order generation guard -----------------------------


def test_segment_cache_ignores_stale_generation_publish():
    """A re-delivered older-generation publish must not evict the newer
    segment: handles resolved through the cache keep pointing at the
    newest rows."""
    cipher = RecordCipher(key=os.urandom(32))
    arena = SharedCiphertextArena(initial_capacity=4)
    cache = ArenaSegmentCache()
    try:
        cipher.encrypt_many_into(_records(4), arena)
        old_state = arena.export_state()
        assert old_state["generation"] >= 1
        # Growth moves the arena into a fresh, later-generation segment.
        cipher.encrypt_many_into(_records(8, start=4, time=2), arena)
        new_state = arena.export_state()
        assert new_state["generation"] > old_state["generation"]

        view = cache.publish(new_state)
        fresh = [bytes(r.ciphertext) for r in view.records()]
        # The stale publish (e.g. an out-of-order message) is ignored.
        stale_view = cache.publish(old_state)
        assert len(stale_view) == len(view)
        assert [bytes(r.ciphertext) for r in stale_view.records()] == fresh
        assert cipher.decrypt(stale_view.records()[11]).values["value"] == 11
    finally:
        cache.close()
        arena.release()
