"""Durable encrypted store: snapshot / recovery / rotation wall clock.

Emits ``BENCH_store.json`` at the repository root with one section:

* ``durable_store`` -- for an ObliDB back-end holding
  ``REPRO_BENCH_STORE_RECORDS`` outsourced ciphertexts:

  - ``snapshot_seconds`` / ``snapshot_mb_s``: serializing the back-end
    (arenas as raw bytes) plus the sealed,
    fsync'd, atomically-committed :class:`~repro.edb.store.EncryptedStore`
    write;
  - ``restore_seconds``: cold recovery -- manifest + checksum verification,
    unsealing, and rebuilding a queryable back-end;
  - ``generation_save_seconds``: one :class:`~repro.edb.store.SnapshotStore`
    generation (write + prune), the per-checkpoint cost a persisted
    simulation pays;
  - ``full_generation_seconds`` / ``full_generation_bytes``: a supervisor
    generation (serialized and kept in memory, as the supervisor keeps it)
    of the whole shard once ``GENERATION_UPDATES`` single-record updates
    have grown its update history;
  - ``rotation_seconds`` / ``rotation_rows_per_s``: in-place key rotation
    over every arena row (verify old tag, re-key, re-tag).

The numbers are informational (stamped with :func:`bench_environment`);
the assertions only pin correctness -- the restored twin answers with the
same counts and rotation preserves payloads -- so the bench never flakes
on a slow container.

Knobs: ``REPRO_BENCH_STORE_RECORDS`` (default 4000),
``REPRO_BENCH_STORE_GENERATIONS`` (default 3).
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import bench_environment, emit_report, merge_bench_json
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.store import (
    EncryptedStore,
    SnapshotStore,
    restore_backend,
    snapshot_backend,
)

SCHEMA = Schema(name="events", attributes=("key", "value"))
N_RECORDS = int(os.environ.get("REPRO_BENCH_STORE_RECORDS", "4000"))
N_GENERATIONS = int(os.environ.get("REPRO_BENCH_STORE_GENERATIONS", "3"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"

#: Single-record updates applied before the supervisor generation is timed,
#: so its update history is as long as a streaming shard's.
GENERATION_UPDATES = 1500


def _records(n: int, start: int = 0) -> list[Record]:
    return [
        Record(
            values={"key": i % 97, "value": float(i)},
            arrival_time=1 + i % 500,
            table="events",
        )
        for i in range(start, start + n)
    ]


def _generation(edb) -> dict:
    """Time a supervisor generation of ``edb`` after ``GENERATION_UPDATES``
    single-record updates; check it restores the shard."""
    for offset in range(GENERATION_UPDATES):
        edb.insert_many({"events": _records(1, start=N_RECORDS + offset)}, 501)
    blob, full_s = _timed(lambda: snapshot_backend(edb))
    restored = restore_backend(blob)
    assert restored.update_history == edb.update_history
    return {
        "generation_rows": edb.outsourced_count,
        "generation_updates": GENERATION_UPDATES,
        "full_generation_seconds": full_s,
        "full_generation_bytes": len(blob),
    }


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _run() -> dict:
    edb = ObliDB(simulate_encryption=True)
    edb.setup(_records(N_RECORDS))
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        tmp = Path(tmp)

        blob, serialize_s = _timed(lambda: snapshot_backend(edb))

        def commit():
            store = EncryptedStore(tmp / "store", passphrase="bench")
            store.write_blob("edb.pkl", blob)
            return store.commit({"kind": "bench"})

        _, commit_s = _timed(commit)
        snapshot_s = serialize_s + commit_s
        snapshot_mb = len(blob) / 1e6

        def recover():
            store = EncryptedStore(tmp / "store", passphrase="bench")
            store.manifest()  # checksum + seal verification
            return restore_backend(store.read_blob("edb.pkl"))

        restored, restore_s = _timed(recover)
        assert restored.real_count == edb.real_count
        assert restored.outsourced_count == edb.outsourced_count

        snap = SnapshotStore(tmp / "snaps", passphrase="bench")
        generation_times = []
        for seq in range(N_GENERATIONS):
            _, save_s = _timed(
                lambda: snap.save({"edb.pkl": blob}, {"kind": "bench", "tick": seq})
            )
            generation_times.append(save_s)
        latest, load_s = _timed(snap.load_latest)
        assert latest is not None
        assert latest.manifest()["meta"]["tick"] == N_GENERATIONS - 1
        snap.clear()

    old_cipher = edb.cipher
    sample = edb.ciphertexts("events")[0]
    payload_before = old_cipher.decrypt(sample).values
    _, rotation_s = _timed(edb.rotate_key)
    assert edb.cipher.key != old_cipher.key
    assert edb.cipher.decrypt(edb.ciphertexts("events")[0]).values == payload_before

    rows = edb.outsourced_count
    generation = _generation(edb)
    return {
        "records": N_RECORDS,
        "outsourced_rows": rows,
        "snapshot_bytes": len(blob),
        "snapshot_seconds": snapshot_s,
        "snapshot_mb_s": snapshot_mb / snapshot_s if snapshot_s else None,
        "restore_seconds": restore_s,
        "generation_save_seconds": sum(generation_times) / len(generation_times),
        "generations_kept": 2,
        "load_latest_seconds": load_s,
        "rotation_seconds": rotation_s,
        "rotation_rows_per_s": rows / rotation_s if rotation_s else None,
        **generation,
    }


def test_store_snapshot_restore_rotation(benchmark):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)

    lines = [
        f"Durable store wall clock ({outcome['outsourced_rows']} ciphertext rows, "
        f"{outcome['snapshot_bytes'] / 1e6:.1f} MB snapshot, sealed + fsync'd)",
        "",
        f"  snapshot (serialize + atomic commit)  {outcome['snapshot_seconds'] * 1e3:9.1f} ms"
        f"  ({outcome['snapshot_mb_s']:.0f} MB/s)",
        f"  cold recovery (verify + rebuild)      {outcome['restore_seconds'] * 1e3:9.1f} ms",
        f"  checkpoint generation (keep=2 prune)  {outcome['generation_save_seconds'] * 1e3:9.1f} ms",
        f"  load latest generation                {outcome['load_latest_seconds'] * 1e3:9.1f} ms",
        f"  {'supervisor generation (%d rows)' % outcome['generation_rows']:<38}"
        f"{outcome['full_generation_seconds'] * 1e3:9.1f} ms"
        f"  ({outcome['full_generation_bytes'] / 1e3:.0f} kB)",
        f"  in-place key rotation                 {outcome['rotation_seconds'] * 1e3:9.1f} ms"
        f"  ({outcome['rotation_rows_per_s']:.0f} rows/s)",
    ]
    emit_report("store_durability", "\n".join(lines))

    merge_bench_json(
        OUTPUT_PATH,
        "durable_store",
        {**outcome, "environment": bench_environment()},
    )
