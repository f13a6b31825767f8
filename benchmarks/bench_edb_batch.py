"""EDB batch-path benchmark: per-record vs batched flushes, both backends.

Measures the two layers the fast path rewrote, and emits ``BENCH_edb.json``
at the repository root:

1. **Ingestion protocol** -- ``update()`` once per record vs one
   ``insert_many()`` per flush on both back-ends, with identical
   resulting state (counts, storage, *per-invocation* history is the
   observable difference the strategy chose to make).  An encrypted ObliDB
   case runs the write path the paper cells run: one-record
   ``insert_many()`` calls (the SUR/SET Update, in µs per call) vs 64-record
   flushes (µs per record), each row sealed into the table's arena and
   spot-checked by decryption.
2. **End-to-end** -- a figure-2-style dp-timer cell per back-end via the
   grid runner, once on the columnar EDB and once under the row-interpreter
   oracle (:func:`repro.testing.reference.row_interpreter`), asserting
   bit-identical results and recording the speedup (down-scale with
   ``REPRO_BENCH_EDB_SCALE`` for CI smoke).
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit_report, merge_bench_json
from repro.edb.crypte import CryptEpsilon
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.simulation.runner import CellSpec, run_cell
from repro.testing.reference import row_interpreter

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_edb.json"
#: Scale of the end-to-end section (CI smoke uses e.g. 0.1).
EDB_SCALE = float(os.environ.get("REPRO_BENCH_EDB_SCALE", "0.25"))
FLUSH_SIZE = 64
FLUSHES = 40


def _emit(section: str, payload) -> None:
    merge_bench_json(OUTPUT_PATH, section, payload)


def _records(n: int, table: str = "YellowCab") -> list[Record]:
    rng = np.random.default_rng(0)
    return [
        Record(
            values={"pickupID": int(rng.integers(1, 40)), "pickTime": i},
            arrival_time=i,
            table=table,
        )
        for i in range(n)
    ]


def _update(edb, record: Record, t: int) -> None:
    edb.update([record], time=t)


def _insert_one(edb, record: Record, t: int) -> None:
    edb.insert_many({record.table: [record]}, time=t)


def _ingest_benchmark(backend_name: str, make_edb, step=_update):
    per_flush = _records(FLUSH_SIZE * FLUSHES)

    per_record = make_edb()
    per_record.setup([])
    start = time.perf_counter()
    t = 1
    for record in per_flush:
        step(per_record, record, t)
        t += 1
    per_record_seconds = time.perf_counter() - start

    batched = make_edb()
    batched.setup([])
    start = time.perf_counter()
    for flush in range(FLUSHES):
        rows = per_flush[flush * FLUSH_SIZE : (flush + 1) * FLUSH_SIZE]
        batched.insert_many({"YellowCab": rows}, time=flush + 1)
    batched_seconds = time.perf_counter() - start

    assert batched.outsourced_count == per_record.outsourced_count
    assert batched.storage_bytes == per_record.storage_bytes
    # The batched path reports one Update invocation per flush -- exactly the
    # (time, volume) transcript the strategy decided to reveal.
    assert len(batched.update_history) == FLUSHES + 1
    if batched.cipher is not None:
        for edb in (per_record, batched):
            rows = edb.ciphertexts("YellowCab")
            assert len(rows) == len(per_flush)
            for index in (0, len(per_flush) // 2, len(per_flush) - 1):
                decrypted = edb.cipher.decrypt(rows[index])
                assert decrypted.values == per_flush[index].values
    return {
        "backend": backend_name,
        "records": len(per_flush),
        "per_record_seconds": round(per_record_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(per_record_seconds / max(batched_seconds, 1e-9), 2),
        "per_record_us": round(per_record_seconds / len(per_flush) * 1e6, 2),
        "flush_us_per_record": round(batched_seconds / len(per_flush) * 1e6, 2),
    }


def test_ingestion_per_record_vs_batched_both_backends():
    """insert_many vs per-record update on ObliDB and Crypt-eps, plus the
    encrypted ObliDB write path (one-record insert_many vs flushes)."""
    results = [
        _ingest_benchmark("oblidb", ObliDB),
        _ingest_benchmark(
            "crypte", lambda: CryptEpsilon(rng=np.random.default_rng(3))
        ),
        _ingest_benchmark(
            "oblidb-encrypted",
            lambda: ObliDB(simulate_encryption=True),
            step=_insert_one,
        ),
    ]
    _emit("ingestion", results)
    lines = [
        f"{r['backend']:16s}: per-record {r['per_record_seconds']:7.3f} s "
        f"({r['per_record_us']:6.2f} us/call), batched {r['batched_seconds']:7.3f} s "
        f"({r['flush_us_per_record']:5.2f} us/record, {r['speedup']}x)"
        for r in results
    ]
    emit_report(
        "edb_ingestion_batch",
        f"Batched vs per-record ingestion ({FLUSHES} flushes x {FLUSH_SIZE})\n\n"
        + "\n".join(lines),
    )


def test_end_to_end_fast_vs_reference_both_backends():
    """Figure-2-style dp-timer cells per back-end, columnar vs row interpreter."""
    results = []
    for backend in ("oblidb", "crypte"):
        spec = CellSpec(
            strategy="dp-timer",
            backend=backend,
            scenario="taxi-june",
            scale=EDB_SCALE,
            query_interval=360,
            sim_seed=11,
            backend_seed=12,
            workload_seed=2020,
        )
        run_cell(dataclasses.replace(spec, horizon=10))  # warm scenario cache

        start = time.perf_counter()
        with row_interpreter():
            reference = run_cell(spec)
        reference_seconds = time.perf_counter() - start

        start = time.perf_counter()
        fast = run_cell(spec)
        fast_seconds = time.perf_counter() - start

        assert fast.to_dict() == reference.to_dict(), backend
        results.append(
            {
                "backend": backend,
                "scale": EDB_SCALE,
                "reference": "row_interpreter",
                "reference_seconds": round(reference_seconds, 4),
                "fast_seconds": round(fast_seconds, 4),
                "speedup": round(reference_seconds / max(fast_seconds, 1e-9), 2),
                "sync_count": fast.sync_count,
            }
        )
    _emit("end_to_end", results)
    lines = [
        f"{r['backend']:8s}: reference {r['reference_seconds']:7.3f} s, "
        f"fast {r['fast_seconds']:7.3f} s ({r['speedup']}x)"
        for r in results
    ]
    emit_report(
        "edb_end_to_end",
        f"End-to-end dp-timer, columnar vs row-interpreter EDB (scale={EDB_SCALE})\n\n"
        + "\n".join(lines),
    )
