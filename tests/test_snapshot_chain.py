"""Delta snapshot chains restore exactly what one full snapshot restores.

A supervisor generation ships only the rows appended since its parent
(:func:`repro.edb.store.snapshot_backend` with ``since=<marks>``), and
restore applies the chain from its full base.  The contract is a
differential: for random sequences of ``setup``, ``insert_many``,
``query`` and ``rotate_key`` -- with random snapshot
cadences, random fold points and a random torn generation -- restoring the
chain must equal restoring one full snapshot of the same shard in arena
bytes, handles, transcripts, answers, the next 16 RNG draws and column
dtypes.  A deterministic size check pins the O(rows since the parent) cost.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.edb.crypte import CryptEpsilon
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.edb.router import WallClockStats
from repro.edb.store import (
    StoreIntegrityError,
    restore_backend,
    snapshot_backend,
    snapshot_generation,
)
from repro.fleet.supervisor import SupervisedShard, SupervisorConfig
from repro.query.ast import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    WindowedCountQuery,
)
from repro.query.predicates import RangePredicate
from repro.testing.chaos import parse_fault_schedule

QUERIES = (
    CountQuery(table="events", label="count"),
    CountQuery(table="events", predicate=RangePredicate("value", 2, 40), label="range"),
    GroupByCountQuery(table="events", group_attribute="key", label="by-key"),
    CountQuery(table="other", label="other"),
)

#: Back-end configurations: an L-0 back-end and an L-DP one drawing query
#: noise.
BACKENDS = {
    "oblidb": lambda seed: ObliDB(simulate_encryption=True),
    "crypte": lambda seed: CryptEpsilon(
        rng=np.random.default_rng(seed), simulate_encryption=True
    ),
}

#: Value kinds that promote a consolidated column's dtype mid-run (bool ->
#: int64 -> float64 -> object, the last from ints beyond 64 bits).
_VALUE_KINDS = {
    "int": int,
    "float": float,
    "bool": lambda v: bool(v % 2),
    "huge": lambda v: 2**70 + v,
}


def _rows(start: int, n: int, kind: str, table: str = "events") -> list[Record]:
    cast = _VALUE_KINDS[kind]
    return [
        Record(
            values={"key": (start + i) % 5, "value": cast(start + i)},
            arrival_time=1,
            table=table,
            is_dummy=(start + i) % 9 == 0,
        )
        for i in range(n)
    ]


_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(1, 12),
            st.sampled_from(sorted(_VALUE_KINDS)),
            st.sampled_from(["events", "other"]),
        ),
        st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
        st.tuples(st.just("rotate")),
        st.tuples(st.just("fold")),
    ),
    max_size=30,
)


def _apply(targets, operation, time: int, counter: list[int]) -> list:
    """Run one operation on every target with the same arguments."""
    kind = operation[0]
    if kind == "insert":
        _, n, value_kind, table = operation
        batch = {table: _rows(counter[0], n, value_kind, table)}
        counter[0] += n
        return [target.insert_many(batch, time) for target in targets]
    if kind == "query":
        return [target.query(QUERIES[operation[1]], time) for target in targets]
    if kind == "rotate":
        key = bytes([time % 256]) * 32
        return [target.rotate_key(key) and None for target in targets]
    raise AssertionError(kind)


def _state(edb, ciphertexts: bool = True) -> dict:
    """Everything the differential compares that does not draw randomness.

    Ciphertext bytes carry random nonces, so two shards fed the same
    commands agree on them only when one is restored from the other.
    """
    executor = edb._executor
    columns = {}
    for table, store in executor._columnar.items():
        columns[table] = (
            store.attributes,
            store.uniform,
            store.values,
            store.dummies,
            store._kinds,
            store._built,
            {
                attr: pickle.dumps(buffer[: store._built])
                for attr, buffer in store._buffers.items()
            },
            None
            if store._dummy_buffer is None
            else store._dummy_buffer[: store._built].tolist(),
        )
    if not ciphertexts:
        return {
            "handles": {
                table: arena._handles[: len(arena)].tobytes()
                for table, arena in edb._arenas.items()
            },
            "history": edb.update_history,
            "rows": {table: list(rows) for table, rows in executor.tables.items()},
            "columns": columns,
        }
    return {
        "arenas": {
            table: (arena.as_array().tobytes(), arena._handles[: len(arena)].tobytes())
            for table, arena in edb._arenas.items()
        },
        "history": edb.update_history,
        "rows": {table: list(rows) for table, rows in executor.tables.items()},
        "columns": columns,
        "key": edb.cipher.key,
        "handles": edb.cipher._next_handle,
        "totals": (edb._table_totals, edb._table_dummies, edb.storage_bytes),
    }


def _assert_equivalent(chain_edb, full_edb) -> None:
    assert _state(chain_edb) == _state(full_edb)
    for query in QUERIES:
        assert chain_edb.query(query, 99) == full_edb.query(query, 99)
    if isinstance(full_edb, CryptEpsilon):  # the only back-end that draws
        assert chain_edb._rng.random(16).tolist() == full_edb._rng.random(16).tolist()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    operations=_operations,
    snapshot_every=st.integers(1, 4),
    torn_at=st.one_of(st.none(), st.integers(1, 30)),
    seed=st.integers(0, 2**16),
)
def test_chain_restore_equals_full_restore(
    backend, operations, snapshot_every, torn_at, seed
):
    schedule = (
        parse_fault_schedule(f"tornsnap@{torn_at}") if torn_at is not None else None
    )
    config = SupervisorConfig(snapshot_every=snapshot_every, backoff_base_s=0.0)
    shard = SupervisedShard(
        BACKENDS[backend](seed),
        0,
        config,
        schedule,
        "serial",
        WallClockStats(),
        threading.Lock(),
    )
    twin = BACKENDS[backend](seed)
    try:
        setup_rows = _rows(0, 6, "int")
        assert shard.setup(setup_rows, 0) == twin.setup(setup_rows, 0)
        counter = [len(setup_rows)]
        for time, operation in enumerate(operations, start=1):
            if operation[0] == "fold":
                # Fold at the next generation, wherever the chain is.
                shard._chain_bytes = shard._base_bytes
                continue
            on_shard, on_twin = _apply((shard, twin), operation, time, counter)
            assert on_shard == on_twin
        # One last generation makes the chain head the live state.
        head = shard._snapshot_now()
        chain = shard._chain(head)
        assert shard._generations[chain[0]][0] is None
        chain_edb = restore_backend(*(shard._generations[seq][1] for seq in chain))
        full_edb = restore_backend(snapshot_backend(shard.live))
        # A full generation alone restores the live shard's whole state.
        assert _state(full_edb) == _state(shard.live)
        assert full_edb.outsourced_count == shard.live.outsourced_count
        _assert_equivalent(chain_edb, full_edb)
        # The supervised shard itself never diverged from the twin,
        # through any fold, rotation and torn-generation recovery.
        assert _state(shard.live, ciphertexts=False) == _state(
            twin, ciphertexts=False
        )
    finally:
        shard.close()


def _fleet_edb(n: int) -> ObliDB:
    edb = ObliDB(simulate_encryption=True)
    edb.setup(_rows(0, n, "int"))
    for query in QUERIES[:3]:
        edb.query(query, 1)
    return edb


def _delta_bytes(n: int) -> int:
    """Bytes of a 32-command delta (16 inserts of 4 rows, 16 queries) on a
    shard already holding ``n`` rows."""
    edb = _fleet_edb(n)
    _, marks = snapshot_generation(edb)
    for step in range(16):
        edb.insert_many({"events": _rows(n + 4 * step, 4, "int")}, 2 + step)
        edb.query(QUERIES[step % 3], 2 + step)
    blob, _ = snapshot_generation(edb, marks)
    return len(blob)


def test_delta_size_does_not_grow_with_the_shard():
    small, large = _delta_bytes(1_000), _delta_bytes(8_000)
    assert abs(large - small) <= 0.10 * small, (small, large)
    # ...while a full generation does grow with the shard.
    assert len(snapshot_backend(_fleet_edb(8_000))) > 4 * len(
        snapshot_backend(_fleet_edb(1_000))
    )


def test_a_column_promoted_twice_in_one_delta_restores_exactly():
    """int64 -> float64 -> object inside one delta: the live buffer holds
    floats that went through float64, which only a whole-buffer tail
    reproduces (a prefix cast straight to object would hold ints)."""
    edb = ObliDB(simulate_encryption=True)
    edb.setup(_rows(0, 4, "int"))
    edb.query(QUERIES[1], 1)  # consolidates an int64 "value" column
    base, marks = snapshot_generation(edb)
    for step, kind in enumerate(("float", "huge"), start=2):
        edb.insert_many({"events": _rows(4 * step, 4, kind)}, step)
        edb.query(QUERIES[1], step)
    delta, _ = snapshot_generation(edb, marks)
    column = edb._executor._columnar["events"]._buffers["value"]
    assert column.dtype == object and type(column[0]) is float
    assert _state(restore_backend(base, delta)) == _state(edb)


def test_a_delta_is_never_restored_without_its_base():
    edb = _fleet_edb(20)
    base, marks = snapshot_generation(edb)
    edb.insert_many({"events": _rows(20, 3, "int")}, 2)
    delta, _ = snapshot_generation(edb, marks)
    assert pickle.loads(delta)["since"] == marks
    restored = restore_backend(base, delta)
    assert _state(restored) == _state(edb)
    with pytest.raises(StoreIntegrityError, match="parent chain"):
        restore_backend(delta)
    # A delta applied to a base it does not extend is refused too.
    edb.insert_many({"events": _rows(23, 2, "int")}, 3)
    later, _ = snapshot_generation(edb, marks)
    with pytest.raises(StoreIntegrityError, match="does not extend"):
        restore_backend(base, delta, later)


#: Queries whose answers the executor folds from per-plan aggregate state.
FOLDED_QUERIES = QUERIES + (
    JoinCountQuery(
        left_table="events",
        right_table="other",
        left_attribute="key",
        right_attribute="key",
        label="join",
    ),
    JoinCountQuery(
        left_table="events",
        right_table="events",
        left_attribute="key",
        right_attribute="value",
        left_predicate=RangePredicate("value", 0, 30),
        label="self-join",
    ),
)


#: Shapes asked next to the folds: a modulo count shares the count fold,
#: and windowed counts rescan the rows.
MID_STREAM_QUERIES = FOLDED_QUERIES + (
    ModCountQuery(
        table="events", modulus=3, predicate=RangePredicate("value", 2, 40), label="mod"
    ),
    WindowedCountQuery(table="events", window=2, label="sliding"),
    WindowedCountQuery(table="other", window=3, mode="tumbling", label="tumbling"),
)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("cut", [1, 3, 7])
def test_a_chain_restored_mid_stream_answers_like_the_uninterrupted_edb(
    backend, cut
):
    """Restore a full generation plus its deltas while queries are running:
    the restored EDB rebuilds its per-plan aggregate state on each plan's
    first query and then answers exactly like the EDB that never stopped --
    modulo and windowed counts over late arrivals included, and through
    dtype promotions after the restore too.  No generation carries
    that state, nor the executor's lowered-plan cache."""
    live = BACKENDS[backend](5)
    live.setup(_rows(0, 6, "int") + _rows(6, 4, "int", "other"))
    kinds = ["int", "bool", "int", "int", "float", "int", "int", "float", "int"]
    blobs, marks, counter, restored = [], None, 10, None
    for time, kind in enumerate(kinds, start=1):
        table = "other" if time % 3 == 0 else "events"
        # Arrivals up to two ticks late, so the windows move.
        batch = {
            table: [
                replace(row, arrival_time=max(time - row.values["key"] % 3, 1))
                for row in _rows(counter, 5, kind, table)
            ]
        }
        counter += 5
        targets = [live] if restored is None else [live, restored]
        first, *rest = [target.insert_many(batch, time) for target in targets]
        assert all(result == first for result in rest)
        for query in filter(live.supports, MID_STREAM_QUERIES):
            first, *rest = [target.query(query, time) for target in targets]
            assert all(result == first for result in rest), query.name
        if restored is None:
            blob, marks = snapshot_generation(live, marks)
            blobs.append(blob)
            for derived in (b"_folds", b"_Fold", b"_plan_cache"):
                assert derived not in blob, derived
        if time == cut:
            assert live._executor._folds, "the live EDB keeps fold states"
            restored = restore_backend(*blobs)
            assert restored._executor._folds == {}
            assert restored._executor._plan_cache == {}
            if isinstance(live, CryptEpsilon):  # the only back-end that draws
                assert restored._rng.random(4).tolist() == live._rng.random(4).tolist()
    assert len(blobs) == cut
    assert _state(restored, ciphertexts=False) == _state(live, ciphertexts=False)
