"""A full generation plus the journal replay restores the live shard.

A supervisor generation is a full snapshot of its shard
(:func:`repro.edb.store.snapshot_backend`); what the shard gained since is
the replay journal, so a rebuild is restore-then-replay.  The contract is a
differential: for random sequences of ``setup``, ``insert_many``,
``query`` and ``rotate_key`` -- with random snapshot cadences and a random
torn generation -- the newest generation plus the journal after it must
equal the live shard in transcripts, columns and the next 16 RNG
draws, and a full generation alone must equal it in arena bytes and
handles too.  A mid-stream restore must then answer exactly like the EDB
that never stopped.
"""

from __future__ import annotations

import io
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
from repro.edb.store import restore_backend, snapshot_backend
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
    columns = {
        table: (store.columns, store.arrivals, store.dummies)
        for table, store in edb._executor._columnar.items()
    }
    if not ciphertexts:
        return {
            "handles": {
                table: arena._handles[: len(arena)].tobytes()
                for table, arena in edb._arenas.items()
            },
            "history": edb.update_history,
            "columns": columns,
        }
    return {
        "arenas": {
            table: (arena.as_array().tobytes(), arena._handles[: len(arena)].tobytes())
            for table, arena in edb._arenas.items()
        },
        "history": edb.update_history,
        "columns": columns,
        "key": edb.cipher.key,
        "handles": edb.cipher._next_handle,
        "totals": (edb._table_totals, edb._table_dummies, edb.storage_bytes),
    }


class _ClassRecorder(pickle.Unpickler):
    """Loads a pickle, noting every class it names."""

    def __init__(self, blob: bytes) -> None:
        super().__init__(io.BytesIO(blob))
        self.names: set[tuple[str, str]] = set()

    def find_class(self, module: str, name: str):
        self.names.add((module, name))
        return super().find_class(module, name)


def _classes(blob: bytes) -> set[tuple[str, str]]:
    """Every ``(module, class)`` a snapshot blob's pickle names."""
    recorder = _ClassRecorder(blob)
    recorder.load()
    return recorder.names


def _replayed(shard: SupervisedShard):
    """What a rebuild of ``shard`` would start from right now: its newest
    generation plus the journal entries tagged at or after it."""
    seq = max(shard._generations)
    edb = restore_backend(shard._generations[seq])
    for entry in shard._journal.entries(min_tag=seq):
        getattr(edb, entry["command"])(*entry["args"])
    return edb


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
def test_newest_generation_plus_replay_restores_the_live_shard(
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
        WallClockStats(),
        threading.Lock(),
    )
    twin = BACKENDS[backend](seed)
    try:
        setup_rows = _rows(0, 6, "int")
        assert shard.setup(setup_rows, 0) == twin.setup(setup_rows, 0)
        counter = [len(setup_rows)]
        for time, operation in enumerate(operations, start=1):
            on_shard, on_twin = _apply((shard, twin), operation, time, counter)
            assert on_shard == on_twin
        # The supervised shard itself never diverged from the twin, through
        # any rotation and torn-generation recovery.
        assert _state(shard.live, ciphertexts=False) == _state(
            twin, ciphertexts=False
        )
        rebuilt = _replayed(shard)
        assert _state(rebuilt, ciphertexts=False) == _state(
            shard.live, ciphertexts=False
        )
        # A full generation alone restores the live shard's whole state,
        # and carries its records only as columns and arena rows.
        blob = snapshot_backend(shard.live)
        assert ("repro.edb.records", "Record") not in _classes(blob)
        full = restore_backend(blob)
        assert _state(full) == _state(shard.live)
        assert full.outsourced_count == shard.live.outsourced_count
        for query in QUERIES:
            first, *rest = [edb.query(query, 99) for edb in (rebuilt, full, shard.live)]
            assert all(result == first for result in rest), query.name
        if isinstance(twin, CryptEpsilon):  # the only back-end that draws
            draws = {
                tuple(edb._rng.random(16).tolist())
                for edb in (rebuilt, full, shard.live)
            }
            assert len(draws) == 1
    finally:
        shard.close()


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
    """Take a full generation mid-stream, journal every command after it,
    and rebuild from generation plus replay while queries are running: the
    rebuilt EDB rebuilds its per-plan aggregate state on each plan's first
    query and then answers exactly like the EDB that never stopped --
    modulo and windowed counts over late arrivals included, and through
    dtype promotions after the rebuild too -- with the same transcript.  No
    generation carries that state, nor the executor's lowered-plan cache."""
    live = BACKENDS[backend](5)
    live.setup(_rows(0, 6, "int") + _rows(6, 4, "int", "other"))
    kinds = ["int", "bool", "int", "int", "float", "int", "int", "float", "int"]
    taken_at = (cut + 1) // 2
    blob, journal, counter, rebuilt = None, [], 10, None
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
        commands = [("insert_many", (batch, time))] + [
            ("query", (query, time))
            for query in filter(live.supports, MID_STREAM_QUERIES)
        ]
        targets = [live] if rebuilt is None else [live, rebuilt]
        for command, args in commands:
            first, *rest = [getattr(target, command)(*args) for target in targets]
            assert all(result == first for result in rest), (command, args)
        if blob is not None and rebuilt is None:
            journal.extend(commands)
        if time == taken_at:
            blob = snapshot_backend(live)
            for derived in (b"_folds", b"_Fold", b"_plan_cache", b"_derived"):
                assert derived not in blob, derived
            assert ("repro.edb.records", "Record") not in _classes(blob)
        if time == cut:
            assert live._executor._folds, "the live EDB keeps fold states"
            rebuilt = restore_backend(blob)
            assert rebuilt._executor._folds == {}
            assert rebuilt._executor._plan_cache == {}
            for command, args in journal:
                getattr(rebuilt, command)(*args)
            assert rebuilt.update_history == live.update_history
            if isinstance(live, CryptEpsilon):  # the only back-end that draws
                assert rebuilt._rng.random(4).tolist() == live._rng.random(4).tolist()
    assert len(journal) == (cut - taken_at) * len(commands)
    assert rebuilt.update_history == live.update_history
    assert _state(rebuilt, ciphertexts=False) == _state(live, ciphertexts=False)
