"""Unit tests for the self-healing shard supervisor and its plumbing.

The byte-identity of supervised recovery against fault-free twins lives in
``tests/test_chaos_recovery.py``; this suite pins the building blocks:

* the unified per-command pipe deadline (``REPRO_SHARD_TIMEOUT_S`` /
  constructor arg) and the typed timeout it produces;
* deterministic backoff jitter (same seed => same sleep schedule);
* the in-memory :class:`~repro.edb.store.ReplayLog` (one segment per
  flush, pruned a whole segment at a time, staged entries never pruned);
* the retry budget (``max_retries=0`` fails fast, a spent budget
  re-raises) and the health counters it moves;
* monotonic worker stats across rebuild generations, and a graceful
  ``close()`` that leaves nothing for the resource tracker to clean up;
* bounded recovery state: a shard keeps only its ``keep`` newest (full)
  generations and the journal its oldest fallback can replay, takes the
  next generation after max(``snapshot_every``, rows the head holds)
  mutating commands -- so a rebuild replays at most that many and the
  generation count grows with the log of the rows -- and a supervised run
  writes no file;
* the declared shard surface: every wrapper exposes exactly its entries,
  the worker refuses any other name, the supervisor journals exactly the
  mutating ones.
"""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.edb.base import (
    CALL,
    FACT,
    MIRROR,
    MUTATE,
    SHARD_SURFACE,
    EncryptedDatabase,
    surface_names,
)
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.router import ShardRouter, WallClockStats
from repro.edb.shard_worker import (
    DEFAULT_SHARD_TIMEOUT_S,
    ShardWorkerClient,
    ShardWorkerTimeout,
    TransientShardError,
    default_shard_timeout,
)
from repro.edb.store import ReplayLog
from repro.fleet.supervisor import (
    ShardSupervisor,
    SupervisedShard,
    SupervisorConfig,
    resolve_supervisor_mode,
)
from repro.query.ast import CountQuery
from repro.testing.chaos import ChaosWorkerFault, FaultSchedule, parse_fault_schedule

SCHEMA = Schema(name="events", attributes=("key", "value"))
QUERY = CountQuery(table="events", label="Q1")


def _records(n: int, start: int = 0, time: int = 1) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 7, "value": start + i},
            arrival_time=time,
            table="events",
        )
        for i in range(n)
    ]


def _edb(seed: int = 7) -> ObliDB:
    return ObliDB()


def _supervised(
    config: SupervisorConfig | None = None,
    schedule: FaultSchedule | None = None,
    health: WallClockStats | None = None,
    seed: int = 7,
) -> SupervisedShard:
    return SupervisedShard(
        _edb(seed),
        0,
        config or SupervisorConfig(),
        schedule,
        health if health is not None else WallClockStats(),
        threading.Lock(),
    )


# -- the unified pipe deadline -------------------------------------------------


def test_default_shard_timeout_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_TIMEOUT_S", raising=False)
    assert default_shard_timeout() == DEFAULT_SHARD_TIMEOUT_S
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "12.5")
    assert default_shard_timeout() == 12.5
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "0")
    with pytest.raises(ValueError):
        default_shard_timeout()
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "-3")
    with pytest.raises(ValueError):
        default_shard_timeout()


def test_wedged_worker_times_out_with_typed_error():
    """A worker that oversleeps its reply turns into ShardWorkerTimeout
    naming the shard, the command and the deadline -- never a hang."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    client = ShardWorkerClient(_edb(), 0, context, timeout_s=0.3)
    try:
        client.setup(_records(5))
        client.chaos_delay(5.0)  # arm: oversleep the next real command
        with pytest.raises(ShardWorkerTimeout) as excinfo:
            client.query(QUERY, time=1)
        assert excinfo.value.shard_index == 0
        assert excinfo.value.command == "query"
        assert excinfo.value.timeout_s == 0.3
        assert "0.3s" in str(excinfo.value)
    finally:
        # The worker is desynchronized on purpose; a supervisor would kill
        # and rebuild it, which is what close() degenerates to here.
        client.process.kill()
        client.process.join(timeout=5.0)
        client.close()


def test_supervisor_config_validation_and_meta_roundtrip():
    with pytest.raises(ValueError):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorConfig(timeout_s=0.0)
    with pytest.raises(ValueError):
        resolve_supervisor_mode("maybe")
    assert resolve_supervisor_mode("ON") == "on"
    config = SupervisorConfig(timeout_s=1.5, max_retries=5, seed=3)
    rebuilt = SupervisorConfig.from_meta(config.to_meta())
    assert rebuilt == config
    # Metadata saved while recovery state lived in a scratch directory
    # still carries its path, which is ignored.
    scratch = {**config.to_meta(), "directory": "/dev/shm/repro-supervisor-1-x"}
    assert SupervisorConfig.from_meta(scratch) == config
    # Metadata persisted with the retired on_shard_failure policy: "recover"
    # is the only behaviour left, "raise" means no retries, and "degrade"
    # (zeros for a lost shard) is refused by name.
    legacy = dict(config.to_meta())
    recover = {**legacy, "on_shard_failure": "recover"}
    assert SupervisorConfig.from_meta(recover) == rebuilt
    assert SupervisorConfig.from_meta(
        {**legacy, "on_shard_failure": "raise"}
    ) == SupervisorConfig(timeout_s=1.5, max_retries=0, seed=3)
    with pytest.raises(ValueError, match="degrade"):
        SupervisorConfig.from_meta({**legacy, "on_shard_failure": "degrade"})


# -- deterministic backoff -----------------------------------------------------


def test_backoff_schedule_is_deterministic_per_seed_and_shard():
    """The jitter stream is SeedSequence([seed, shard])-derived: the same
    coordinates replay the same sleep schedule; different shards diverge."""
    config = SupervisorConfig(seed=11, backoff_base_s=0.05, backoff_cap_s=2.0)

    def schedule(shard_index: int) -> list[float]:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), int(shard_index)])
        )
        sleeps = []
        for attempt in (1, 2, 3, 4, 5, 6, 7):
            base = config.backoff_base_s * (2.0 ** (attempt - 1))
            delay = min(config.backoff_cap_s, base)
            sleeps.append(delay * (0.5 + 0.5 * float(rng.random())))
        return sleeps

    assert schedule(0) == schedule(0)
    assert schedule(0) != schedule(1)
    # Exponential growth capped at backoff_cap_s, jitter within [0.5, 1.0).
    sleeps = schedule(0)
    for attempt, sleep in enumerate(sleeps, start=1):
        delay = min(config.backoff_cap_s, config.backoff_base_s * 2 ** (attempt - 1))
        assert 0.5 * delay <= sleep < delay


def test_wrapper_backoff_draws_from_the_seeded_stream(monkeypatch):
    config = SupervisorConfig(seed=11, backoff_base_s=0.05, backoff_cap_s=2.0)
    slept: list[float] = []
    monkeypatch.setattr(
        "repro.fleet.supervisor._time.sleep", lambda s: slept.append(s)
    )
    schedule = parse_fault_schedule("raise@1,raise@2,raise@3")
    shard = _supervised(config=config, schedule=schedule)
    try:
        shard.setup(_records(6))  # fault 1 -> one backoff + recovery
        shard.update(_records(3, start=6), 1)  # fault 2
        shard.update(_records(3, start=9), 2)  # fault 3
    finally:
        shard.close()
    rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
    expected = [0.05 * (0.5 + 0.5 * float(rng.random())) for _ in range(3)]
    assert slept == expected


# -- the in-memory replay journal -----------------------------------------------


def test_replay_log_append_entries_prune():
    log = ReplayLog()
    for tag, command in [(0, "setup"), (0, "update"), (1, "update"), (2, "query")]:
        log.stage({"tag": tag, "command": command, "args": ()})
        log.flush()
    assert len(log) == 4
    assert [e["command"] for e in log.entries()] == [
        "setup", "update", "update", "query",
    ]
    assert [e["command"] for e in log.entries(min_tag=1)] == ["update", "query"]
    assert log.prune(min_tag=1) == 2
    assert len(log) == 2
    assert [e["tag"] for e in log.entries()] == [1, 2]


def test_replay_log_staged_entries_are_visible_but_not_durable():
    """stage() feeds the live coordinator's replay immediately; flush()
    closes the entries staged since the last one into one segment, the unit
    prune drops.  Nothing is written at rest: the journal dies with the
    coordinator."""
    log = ReplayLog()
    log.stage({"tag": 0, "command": "setup", "args": ()})
    assert log.flush() == 1
    for command in ("update", "query"):
        log.stage({"tag": 0, "command": command, "args": ()})
    assert [e["command"] for e in log.entries()] == ["setup", "update", "query"]
    assert log.flush() == 2
    assert log.flush() == 0  # idempotent once drained
    assert log._segments == [1, 2]


def test_replay_log_prune_of_staged_entries_keeps_head_well_formed():
    """Prune drops whole closed segments only: a segment survives while any
    of its entries may be replayed, and staged entries are never pruned."""
    log = ReplayLog()
    log.stage({"tag": 0, "command": "setup", "args": ()})
    log.stage({"tag": 1, "command": "update", "args": ()})
    assert log.prune(min_tag=1) == 0  # nothing closed yet
    log.flush()  # one segment holding tags 0 and 1
    log.stage({"tag": 2, "command": "query", "args": ()})
    log.flush()
    assert log.prune(min_tag=1) == 0  # the first segment still holds tag 1
    assert log.prune(min_tag=2) == 2
    assert [e["tag"] for e in log.entries()] == [2]
    log.stage({"tag": 2, "command": "update", "args": ()})
    assert log.prune(min_tag=3) == 1  # the staged tag-2 entry stays
    assert [e["tag"] for e in log.entries()] == [2]
    log.flush()
    assert len(log) == 1
    assert log._segments == [1]


# -- retry budget --------------------------------------------------------------


def test_raise_policy_fails_fast():
    """max_retries=0: the first transient error propagates, no rebuild."""
    schedule = parse_fault_schedule("raise@2")
    health = WallClockStats()
    shard = _supervised(
        config=SupervisorConfig(max_retries=0),
        schedule=schedule,
        health=health,
    )
    try:
        shard.setup(_records(6))
        with pytest.raises(ChaosWorkerFault):
            shard.update(_records(3, start=6), 1)
        assert health.retries == 0
        assert health.recoveries == 0
    finally:
        shard.close()


def test_recover_policy_reraises_after_retry_budget(monkeypatch):
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)

    def poisoned(self, records, time=0):
        raise TransientShardError(0, "setup", "persistently poisoned")

    monkeypatch.setattr(ObliDB, "setup", poisoned)
    health = WallClockStats()
    shard = _supervised(
        config=SupervisorConfig(max_retries=2),
        health=health,
    )
    try:
        with pytest.raises(TransientShardError):
            shard.setup(_records(6))
        assert health.retries == 2
        assert health.recoveries == 2
    finally:
        shard.close()


# -- recovery bookkeeping ------------------------------------------------------


def test_recovery_replays_journal_and_counts_health(monkeypatch):
    """An injected mid-batch fault rebuilds the shard from snapshot+journal;
    the observables match an unfaulted twin and the health ledger records
    exactly one recovery with the replayed batch count."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    health = WallClockStats()
    shard = _supervised(schedule=parse_fault_schedule("raise@4"), health=health)
    twin = _edb(seed=7)
    try:
        for target in (shard, twin):
            target.setup(_records(10))
            target.update(_records(3, start=10), 1)
            target.update(_records(3, start=13), 2)
            target.update(_records(3, start=16), 3)  # shard: faulted + healed
        assert shard.update_history == tuple(twin.update_history)
        assert shard.outsourced_count == twin.outsourced_count
        assert shard.query(QUERY, time=4).answer == twin.query(QUERY, time=4).answer
        assert health.recoveries == 1
        assert health.retries == 1
        # Generation 0 is pre-setup, so the replay covers every mutating
        # command journaled before the fault: setup + two updates.
        assert health.replayed_batches == 3
        assert health.recovery_seconds > 0.0
    finally:
        shard.close()


def test_a_raise_fault_on_a_query_tears_the_live_shard(monkeypatch):
    """The ``raise`` fault half-applies its command before raising: for a
    query that is one extra query on the live shard (a torn RNG stream on an
    L-DP back-end), which the rebuild then discards."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    shard = _supervised(schedule=parse_fault_schedule("raise@3"))
    twin = _edb()
    try:
        for target in (shard, twin):
            target.setup(_records(10))
            target.update(_records(3, start=10), 1)
        torn = shard.live
        ran = []
        real_query = torn.query
        torn.query = lambda *args: ran.append(args) or real_query(*args)
        assert shard.query(QUERY, time=2).answer == twin.query(QUERY, time=2).answer
        assert ran == [(QUERY, 2)]
        assert shard.live is not torn
        assert shard.update_history == twin.update_history
    finally:
        shard.close()


EXECUTORS = ("serial", "processes")


def _recording_restores(monkeypatch) -> list:
    """Every EDB a recovery restores from a generation, before its replay."""
    from repro.fleet import supervisor

    restored = []
    real_restore = supervisor.restore_backend
    monkeypatch.setattr(
        supervisor,
        "restore_backend",
        lambda blob: restored.append(real_restore(blob)) or restored[-1],
    )
    return restored


def test_snapshot_cadence_bounds_replay(monkeypatch):
    """A rebuild replays the journal since the newest generation, which is
    at most max(snapshot_every, rows that generation holds) commands -- not
    the whole history -- on every executor."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    restored = _recording_restores(monkeypatch)
    config = SupervisorConfig(timeout_s=10.0, snapshot_every=2)
    for executor in EXECUTORS:
        restored.clear()
        twin = ShardRouter([_edb() for _ in range(2)], route_seed=3)
        router = ShardRouter(
            [_edb() for _ in range(2)],
            route_seed=3,
            executor=executor,
            supervisor=config,
            faults="raise:0@90",
        )
        try:
            for target in (router, twin):
                target.setup(_records(10))
                for t in range(1, 60):
                    target.update(_records(2, start=10 + 2 * t, time=t), t)
                    target.query(QUERY, time=t)
            assert router.query(QUERY, time=60) == twin.query(QUERY, time=60)
            assert router.update_history == twin.update_history
            health = router.measured
            assert health.recoveries == 1 and len(restored) == 1, executor
            head_rows = restored[0].outsourced_count
            assert head_rows > config.snapshot_every  # the cadence has grown
            assert 1 <= health.replayed_batches <= head_rows, executor
            assert health.replayed_batches < router.shards[0]._mutation_count
        finally:
            router.close()
            twin.close()


def test_supervised_stats_stay_monotonic_across_rebuilds(monkeypatch):
    """Killing and healing a process-executor shard must not reset its
    (busy, overhead, commands) counters -- the router's delta absorption
    depends on monotonicity."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    router = ShardRouter(
        [ObliDB() for _ in range(2)],
        route_seed=3,
        executor="processes",
        supervisor=SupervisorConfig(timeout_s=10.0),
    )
    try:
        router.setup(_records(20))
        before = router.shards[0].stats()
        router.shards[0].process.kill()
        router.shards[0].process.join(timeout=5.0)
        router.query(QUERY, time=1)  # heals shard 0 mid-sweep
        after = router.shards[0].stats()
        assert router.measured.recoveries == 1
        assert after[2] > before[2]  # command count kept growing
        assert after[0] >= before[0] and after[1] >= before[1]
    finally:
        router.close()


def test_supervisor_close_drops_every_shards_recovery_state():
    """Each wrapper keeps its generations and journal in memory from
    the moment it is supervised; close() tears the live shard down and
    drops both."""
    supervisor = ShardSupervisor(
        SupervisorConfig(), None, WallClockStats(), context=None
    )
    wrapped = supervisor.wrap([_edb(seed=1), _edb(seed=2)])
    wrapped[0].setup(_records(4))
    assert all(list(s._generations) == [1] for s in wrapped)
    assert len(wrapped[0]._journal) == 1
    supervisor.close()
    assert all(s.live is None for s in wrapped)
    assert all(not s._generations and not len(s._journal) for s in wrapped)
    supervisor.close()  # idempotent


@pytest.mark.parametrize("executor", EXECUTORS)
def test_recovery_state_is_bounded_by_keep_and_the_previous_head(
    executor, monkeypatch
):
    """After a long run and one recovery, every shard holds only its
    ``keep`` newest generations -- the head last -- and the journal entries
    its oldest fallback, the previous head, can replay."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    config = SupervisorConfig(timeout_s=10.0, snapshot_every=4, keep=2)
    router = ShardRouter(
        [_edb() for _ in range(2)],
        route_seed=3,
        executor=executor,
        supervisor=config,
        faults="raise:0@17",
    )
    try:
        router.setup(_records(20))
        for time in range(1, 25 * config.snapshot_every + 1):
            router.query(QUERY, time=time)
            if time % 3 == 0:
                router.update(_records(2, start=20 + time, time=time), time)
        assert router.measured.recoveries == 1
        for shard in router.shards:
            assert shard._mutation_count >= 25 * config.snapshot_every
            seqs = sorted(shard._generations)
            assert len(seqs) == config.keep
            assert seqs[-1] == shard._snapshot_seq > config.keep
            previous = seqs[-2]
            tags = [entry["tag"] for entry in shard._journal.entries()]
            assert tags and min(tags) >= previous
            # The journal is no longer than the two cadences it spans.
            assert len(tags) <= 2 * max(
                config.snapshot_every, shard.outsourced_count
            )
    finally:
        router.close()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_generations_grow_logarithmically_with_rows(executor):
    """At the default cadence floor of 32, a shard whose rows keep growing
    takes O(log rows) generations over a long run -- each one is due only
    once as many commands as the head holds rows have passed -- where a
    fixed every-32-commands cadence would take one per 32 commands."""
    config = SupervisorConfig(timeout_s=10.0)
    assert config.snapshot_every == 32
    router = ShardRouter(
        [_edb() for _ in range(2)],
        route_seed=3,
        executor=executor,
        supervisor=config,
    )
    try:
        router.setup(_records(8))
        for time in range(1, 1201):
            router.update(_records(6, start=8 + 6 * time, time=time), time)
            router.query(QUERY, time=time)
            if time % 300 == 0:
                for shard in router.shards:
                    generations = shard._snapshot_seq  # generation 0 is 1
                    rows = shard.outsourced_count
                    assert generations <= 2 * math.log2(rows), (time, rows)
        for shard in router.shards:
            commands = shard._mutation_count
            assert commands > 2000
            assert shard._snapshot_seq < commands / 32 / 4
    finally:
        router.close()


def test_supervised_close_shuts_workers_down_gracefully():
    """close() gives a healthy worker its shutdown handshake: the run exits
    cleanly, with nothing left for the resource tracker to warn about.  Only
    a worker being replaced is killed."""
    script = """
import numpy as np
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.edb.router import ShardRouter

records = [
    Record(values={"key": i % 7, "value": i}, arrival_time=1, table="events")
    for i in range(30)
]
for trial in range(3):
    router = ShardRouter(
        [
            ObliDB(simulate_encryption=True)
            for i in range(2)
        ],
        route_seed=3,
        executor="processes",
        supervisor="on",
    )
    router.setup(records[:20])
    router.update(records[20:], time=1)
    router.close()
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr


def test_spent_retry_budget_kills_the_wedged_worker():
    """With no retries left, a worker whose state is unknown (here: wedged
    past its deadline) is killed before the error propagates, so close()
    does not wait out another deadline on it."""
    import time

    router = ShardRouter(
        [_edb()],
        executor="processes",
        supervisor=SupervisorConfig(timeout_s=1.0, max_retries=0),
        faults="delay@2",
    )
    try:
        router.setup(_records(6))
        with pytest.raises(ShardWorkerTimeout):
            router.update(_records(3, start=6), 1)
        assert not router.shards[0].process.is_alive()
    finally:
        started = time.perf_counter()
        router.close()
        assert time.perf_counter() - started < 1.0


# -- the declared shard surface ------------------------------------------------


def test_every_surface_entry_is_declared_on_the_edb_with_its_kind():
    assert set(surface_names(MUTATE)) == {
        "setup",
        "update",
        "insert_many",
        "query",
        "rotate_key",
    }
    for name, kind in SHARD_SURFACE.items():
        member = inspect.getattr_static(EncryptedDatabase, name)
        if kind in (MUTATE, CALL):
            assert inspect.isfunction(member), name
        else:
            assert kind in (MIRROR, FACT)
            assert isinstance(member, property), name


@pytest.mark.parametrize("wrapper", [ShardWorkerClient, SupervisedShard, ShardRouter])
def test_every_wrapper_exposes_every_surface_entry(wrapper):
    for name, kind in SHARD_SURFACE.items():
        member = inspect.getattr_static(wrapper, name)
        if kind in (MUTATE, CALL):
            assert callable(member), (wrapper.__name__, name)
        else:
            assert isinstance(member, property), (wrapper.__name__, name)


def test_worker_refuses_names_outside_the_surface():
    import multiprocessing

    context = multiprocessing.get_context("fork")
    client = ShardWorkerClient(_edb(), 0, context, timeout_s=10.0)
    try:
        client.setup(_records(5))
        # A real EncryptedDatabase method and attribute, but not declared:
        # neither the rows nor the key ever leave the worker.
        with pytest.raises(ValueError, match="unknown shard-worker command"):
            client._call("ciphertexts", "events")
        with pytest.raises(ValueError, match="unknown shard-worker command"):
            client._call("cipher_key")
        # No attribute is readable through the pipe: mirrored values are
        # kept coordinator-side, so the worker serves no generic read.
        with pytest.raises(ValueError, match="unknown shard-worker command"):
            client._call("attr", "cipher")
        with pytest.raises(ValueError, match="unknown shard-worker command"):
            client._call("attr", "_rng")
        # The worker survives a refusal and keeps serving the surface.
        assert client.outsourced_count == 5
    finally:
        client.close()


def test_supervisor_journals_exactly_the_mutating_entries():
    shard = SupervisedShard(
        ObliDB(simulate_encryption=True),
        0,
        SupervisorConfig(),
        None,
        WallClockStats(),
        threading.Lock(),
    )
    try:
        shard.setup(_records(6))
        shard.update(_records(3, start=6), 1)
        shard.insert_many({"events": _records(2, start=9)}, time=2)
        shard.query(QUERY, time=3)
        shard.rotate_key(None)
        shard.table_size("events")
        shard.table_dummy_count("events")
        for name in surface_names(MIRROR) + surface_names(FACT):
            getattr(shard, name)
        shard.supports(QUERY)
        shard.snapshot()
        journaled = [entry["command"] for entry in shard._journal.entries()]
        assert journaled == [
            "setup",
            "update",
            "insert_many",
            "query",
            "rotate_key",
        ]
        assert set(journaled) == set(surface_names(MUTATE))
        # Journaled arguments are canonical: defaults filled in, positional.
        query_entry = shard._journal.entries()[3]
        assert query_entry["args"] == (QUERY, 3)
    finally:
        shard.close()
