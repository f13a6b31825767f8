"""Headline chaos differentials: recovery is byte-invisible in every
paper-level observable.

For every fault schedule, at K in {1, 2, 4} shards, on both back-ends
(ObliDB exact answers, Crypt-epsilon L-DP noise), a supervised run that
crashes and heals mid-flight produces *byte-identical* results to a
fault-free unsupervised twin: update results, query answers, QET, noise
flags, and the aggregate and per-shard ``(t, |γ|)`` update-pattern
transcripts.  The recovery cost is visible only in the measured wall-clock
ledger's health counters.

The L-DP back-end is the sharp half of the differential: it consumes one
RNG draw per query, so recovery must replay *queries* (not just ingests)
to advance the rebuilt noise stream exactly as far as the dead shard's.
"""

from __future__ import annotations

import pytest

from repro.edb.base import MIRROR, surface_names
from repro.edb.router import ShardRouter
from repro.edb.records import Record
from repro.edb.store import (
    restore_backend,
    restore_router,
    snapshot_backend,
    snapshot_router,
)
from repro.fleet.supervisor import SupervisorConfig
from repro.query.ast import CountQuery, JoinCountQuery
from repro.simulation.runner import CellSpec, make_backend
from repro.testing.chaos import (
    PROCESS_ONLY_KINDS,
    parse_fault_schedule,
    random_fault_schedule,
)

QUERY = CountQuery(table="events", label="Q1")

#: Fast chaos policy: short pipe deadline (the delay/drop kinds wait it
#: out) and near-zero backoff so the differential runs in seconds.
CHAOS_CONFIG = SupervisorConfig(timeout_s=2.0, backoff_base_s=0.01)

BACKENDS = ("oblidb", "crypte")


def _records(n: int, start: int = 0, time: int = 0) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 7, "value": start + i},
            arrival_time=time,
            table="events",
        )
        for i in range(n)
    ]


def _router(
    backend: str,
    n_shards: int,
    executor: str = "serial",
    supervisor=None,
    faults: str = "",
    simulate_encryption: bool = False,
) -> ShardRouter:
    shards = [
        make_backend(
            backend, seed=40 + index, simulate_encryption=simulate_encryption
        )()
        for index in range(n_shards)
    ]
    return ShardRouter(
        shards,
        route_seed=9,
        executor=executor,
        supervisor=supervisor,
        faults=faults,
    )


def _drive(router: ShardRouter, ticks: int = 5):
    """Setup + ``ticks`` update/query rounds; every observable, verbatim."""
    observed = []
    setup = router.setup(_records(10, time=0))
    observed.append(
        (
            "setup",
            setup.time,
            setup.records_added,
            setup.dummies_added,
            setup.bytes_added,
        )
    )
    for t in range(1, ticks + 1):
        update = router.update(_records(3, start=10 + 3 * t, time=t), t)
        result = router.query(QUERY, time=t)
        observed.append(
            (
                t,
                update.records_added,
                update.dummies_added,
                update.bytes_added,
                result.query_name,
                result.answer,
                result.qet_seconds,
                result.records_scanned,
                result.noise_injected,
            )
        )
    transcripts = (tuple(router.update_history), router.per_shard_observables())
    return observed, transcripts


def _differential(backend, n_shards, faults, executor="serial", **router_kwargs):
    reference = _router(backend, n_shards, executor=executor, **router_kwargs)
    chaotic = _router(
        backend,
        n_shards,
        executor=executor,
        supervisor=CHAOS_CONFIG,
        faults=faults,
        **router_kwargs,
    )
    try:
        assert _drive(chaotic) == _drive(reference)
    finally:
        health = chaotic.measured.health()
        reference.close()
        chaotic.close()
    return health


# -- the headline grid ---------------------------------------------------------

_SCHEDULES = {
    1: "raise@2,tornsnap@5",
    2: "raise:1@2,tornsnap:0@4",
    4: "raise:3@2,tornsnap:1@3,raise:0@5,tornsnap:2@6",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", sorted(_SCHEDULES))
def test_recovery_is_byte_invisible_across_k_and_backends(backend, n_shards):
    """K in {1, 2, 4} x {ObliDB, Crypt-epsilon}: every observable of a
    crashed-and-healed run equals the fault-free twin's, bit for bit."""
    health = _differential(backend, n_shards, _SCHEDULES[n_shards])
    expected = len(parse_fault_schedule(_SCHEDULES[n_shards]))
    assert health["recoveries"] == expected
    assert health["replayed_batches"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_six_fault_kinds_heal_on_the_process_executor(backend):
    """One run through every fault kind -- kill, delay, drop, raise,
    tornsnap -- against persistent worker processes that encrypt; still
    byte-identical to the fault-free twin."""
    faults = "delay:0@2,kill:1@3,drop:1@4,raise:1@5,tornsnap:0@6"
    health = _differential(
        backend,
        2,
        faults,
        executor="processes",
        simulate_encryption=True,
    )
    assert health["recoveries"] == 5


def test_a_serial_router_refuses_process_only_kinds():
    """kill/delay/drop need a worker process: a router built directly on
    the serial executor refuses them, as a grid cell does, rather than
    skipping them; raise/tornsnap still fire and heal there."""
    for kind in sorted(PROCESS_ONLY_KINDS):
        with pytest.raises(ValueError, match="worker process"):
            _router("oblidb", 2, faults=f"raise:1@6,{kind}:0@2")
    health = _differential("oblidb", 2, "raise:1@6,tornsnap:0@7")
    assert health["recoveries"] == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_supervision_without_faults_is_free_of_observable_effects(backend):
    """supervisor='on' with no faults: byte-identical results and an
    all-zero health ledger (the <= 1.05x wall-clock overhead companion is
    pinned by benchmarks/bench_faults.py)."""
    reference = _router(backend, 2, executor="serial")
    supervised = _router(backend, 2, executor="serial", supervisor="on")
    try:
        assert _drive(supervised) == _drive(reference)
        health = supervised.measured.health()
        assert health == {
            "recoveries": 0,
            "retries": 0,
            "replayed_batches": 0,
            "recovery_seconds": 0.0,
        }
    finally:
        reference.close()
        supervised.close()


# -- coordinator-held shard counters -------------------------------------------


def _own_values(shard) -> dict:
    """A shard's ``MIRROR`` values as the shard itself holds them: read from
    a full snapshot of its live state, never from the coordinator's mirror."""
    blob = shard.snapshot() if hasattr(shard, "snapshot") else snapshot_backend(shard)
    edb = restore_backend(blob)
    return {name: getattr(edb, name) for name in surface_names(MIRROR)}


def _assert_mirrored(router: ShardRouter) -> None:
    own = [_own_values(shard) for shard in router.shards]
    for shard, values in zip(router.shards, own):
        assert {name: getattr(shard, name) for name in values} == values
    assert router.is_setup == all(values["is_setup"] for values in own)
    for name in ("outsourced_count", "dummy_count", "real_count", "storage_bytes"):
        assert getattr(router, name) == sum(values[name] for values in own), name


_JOIN = JoinCountQuery(
    left_table="events",
    right_table="events",
    left_attribute="key",
    right_attribute="key",
    label="Q3",
)


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_every_mirror_equals_the_shards_own_value(executor):
    """After every command -- through two recoveries (a raise, then a worker
    kill, or on serial a torn snapshot) and a restore_router -- each
    shard's coordinator-held counters and transcript equal what the shard
    holds, and the router's sums equal their sums (the float storage bytes
    bit for bit)."""
    second = "kill" if executor == "processes" else "tornsnap"
    router = _router(
        "oblidb",
        2,
        executor=executor,
        supervisor=CHAOS_CONFIG,
        faults=f"raise:0@3,{second}:1@4",
        simulate_encryption=True,
    )
    commands = [lambda r: r.setup(_records(10, time=0))]
    for t in range(1, 4):
        commands += [
            lambda r, t=t: r.update(_records(4, start=10 * t, time=t), t),
            lambda r, t=t: r.insert_many(
                {"events": _records(5, start=10 * t + 4, time=t)}, t
            ),
            lambda r, t=t: r.query(QUERY, time=t),
            lambda r, t=t: r.query(_JOIN, time=t),
        ]
    commands.append(lambda r: r.rotate_key(None))
    try:
        _assert_mirrored(router)
        for command in commands[:7]:
            command(router)
            _assert_mirrored(router)
        assert router.measured.health()["recoveries"] == 2
        restored = restore_router(snapshot_router(router))
        router.close()
        router = restored
        _assert_mirrored(router)
        for command in commands[7:]:
            command(router)
            _assert_mirrored(router)
    finally:
        router.close()


# -- schedule plumbing ---------------------------------------------------------


def test_random_fault_schedule_replays_from_the_seed():
    first = random_fault_schedule(seed=42, n_shards=4, n_faults=5)
    second = random_fault_schedule(seed=42, n_shards=4, n_faults=5)
    assert first.spec() == second.spec()
    assert random_fault_schedule(seed=43, n_shards=4, n_faults=5).spec() != first.spec()
    for fault in first.pending:
        assert 0 <= fault.shard < 4
        assert fault.at_command >= 1


def test_fault_schedule_grid_syntax_round_trips():
    schedule = parse_fault_schedule(" kill:1@3 , raise@5 ,tornsnap:2@1")
    assert schedule.spec() == "kill:1@3,raise@5,tornsnap:2@1"
    assert parse_fault_schedule("").spec() == ""
    with pytest.raises(ValueError):
        parse_fault_schedule("kill:1")  # missing @<command>
    with pytest.raises(ValueError):
        parse_fault_schedule("explode@3")  # unknown kind
    with pytest.raises(ValueError):
        parse_fault_schedule("kill@0")  # at_command is 1-based


def test_cellspec_validates_the_robustness_axes():
    base = dict(strategy="dp-timer", backend="oblidb", scenario="taxi-yellow")
    cell = CellSpec(
        **base,
        supervisor="ON",
        faults=" raise@2 , kill:1@3 ",
        shard_executor="processes",
    )
    assert cell.supervisor == "on"
    assert cell.faults == "raise@2,kill:1@3"
    with pytest.raises(ValueError):
        CellSpec(**base, supervisor="maybe")
    with pytest.raises(ValueError):
        CellSpec(**base, faults="bogus@")


@pytest.mark.parametrize("kind", sorted(PROCESS_ONLY_KINDS))
@pytest.mark.parametrize("executor", ["serial"])
def test_cellspec_rejects_process_only_faults_without_worker_processes(
    kind, executor
):
    """A grid cell that schedules a fault only a worker process can take
    fails when it is built, not by silently skipping the fault."""
    base = dict(strategy="dp-timer", backend="oblidb", n_shards=2)
    with pytest.raises(ValueError, match="worker process"):
        CellSpec(**base, shard_executor=executor, faults=f"raise@2,{kind}:1@3")
    # In-process kinds stay valid on every executor.
    assert CellSpec(**base, shard_executor=executor, faults="raise@2").faults
    assert CellSpec(**base, shard_executor="processes", faults=f"{kind}@3").faults
