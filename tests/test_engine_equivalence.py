"""Engine/reference equivalence: the segment engine must reproduce the
per-tick loop bit for bit.

For every strategy and both back-ends, two identically-configured
simulations are executed -- one through :meth:`Simulation.run` (segment
kernels, incremental ground truth, batched ingestion) and one through
:func:`repro.testing.reference.run_per_tick` (one ``step`` per owner and
time unit, full rescans).  Their :class:`RunResult`\\ s must compare equal
on every field: timeline, query traces, sync counts and update volumes.
This is the contract that makes the bulk kernels safe: each must decide
every time unit as ``step`` would, and the incrementally maintained
aggregates must equal a from-scratch rescan.
"""

from __future__ import annotations

import pytest

from repro.core.strategies.flush import FlushPolicy
from repro.simulation.experiment import (
    default_queries,
    make_backend,
    taxi_workloads,
)
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.testing.reference import run_per_tick

SCALE = 0.02  # ~864 time units; large enough to hit timers, flushes, queries

STRATEGIES = ("sur", "oto", "set", "dp-timer", "dp-ant")
BACKENDS = ("oblidb", "crypte")


@pytest.fixture(scope="module")
def workloads():
    return taxi_workloads(scale=SCALE, include_green=True, seed=11)


@pytest.fixture(scope="module")
def queries():
    return default_queries()


def build(workloads, queries, strategy, backend, **overrides):
    config = SimulationConfig(
        strategy=strategy,
        epsilon=overrides.pop("epsilon", 0.5),
        timer_period=overrides.pop("timer_period", 30),
        theta=15,
        flush=overrides.pop("flush", FlushPolicy(interval=300, size=5)),
        query_interval=overrides.pop("query_interval", 120),
        horizon=overrides.pop("horizon", None),
        seed=overrides.pop("seed", 6),
    )
    return Simulation(
        edb_factory=make_backend(backend, seed=2),
        workloads=workloads,
        queries=queries,
        config=config,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_engine_reproduces_legacy_loop(workloads, queries, strategy, backend):
    engine_result = build(workloads, queries, strategy, backend).run()
    legacy_result = run_per_tick(build(workloads, queries, strategy, backend))
    assert engine_result == legacy_result


def test_equivalence_without_query_schedule(workloads, queries):
    engine_result = build(
        workloads, queries, "dp-timer", "oblidb", query_interval=0
    ).run()
    legacy_result = run_per_tick(build(
        workloads, queries, "dp-timer", "oblidb", query_interval=0
    ))
    assert engine_result == legacy_result
    assert len(engine_result.timeline) == 1


def test_equivalence_with_truncated_horizon(workloads, queries):
    """A config horizon shorter than the stream cuts both paths identically."""
    engine_result = build(
        workloads, queries, "dp-ant", "oblidb", horizon=500
    ).run()
    legacy_result = run_per_tick(build(
        workloads, queries, "dp-ant", "oblidb", horizon=500
    ))
    assert engine_result == legacy_result


def test_equivalence_with_flush_disabled(workloads, queries):
    engine_result = build(
        workloads, queries, "dp-timer", "oblidb", flush=FlushPolicy.disabled()
    ).run()
    legacy_result = run_per_tick(build(
        workloads, queries, "dp-timer", "oblidb", flush=FlushPolicy.disabled()
    ))
    assert engine_result == legacy_result


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_equivalence_across_seeds(workloads, queries, seed):
    engine_result = build(workloads, queries, "dp-ant", "crypte", seed=seed).run()
    legacy_result = run_per_tick(build(
        workloads, queries, "dp-ant", "crypte", seed=seed
    ))
    assert engine_result == legacy_result


@pytest.mark.parametrize("strategy", ("set", "dp-ant"))
def test_fleet_sharing_tables_with_queries(workloads, queries, strategy):
    """Two members per table: the engine merges their Updates and their
    ground-truth blocks (range, group-by and join counts) in tick order."""
    from repro.workload.scenarios import partition_fleet

    fleet = partition_fleet(workloads, n_owners=2)
    engine_result = build(fleet, queries, strategy, "oblidb").run()
    legacy_result = run_per_tick(build(fleet, queries, strategy, "oblidb"))
    assert engine_result == legacy_result


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_held_noise_dp_ant_skips_ticks_equivalently(seed, monkeypatch):
    """The held-noise DP-ANT variant's segment kernel matches the per-tick loop.

    That configuration is not reachable through ``make_strategy``, so pin it
    here by driving an owner through the engine directly and comparing its
    update transcript against a per-tick loop.  The engine never steps the
    strategy one tick at a time.
    """
    import numpy as np

    from repro.core.owner import Owner
    from repro.core.strategies.base import SyncStrategy
    from repro.core.strategies.dp_ant import DPANTStrategy
    from repro.edb.oblidb import ObliDB
    from repro.edb.records import Record, Schema, make_dummy_record
    from repro.engine import Engine
    from repro.workload.stream import GrowingDatabase

    horizon = 3_000
    schema = Schema("S", ("v",))

    def build_owner():
        strategy = DPANTStrategy(
            lambda t: make_dummy_record(schema, t),
            epsilon=1.0,
            theta=10,
            flush=FlushPolicy(interval=400, size=3),
            rng=np.random.default_rng(seed),
            resample_comparison_noise=False,
        )
        owner = Owner(
            schema=schema, strategy=strategy, edb=ObliDB()
        )
        owner.initialize([])
        return owner

    rng = np.random.default_rng(42)
    updates = [None] * horizon
    for t in np.sort(rng.choice(np.arange(1, horizon + 1), size=150, replace=False)):
        t = int(t)
        updates[t - 1] = Record(values={"v": t}, arrival_time=t, table="S")
    workload = GrowingDatabase(table="S", updates=updates)

    loop_owner = build_owner()
    for t, update in workload.iter_times():
        loop_owner.tick(t, update)

    engine_owner = build_owner()
    engine = Engine(horizon)
    engine.add_stream(engine_owner, workload.arrivals())
    engine.add_periodic(250, lambda time: None)

    def no_step(self, time, update):
        raise AssertionError("the engine stepped a strategy one tick at a time")

    monkeypatch.setattr(SyncStrategy, "step", no_step)
    stats = engine.run()

    assert engine_owner.update_pattern.as_tuples() == loop_owner.update_pattern.as_tuples()
    assert engine_owner.strategy.sync_count == loop_owner.strategy.sync_count
    assert engine_owner.logical_gap == loop_owner.logical_gap
    assert stats.segments == horizon // 250


@pytest.mark.parametrize("strategy", ("dp-timer", "dp-ant"))
def test_rng_isolation_per_table(queries, strategy):
    """Adding a table must not perturb the noise of the existing tables.

    With per-table SeedSequence children the primary table's noise is a
    function of its own child stream only, so its logical-gap trajectory (the
    primary-table series recorded in the timeline) is identical whether or
    not a second table participates in the run.  Under the previous shared
    generator the green table's draws would interleave and shift it.
    """
    both = taxi_workloads(scale=SCALE, include_green=True, seed=11)
    yellow_only = {"YellowCab": both["YellowCab"]}
    single = build(yellow_only, queries, strategy, "oblidb").run()
    paired = build(both, queries, strategy, "oblidb").run()
    assert [p.time for p in single.timeline] == [p.time for p in paired.timeline]
    assert [p.logical_gap for p in single.timeline] == [
        p.logical_gap for p in paired.timeline
    ]
