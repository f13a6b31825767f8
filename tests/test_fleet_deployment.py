"""Fleet coordinator tests.

* **N=1 / K=1 differential** -- a :class:`Deployment` with one owner over a
  one-shard router reproduces a :class:`DPSync` run bit-for-bit: per-tick
  sync decisions, update-pattern transcript, EDB update history / leakage
  observables, and query answers.
* **Fleet construction** -- ``Deployment.build`` spawns independent noise
  streams per member; fleet epsilon is the parallel composition (max).
* **Sibling table sources** -- the multi-table join ground-truth fix: a
  facade sharing an EDB with a sibling table sees the complete logical
  database (and keeps seeing it as the sibling grows); a restored
  deployment refuses queries over a source not registered again.
* **run_cell fleet differentials** -- the CI smoke contract: an ``n_owners=2``
  SUR run equals the single-owner run exactly; adding ``n_shards=2`` changes
  nothing but the (smaller) simulated QET.
* **Arrival-stream partitioning** -- ``partition_stream`` is an exact
  partition of the arrivals.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.framework import DPSync
from repro.core.strategies.registry import make_strategy
from repro.edb.leakage import update_pattern_observables
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, make_dummy_record
from repro.edb.router import ShardRouter
from repro.fleet import Deployment
from repro.query.incremental import IncrementalTruth
from repro.query.sql import parse_query
from repro.simulation.runner import CellSpec, run_cell
from repro.workload.scenarios import FLEET_PARTITIONS, partition_fleet, partition_stream
from repro.workload.stream import GrowingDatabase

SCHEMA = Schema(name="events", attributes=("sensor_id", "value"))


def _stream(seed: int, horizon: int = 400, rate: float = 0.4):
    """A deterministic (time, values) update stream."""
    rng = np.random.default_rng(seed)
    updates = []
    for t in range(1, horizon + 1):
        if rng.random() < rate:
            updates.append(
                (t, {"sensor_id": int(rng.integers(0, 8)), "value": int(t % 53)})
            )
        else:
            updates.append((t, None))
    return updates


def test_single_owner_deployment_matches_dpsync_bit_for_bit():
    """n_owners=1, n_shards=1 reproduces the DPSync facade exactly."""
    updates = _stream(seed=3)
    query_sql = "SELECT COUNT(*) FROM events WHERE value BETWEEN 10 AND 40"

    dpsync = DPSync(
        SCHEMA,
        edb=ObliDB(),
        strategy="dp-timer",
        epsilon=0.5,
        period=12,
        rng=np.random.default_rng(7),
    )
    dpsync.start([])

    router = ShardRouter([ObliDB()])
    deployment = Deployment(router, truth_source=IncrementalTruth())
    strategy = make_strategy(
        "dp-timer",
        dummy_factory=lambda t: make_dummy_record(SCHEMA, t),
        rng=np.random.default_rng(7),
        epsilon=0.5,
        period=12,
        theta=15,
        flush=None,
    )
    deployment.add_owner(SCHEMA.name, SCHEMA, strategy)
    deployment.start()

    for t, values in updates:
        facade_decision = dpsync.receive(t, values)
        record = (
            None
            if values is None
            else Record(values=values, arrival_time=t, table=SCHEMA.name)
        )
        fleet_decision = deployment.receive(SCHEMA.name, t, record)
        assert fleet_decision.should_sync == facade_decision.should_sync, t
        assert fleet_decision.volume == facade_decision.volume, t
        assert fleet_decision.reason == facade_decision.reason, t
        if t % 100 == 0:
            facade_obs = dpsync.query(query_sql, time=t)
            fleet_obs = deployment.query(query_sql, time=t)
            assert fleet_obs.answer == facade_obs.answer
            assert fleet_obs.true_answer == facade_obs.true_answer
            assert fleet_obs.l1_error == facade_obs.l1_error
            assert fleet_obs.qet_seconds == facade_obs.qet_seconds

    # Server-observable transcripts are identical, member- and EDB-level.
    facade_pattern = dpsync.update_pattern
    fleet_pattern = deployment.member(SCHEMA.name).update_pattern
    assert fleet_pattern.events == facade_pattern.events
    assert update_pattern_observables(router.update_history) == (
        update_pattern_observables(dpsync.edb.update_history)
    )
    assert router.leakage_profile == dpsync.edb.leakage_profile
    assert deployment.epsilon == dpsync.epsilon


def test_build_spawns_independent_members():
    """Deployment.build: one strategy + noise stream per member, eps = max."""
    router = ShardRouter(
        [ObliDB() for _ in range(2)], route_seed=1
    )
    deployment = Deployment.build(
        SCHEMA,
        router,
        n_owners=3,
        strategy="dp-timer",
        epsilon=0.4,
        period=10,
        seed=5,
        truth_source=IncrementalTruth(),
    )
    assert deployment.n_owners == 3
    assert sorted(deployment.owners) == ["events#0", "events#1", "events#2"]
    strategies = [owner.strategy for owner in deployment.owners.values()]
    assert len({id(s) for s in strategies}) == 3
    assert len({id(s._rng) for s in strategies}) == 3
    assert deployment.epsilon == pytest.approx(0.4)

    deployment.start()
    for t, values in _stream(seed=11, horizon=120, rate=0.6):
        if values is None:
            continue
        name = f"events#{t % 3}"
        deployment.receive(
            name, t, Record(values=values, arrival_time=t, table="events")
        )
    # Every member keeps its own transcript, and conservation holds
    # member-wise: received = synced real + still cached.
    patterns = deployment.update_patterns()
    assert set(patterns) == set(deployment.owners)
    for owner in deployment.owners.values():
        strategy = owner.strategy
        assert strategy.received_total == (
            strategy.synced_real_total + strategy.logical_gap
        )
    assert deployment.logical_size() > 0
    obs = deployment.query("SELECT sensor_id, COUNT(*) AS C FROM events GROUP BY sensor_id")
    assert sum(obs.true_answer.values()) == deployment.logical_size()


def test_sibling_table_sources_fix_join_ground_truth():
    """Joins through a shared EDB see the complete logical database."""
    yellow = Schema(name="YellowCab", attributes=("pickupID", "pickTime"))
    green = Schema(name="GreenTaxi", attributes=("pickupID", "pickTime"))
    edb = ObliDB()
    a = DPSync(yellow, edb=edb, strategy="sur", rng=np.random.default_rng(1))
    b = DPSync(green, edb=edb, strategy="sur", rng=np.random.default_rng(2))
    a.start([])
    b.start([])
    a.register_sibling(b)
    b.register_sibling(a)

    join_sql = (
        "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi "
        "ON YellowCab.pickTime = GreenTaxi.pickTime"
    )
    a.receive(1, {"pickupID": 10, "pickTime": 100})
    b.receive(2, {"pickupID": 20, "pickTime": 100})
    first = a.query(join_sql, time=2)
    assert first.true_answer == 1
    assert first.l1_error == 0.0  # SUR: everything is outsourced immediately

    # The sibling keeps growing *after* the first join query: ground truth
    # must follow (the old facade froze a one-sided maintained aggregate).
    b.receive(3, {"pickupID": 21, "pickTime": 100})
    a.receive(4, {"pickupID": 11, "pickTime": 200})
    b.receive(5, {"pickupID": 22, "pickTime": 200})
    second = a.query(join_sql, time=5)
    assert second.true_answer == 2 + 1
    assert second.l1_error == 0.0
    # And the sibling's own view agrees.
    assert b.query(join_sql, time=5).true_answer == 3


def test_register_sibling_rejects_self():
    dpsync = DPSync(SCHEMA, edb=ObliDB(), strategy="sur")
    with pytest.raises(ValueError):
        dpsync.register_sibling(dpsync)


def test_table_source_for_owned_table_is_rejected():
    """An external source for an owned table would double-count ground truth."""
    edb = ObliDB()
    a = DPSync(SCHEMA, edb=edb, strategy="sur", rng=np.random.default_rng(1))
    b = DPSync(SCHEMA, edb=edb, strategy="sur", rng=np.random.default_rng(2))
    with pytest.raises(ValueError, match="already owned"):
        a.register_sibling(b)
    # ... and in the other order: adding an owner for a sourced table.
    deployment = Deployment(ObliDB())
    deployment.register_table_source("events", lambda: ())
    strategy = make_strategy(
        "sur",
        dummy_factory=lambda t: make_dummy_record(SCHEMA, t),
        rng=np.random.default_rng(4),
    )
    with pytest.raises(ValueError, match="external source"):
        deployment.add_owner("events", SCHEMA, strategy)


def test_restored_deployment_guards_pending_table_sources(tmp_path):
    """A restored deployment refuses queries over an external table source
    that was not registered again, until it is."""
    alpha = Schema(name="Alpha", attributes=("key", "value"))
    sibling_rows = [
        Record(values={"key": key, "value": key}, table="Beta") for key in range(3)
    ]
    deployment = Deployment.build(alpha, ObliDB(), seed=1)
    deployment.register_table_source("Beta", lambda: sibling_rows)
    deployment.start()
    deployment.save(tmp_path)

    restored = Deployment.restore(tmp_path)
    join_sql = (
        "SELECT COUNT(*) FROM Alpha INNER JOIN Beta ON Alpha.key = Beta.key"
    )
    with pytest.raises(RuntimeError, match="not re-registered after"):
        restored.query(join_sql)
    # Queries over owned tables are unaffected by the pending source.
    restored.query("SELECT COUNT(*) FROM Alpha")
    # Re-registering the source lifts the guard.
    restored.register_table_source("Beta", lambda: sibling_rows)
    restored.query(join_sql)


def test_fleet_logical_gap_sums_over_primary_table_members():
    """TimePoint.logical_gap covers the whole primary table, not partition #0."""
    from repro.simulation.runner import make_backend
    from repro.simulation.simulator import Simulation, SimulationConfig
    from repro.workload.scenarios import build_scenario

    workloads = partition_fleet(build_scenario("poisson", seed=8, scale=0.1), 4)
    config = SimulationConfig(strategy="oto", query_interval=0, seed=2)
    # OTO never synchronizes after setup: the primary-table gap must equal
    # the *total* number of arrivals, which only holds when the snapshot
    # sums the gap over every member of the table.
    result = Simulation(
        make_backend("oblidb", seed=1), workloads, [], config
    ).run()
    final = result.final_time_point()
    assert final.logical_gap == final.logical_size > 0


def test_fleet_scenario_is_a_grid_axis():
    from repro.simulation.runner import ExperimentGrid

    grid = ExperimentGrid(
        strategies=("sur",),
        scenarios=("million-users",),
        parameters={
            "n_owners": [2],
            "fleet_scenario": ["round-robin", "hash-user"],
        },
    )
    cells = grid.cells()
    assert len(cells) == 2
    assert {c.fleet_scenario for c in cells} == {"round-robin", "hash-user"}


def test_run_cell_tolerates_empty_fleet_partitions():
    """More owners than arrivals: idle members run instead of crashing."""
    spec = CellSpec(
        strategy="sur",
        scenario="million-users",
        scale=0.002,  # ~55 arrivals
        query_interval=40,
        n_owners=64,
    )
    result = run_cell(spec)
    assert result.final_time_point().logical_size > 0


def test_run_cell_fleet_differential():
    """CI smoke contract: 2 owners x 2 shards vs the single-owner/K=1 run."""
    base = CellSpec(
        strategy="sur",
        scenario="poisson",
        scale=0.2,
        query_interval=250,
        sim_seed=5,
        backend_seed=6,
    )
    single = run_cell(base)
    # SUR syncs every receipt at its own tick, so splitting the stream across
    # two owners changes nothing the server (or analyst) observes.
    fleet = run_cell(dataclasses.replace(base, n_owners=2))
    assert fleet.to_dict() == single.to_dict()

    # Sharding the same fleet run changes only the simulated QET (smaller).
    sharded = run_cell(dataclasses.replace(base, n_owners=2, n_shards=2))
    expected = fleet.to_dict()
    observed = sharded.to_dict()
    expected_qets = [t.pop("qet_seconds") for t in expected["query_traces"]]
    observed_qets = [t.pop("qet_seconds") for t in observed["query_traces"]]
    assert observed == expected
    assert all(o <= e for o, e in zip(observed_qets, expected_qets))
    assert sum(observed_qets) < sum(expected_qets)


def test_fleet_engine_matches_legacy_loop():
    """The engine merges all fleet owners' Updates in tick order: run ==
    the per-tick reference loop."""
    from repro.simulation.runner import make_backend, make_sharded_backend
    from repro.simulation.simulator import Simulation, SimulationConfig
    from repro.testing.reference import run_per_tick
    from repro.workload.scenarios import build_scenario

    workloads = partition_fleet(
        build_scenario("poisson", seed=3, scale=0.1), n_owners=3
    )
    config = SimulationConfig(
        strategy="dp-timer", timer_period=17, query_interval=137, seed=9
    )
    queries = []
    engine_run = Simulation(
        make_sharded_backend("oblidb", 2, seed=4), workloads, queries, config
    ).run()
    legacy_run = run_per_tick(Simulation(
        make_sharded_backend("oblidb", 2, seed=4), workloads, queries, config
    ))
    assert engine_run == legacy_run


def test_cellspec_fleet_fields_round_trip():
    spec = CellSpec(
        strategy="dp-timer",
        scenario="million-users",
        n_owners=4,
        n_shards=2,
        fleet_scenario="hash-user",
    )
    rebuilt = CellSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.fingerprint() == spec.fingerprint()
    assert "fleet=4x2" in spec.cell_id
    with pytest.raises(ValueError):
        CellSpec(strategy="sur", n_owners=0)


def test_partition_stream_is_exact_partition():
    """Every arrival lands in exactly one sub-stream, at its original time."""
    rng = np.random.default_rng(4)
    updates = [
        Record(
            values={"user_id": int(rng.integers(1, 50)), "region": 1, "value": int(t)},
            arrival_time=t + 1,
            table="Users",
        )
        if rng.random() < 0.7
        else None
        for t in range(300)
    ]
    workload = GrowingDatabase(table="Users", updates=updates)
    for policy in FLEET_PARTITIONS:
        parts = partition_stream(workload, 3, policy=policy)
        assert len(parts) == 3
        assert all(p.horizon == workload.horizon for p in parts)
        for t in range(1, workload.horizon + 1):
            original = workload.update_at(t)
            placed = [p.update_at(t) for p in parts if p.update_at(t) is not None]
            if original is None:
                assert placed == []
            else:
                assert placed == [original]
        assert sum(p.total_records for p in parts) == workload.total_records

    # hash-user: all records of one user land on one owner.
    parts = partition_stream(workload, 3, policy="hash-user")
    owner_of: dict[int, set[int]] = {}
    for index, part in enumerate(parts):
        for _, record in part.arrivals():
            owner_of.setdefault(record["user_id"], set()).add(index)
    assert all(len(owners) == 1 for owners in owner_of.values())

    with pytest.raises(KeyError):
        partition_stream(workload, 2, policy="no-such-policy")

    fleet = partition_fleet({"Users": workload}, 2)
    assert sorted(fleet) == ["Users#0", "Users#1"]
    assert all(db.table == "Users" for db in fleet.values())
