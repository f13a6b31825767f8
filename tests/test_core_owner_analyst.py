"""Tests for the Owner and Analyst components."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analyst import Analyst
from repro.core.owner import Owner
from repro.core.strategies.naive import SETStrategy, SURStrategy
from repro.core.strategies.dp_timer import DPTimerStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.edb.oblidb import ObliDB
from repro.edb.crypte import CryptEpsilon
from repro.edb.records import Record, Schema, make_dummy_record
from repro.query.ast import CountQuery, GroupByCountQuery
from repro.query.predicates import RangePredicate

SCHEMA = Schema("YellowCab", ("pickupID", "pickTime"))


def dummy_factory(t):
    return make_dummy_record(SCHEMA, t)


def record(i):
    return Record(
        values={"pickupID": (i % 265) + 1, "pickTime": i}, arrival_time=i, table=SCHEMA.name
    )


def make_owner(strategy=None, edb=None):
    edb = edb if edb is not None else ObliDB()
    strategy = strategy if strategy is not None else SURStrategy(dummy_factory)
    return Owner(schema=SCHEMA, strategy=strategy, edb=edb), edb


class TestOwnerLifecycle:
    def test_initialize_runs_setup_and_records_pattern(self):
        owner, edb = make_owner()
        owner.initialize([record(0), record(1)])
        assert edb.is_setup
        assert owner.update_pattern.as_tuples() == ((0, 2),)
        assert owner.logical_size == 2

    def test_tick_before_initialize_raises(self):
        owner, _ = make_owner()
        with pytest.raises(RuntimeError):
            owner.tick(1, record(1))
        with pytest.raises(RuntimeError):
            owner.advance(1, [(1, record(1))])

    def test_double_initialize_raises(self):
        owner, _ = make_owner()
        owner.initialize([])
        with pytest.raises(RuntimeError):
            owner.initialize([])

    def test_time_must_advance(self):
        owner, _ = make_owner()
        owner.initialize([])
        owner.tick(1, record(1))
        with pytest.raises(ValueError):
            owner.tick(1, record(2))
        with pytest.raises(ValueError):
            owner.tick(0, None)
        with pytest.raises(ValueError):
            owner.advance(1, [])

    def test_record_for_wrong_table_rejected(self):
        owner, _ = make_owner()
        owner.initialize([])
        alien = Record(values={"pickupID": 1, "pickTime": 1}, table="GreenTaxi")
        with pytest.raises(ValueError):
            owner.tick(1, alien)

    def test_record_with_wrong_attributes_rejected(self):
        owner, _ = make_owner()
        owner.initialize([])
        malformed = Record(values={"pickupID": 1}, table=SCHEMA.name)
        with pytest.raises(ValueError):
            owner.tick(1, malformed)

    def test_update_pattern_tracks_synced_volumes(self):
        owner, edb = make_owner(strategy=SETStrategy(dummy_factory))
        owner.initialize([])
        for t in range(1, 11):
            owner.tick(t, record(t) if t % 2 == 0 else None)
        # SET synchronizes one record (real or dummy) every time unit.
        assert owner.update_pattern.volumes == (0,) + (1,) * 10
        assert edb.outsourced_count == 10
        assert edb.dummy_count == 5

    def test_logical_gap_and_outsourced_sizes(self):
        timer = DPTimerStrategy(
            dummy_factory,
            epsilon=1.0,
            period=10,
            flush=FlushPolicy.disabled(),
            rng=np.random.default_rng(0),
        )
        owner, edb = make_owner(strategy=timer)
        owner.initialize([])
        for t in range(1, 101):
            owner.tick(t, record(t))
        assert owner.logical_size == 100
        assert owner.outsourced_table_size == edb.table_size("YellowCab")
        assert owner.logical_gap == 100 - (edb.real_count)

    def test_second_owner_shares_edb_via_update(self):
        edb = ObliDB()
        first, _ = make_owner(edb=edb)
        first.initialize([record(0)])
        green_schema = Schema("GreenTaxi", ("pickupID", "pickTime"))
        second = Owner(
            schema=green_schema,
            strategy=SURStrategy(lambda t: make_dummy_record(green_schema, t)),
            edb=edb,
        )
        second.initialize(
            [Record(values={"pickupID": 2, "pickTime": 0}, table="GreenTaxi")]
        )
        assert edb.table_size("YellowCab") == 1
        assert edb.table_size("GreenTaxi") == 1


class TestAnalyst:
    def test_observation_records_error_and_qet(self):
        owner, edb = make_owner()
        records = [record(i) for i in range(50)]
        owner.initialize(records)
        analyst = Analyst(edb)
        query = CountQuery("YellowCab", RangePredicate("pickupID", 50, 100), label="Q1")
        observation = analyst.query(query, {"YellowCab": owner.logical_database}, time=5)
        assert observation.l1_error == 0.0
        assert observation.is_exact
        assert observation.qet_seconds > 0
        assert observation.query_name == "Q1"

    def test_error_reflects_unsynchronized_records(self):
        edb = ObliDB()
        owner, _ = make_owner(strategy=SURStrategy(dummy_factory), edb=edb)
        owner.initialize([record(i) for i in range(20)])
        analyst = Analyst(edb)
        # Simulate ten extra records the owner received but never synchronized
        # (as OTO would): ground truth includes them, the server does not.
        logical = list(owner.logical_database) + [record(100 + i) for i in range(10)]
        query = CountQuery("YellowCab", label="count-all")
        observation = analyst.query(query, {"YellowCab": logical}, time=9)
        assert observation.l1_error == 10.0

    def test_aggregation_helpers(self):
        edb = ObliDB()
        owner, _ = make_owner(edb=edb)
        owner.initialize([record(i) for i in range(10)])
        analyst = Analyst(edb)
        q1 = CountQuery("YellowCab", label="Q1")
        q2 = GroupByCountQuery("YellowCab", "pickupID", label="Q2")
        for t in (1, 2, 3):
            analyst.query(q1, {"YellowCab": owner.logical_database}, time=t)
            analyst.query(q2, {"YellowCab": owner.logical_database}, time=t)
        assert len(analyst.observations) == 6
        assert len(analyst.observations_for("Q1")) == 3
        assert analyst.mean_l1_error("Q1") == 0.0
        assert analyst.max_l1_error() == 0.0
        assert analyst.mean_qet("Q2") > 0.0

    def test_empty_analyst_aggregates_are_zero(self):
        analyst = Analyst(ObliDB())
        assert analyst.mean_l1_error() == 0.0
        assert analyst.max_l1_error("nope") == 0.0
        assert analyst.mean_qet() == 0.0

    def test_crypte_answers_are_noisy(self):
        edb = CryptEpsilon(query_epsilon=1.0, rng=np.random.default_rng(1))
        owner, _ = make_owner(edb=edb)
        owner.initialize([record(i) for i in range(100)])
        analyst = Analyst(edb)
        query = CountQuery("YellowCab", label="count-all")
        errors = [
            analyst.query(query, {"YellowCab": owner.logical_database}, time=t).l1_error
            for t in range(1, 30)
        ]
        assert any(e > 0 for e in errors)  # DP noise shows up as query error
