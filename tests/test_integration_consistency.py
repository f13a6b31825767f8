"""Integration tests for the design principles P1-P4.

* P1 -- bounded DP guarantee on the update pattern (accountant-level check);
* P2 -- configurable privacy/accuracy/performance (monotone trends);
* P3 -- eventual consistency: once arrivals stop, the gap closes, and records
  are uploaded in arrival order (FIFO);
* P4 -- interoperability: the same strategy runs unchanged on both back-ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import DPSync
from repro.core.strategies.flush import FlushPolicy
from repro.edb.crypte import CryptEpsilon
from repro.edb.oblidb import ObliDB
from repro.edb.records import Schema

SCHEMA = Schema("events", ("sensor_id", "value"))


def feed(dpsync, horizon, arrival_every=2, start=1):
    for t in range(start, start + horizon):
        update = (
            {"sensor_id": t % 7, "value": float(t)} if t % arrival_every == 0 else None
        )
        dpsync.receive(t, update)


class TestP1BoundedPrivacy:
    @pytest.mark.parametrize("strategy", ["dp-timer", "dp-ant"])
    def test_accounted_epsilon_equals_configured_budget(self, strategy):
        dpsync = DPSync(
            SCHEMA,
            edb=ObliDB(),
            strategy=strategy,
            epsilon=0.5,
            period=20,
            theta=10,
            flush=FlushPolicy(interval=100, size=5),
            rng=np.random.default_rng(0),
        )
        dpsync.start([{"sensor_id": 0, "value": 0.0}])
        feed(dpsync, 800, arrival_every=1)
        assert dpsync.strategy.accountant.total_epsilon() == pytest.approx(0.5)

    def test_naive_strategies_report_extreme_epsilon(self):
        sur = DPSync(SCHEMA, edb=ObliDB(), strategy="sur")
        set_ = DPSync(SCHEMA, edb=ObliDB(), strategy="set")
        assert sur.epsilon == float("inf")
        assert set_.epsilon == 0.0


class TestP2Configurability:
    def test_larger_T_means_larger_error_smaller_volume(self):
        """Figure 6 trend on a small workload: the *average* gap grows with T
        (the end-of-run gap is noisy, so the mean over time is compared)."""
        mean_gaps = []
        for period in (5, 200):
            dpsync = DPSync(
                SCHEMA,
                edb=ObliDB(),
                strategy="dp-timer",
                epsilon=0.5,
                period=period,
                flush=FlushPolicy.disabled(),
                rng=np.random.default_rng(1),
            )
            dpsync.start([])
            gaps = []
            for t in range(1, 601):
                update = {"sensor_id": t % 7, "value": float(t)} if t % 2 == 0 else None
                dpsync.receive(t, update)
                gaps.append(dpsync.logical_gap)
            mean_gaps.append(sum(gaps) / len(gaps))
        assert mean_gaps[1] > mean_gaps[0]

    def test_larger_theta_means_fewer_syncs(self):
        sync_counts = []
        for theta in (5, 200):
            dpsync = DPSync(
                SCHEMA,
                edb=ObliDB(),
                strategy="dp-ant",
                epsilon=0.5,
                theta=theta,
                flush=FlushPolicy.disabled(),
                rng=np.random.default_rng(2),
            )
            dpsync.start([])
            feed(dpsync, 600, arrival_every=1)
            sync_counts.append(dpsync.strategy.sync_count)
        assert sync_counts[0] > sync_counts[1]


class TestP3EventualConsistency:
    @pytest.mark.parametrize("strategy", ["dp-timer", "dp-ant"])
    def test_gap_closes_after_arrivals_stop(self, strategy):
        """Once the owner stops receiving data, the flush mechanism drains the
        cache, so eventually there are no logical gaps."""
        dpsync = DPSync(
            SCHEMA,
            edb=ObliDB(),
            strategy=strategy,
            epsilon=0.5,
            period=20,
            theta=10,
            flush=FlushPolicy(interval=50, size=10),
            rng=np.random.default_rng(3),
        )
        dpsync.start([])
        feed(dpsync, 300, arrival_every=1)              # active phase
        feed(dpsync, 700, arrival_every=10**9, start=301)  # quiet phase
        assert dpsync.logical_gap == 0

    @pytest.mark.parametrize("strategy", ["dp-timer", "dp-ant", "sur", "set"])
    def test_records_reach_server_in_arrival_order(self, strategy):
        dpsync = DPSync(
            SCHEMA,
            edb=ObliDB(),
            strategy=strategy,
            epsilon=1.0,
            period=15,
            theta=8,
            flush=FlushPolicy(interval=60, size=5),
            rng=np.random.default_rng(4),
        )
        dpsync.start([])
        feed(dpsync, 400, arrival_every=2)
        edb = dpsync.edb
        # The EDB stores records in insertion order; their original arrival
        # times must be non-decreasing (FIFO upload = order preservation).
        stored = edb._executor.tables.get("events", [])
        arrival_times = [r.arrival_time for r in stored if not r.is_dummy]
        assert arrival_times == sorted(arrival_times)


class TestP4Interoperability:
    @pytest.mark.parametrize("edb_factory", [ObliDB, CryptEpsilon])
    def test_same_strategy_runs_on_both_backends(self, edb_factory):
        edb = edb_factory()
        dpsync = DPSync(
            SCHEMA,
            edb=edb,
            strategy="dp-timer",
            epsilon=0.5,
            period=25,
            rng=np.random.default_rng(6),
        )
        dpsync.start([])
        feed(dpsync, 300, arrival_every=2)
        observation = dpsync.query("SELECT COUNT(*) FROM events")
        assert observation.qet_seconds > 0
        assert edb.leakage_profile.is_dpsync_compatible()

    def test_update_volumes_identical_across_backends_for_same_seed(self):
        """DP-Sync makes no changes to the EDB: the synchronization behaviour
        (and hence the update pattern) depends only on the strategy RNG."""
        patterns = []
        for factory in (ObliDB, CryptEpsilon):
            dpsync = DPSync(
                SCHEMA,
                edb=factory(),
                strategy="dp-timer",
                epsilon=0.5,
                period=25,
                rng=np.random.default_rng(7),
            )
            dpsync.start([])
            feed(dpsync, 300, arrival_every=3)
            patterns.append(dpsync.update_pattern.as_tuples())
        assert patterns[0] == patterns[1]
