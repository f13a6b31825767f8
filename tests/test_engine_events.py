"""Tests for the segment engine (repro.engine)."""

from __future__ import annotations

import pytest

from repro.core.owner import Owner
from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.strategies.naive import SETStrategy, SURStrategy
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, SchemaDummyFactory
from repro.engine import Engine


def rec(t, table="T"):
    return Record(values={"v": t}, arrival_time=t, table=table)


class Recorder(SyncStrategy):
    """Steps through the generic wake loop and logs every wake-up."""

    name = "recorder"

    def __init__(self, seen, label="T", every=None):
        super().__init__(SchemaDummyFactory(Schema(label, ("v",))))
        self._seen = seen
        self._label = label
        self._every = every

    @property
    def epsilon(self):
        return 0.0

    def _initial_records(self, initial):
        return []

    def next_event(self, now):
        return now + self._every if self._every else None

    def _step(self, time, update):
        self._seen.append((self._label, time, update["v"] if update else None))
        return SyncDecision.no_sync()


def make_owner(strategy, table="T", edb=None):
    edb = edb if edb is not None else ObliDB()
    owner = Owner(schema=Schema(table, ("v",)), strategy=strategy, edb=edb)
    owner.initialize([])
    return owner


def run_recorder(horizon, arrivals=(), every=None, periodic=None):
    seen = []
    engine = Engine(horizon=horizon)
    engine.add_stream(make_owner(Recorder(seen, every=every)), arrivals)
    if periodic is not None:
        engine.add_periodic(periodic, lambda t: seen.append(("Q", t, None)))
    return seen, engine.run()


class TestEngine:
    def test_arrivals_are_delivered_with_their_records(self):
        seen, _ = run_recorder(10, arrivals=[(2, rec(2)), (7, rec(7))])
        assert seen == [("T", 2, 2), ("T", 7, 7)]

    def test_self_events_wake_stream_without_arrival(self):
        seen, _ = run_recorder(9, every=3)
        assert seen == [("T", 3, None), ("T", 6, None), ("T", 9, None)]

    def test_coinciding_self_event_and_arrival_tick_once(self):
        seen, stats = run_recorder(6, arrivals=[(3, rec(3))], every=3)
        # One delivery at t=3 (carrying the record) and one at t=6.
        assert seen == [("T", 3, 3), ("T", 6, None)]
        assert stats.stale_skipped == 0

    def test_streams_fire_before_periodics_within_a_tick(self):
        seen = []
        engine = Engine(horizon=4)
        for table in ("A", "B"):
            engine.add_stream(
                make_owner(Recorder(seen, label=table), table=table),
                arrivals=[(2, rec(2, table))],
            )
        engine.add_periodic(2, lambda t: seen.append(("Q", t, None)))
        engine.run()
        assert seen == [("A", 2, 2), ("B", 2, 2), ("Q", 2, None), ("Q", 4, None)]

    def test_updates_merge_across_owners_in_tick_order(self):
        """Each owner advances a whole segment alone, yet the shared EDB
        receives the Updates in the per-tick loop's order."""
        edb = ObliDB()
        calls = []
        insert_many = edb.insert_many

        def recording_insert_many(batches, time):
            calls.append((time, *batches))
            return insert_many(batches, time)

        edb.insert_many = recording_insert_many
        engine = Engine(horizon=3)
        engine.add_stream(
            make_owner(SETStrategy(SchemaDummyFactory(Schema("A", ("v",)))), "A", edb),
            arrivals=[(2, rec(2, "A"))],
        )
        engine.add_stream(
            make_owner(SURStrategy(SchemaDummyFactory(Schema("B", ("v",)))), "B", edb),
            arrivals=[(1, rec(1, "B")), (3, rec(3, "B"))],
        )
        engine.run()
        assert calls == [(1, "A"), (1, "B"), (2, "A"), (3, "A"), (3, "B")]

    def test_arrivals_beyond_horizon_are_dropped(self):
        seen, _ = run_recorder(5, arrivals=[(4, rec(4)), (6, rec(6))])
        assert seen == [("T", 4, 4)]

    def test_non_increasing_arrival_times_rejected(self):
        with pytest.raises(ValueError):
            run_recorder(10, arrivals=[(4, rec(4)), (4, rec(4))])

    def test_next_event_in_the_past_rejected(self):
        with pytest.raises(ValueError):
            run_recorder(10, every=-1)

    def test_run_only_once_and_no_late_registration(self):
        engine = Engine(horizon=1)
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()
        with pytest.raises(RuntimeError):
            engine.add_stream(make_owner(Recorder([])))
        with pytest.raises(RuntimeError):
            engine.add_periodic(1, lambda t: None)

    def test_periodic_interval_validation(self):
        engine = Engine(horizon=5)
        with pytest.raises(ValueError):
            engine.add_periodic(0, lambda t: None)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            Engine(horizon=-1)

    def test_skips_quiet_stretches(self):
        """A sparse stream over a huge horizon is one segment of O(arrivals) work."""
        owner = make_owner(SURStrategy(SchemaDummyFactory(Schema("T", ("v",)))))
        engine = Engine(horizon=1_000_000)
        engine.add_stream(owner, arrivals=[(999_999, rec(999_999))])
        stats = engine.run()
        assert stats.segments == 1
        assert stats.arrivals_delivered == 1
        assert stats.events_processed <= 3
        assert owner.update_pattern.as_tuples() == ((0, 0), (999_999, 1))
        assert owner.current_time == 1_000_000

    def test_arrivals_delivered_counts_only_arrival_wakeups(self):
        """Self-scheduled wake-ups do not count as arrivals."""
        seen, stats = run_recorder(10, arrivals=[(2, rec(2)), (5, rec(5))], every=3)
        assert stats.arrivals_delivered == 2
        assert len(seen) > stats.arrivals_delivered

    def test_segments_end_at_every_periodic_and_the_horizon(self):
        seen, stats = run_recorder(10, periodic=4)
        assert [t for label, t, _ in seen if label == "Q"] == [4, 8]
        assert stats.segments == 3
        assert stats.periodic_fired == 2

    def test_resumed_engine_skips_processed_arrivals(self):
        seen = []
        owner = make_owner(Recorder(seen))
        owner.advance(4, [(2, rec(2))])
        engine = Engine(horizon=8, start_time=4)
        engine.add_stream(owner, arrivals=[(2, rec(2)), (6, rec(6))])
        engine.run()
        assert seen == [("T", 2, 2), ("T", 6, 6)]
