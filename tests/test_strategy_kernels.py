"""Segment kernels against per-tick stepping.

``SyncStrategy.advance`` runs a bulk kernel over a whole segment of time
units.  For every strategy, parameter mix, arrival layout and segment
cutting, it must leave exactly the state that calling ``step`` at every time
unit leaves: the same synchronizations (times, record ids, dummy flags), the
same counters, cache, privacy ledger and sparse-vector state, and the same
position in the noise stream -- a kernel that consumes one variate too many
or too few fails on the next variates drawn.  The ``wake-loop`` kind runs
DP-ANT's ``_step`` through the base class's generic wake loop, the path any
strategy without its own kernel takes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheMode
from repro.core.strategies.base import SyncStrategy
from repro.core.strategies.dp_ant import DPANTStrategy
from repro.core.strategies.dp_timer import DPTimerStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.naive import OTOStrategy, SETStrategy, SURStrategy
from repro.edb.records import Record, Schema, SchemaDummyFactory

SCHEMA = Schema("T", ("v",))

KINDS = (
    "sur",
    "oto",
    "set",
    "dp-timer-window",
    "dp-timer-cache",
    "dp-ant-resampled",
    "dp-ant-held",
    "wake-loop",
)


class WakeLoopDPANT(DPANTStrategy):
    """DP-ANT driven by the base class's generic wake loop (every tick)."""

    _advance = SyncStrategy._advance


def build(kind, params):
    common = dict(
        dummy_factory=SchemaDummyFactory(SCHEMA),
        rng=np.random.default_rng(params["seed"]),
        cache_mode=params["cache_mode"],
    )
    flush = params["flush"]
    if kind == "sur":
        return SURStrategy(**common)
    if kind == "oto":
        return OTOStrategy(**common)
    if kind == "set":
        return SETStrategy(**common)
    if kind.startswith("dp-timer"):
        return DPTimerStrategy(
            epsilon=params["epsilon"],
            period=params["period"],
            flush=flush,
            count_mode=kind.rsplit("-", 1)[1],
            **common,
        )
    strategy = WakeLoopDPANT if kind == "wake-loop" else DPANTStrategy
    return strategy(
        epsilon=params["epsilon"],
        theta=params["theta"],
        flush=flush,
        resample_comparison_noise=kind != "dp-ant-held",
        **common,
    )


@st.composite
def scenarios(draw):
    horizon = draw(st.integers(min_value=1, max_value=400))
    density = draw(st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0)))
    layout = np.random.default_rng(draw(st.integers(0, 2**16)))
    times = np.flatnonzero(layout.random(horizon) < density) + 1
    cuts = draw(st.sets(st.integers(min_value=1, max_value=horizon), max_size=8))
    flush = draw(
        st.one_of(
            st.just(FlushPolicy.disabled()),
            st.builds(
                FlushPolicy,
                interval=st.integers(min_value=1, max_value=60),
                size=st.integers(min_value=0, max_value=6),
            ),
        )
    )
    params = {
        "seed": draw(st.integers(0, 2**16)),
        "cache_mode": draw(st.sampled_from((CacheMode.FIFO, CacheMode.LIFO))),
        "flush": flush,
        "epsilon": draw(st.sampled_from((0.1, 0.5, 1.0, 4.0))),
        "period": draw(st.integers(min_value=1, max_value=40)),
        "theta": draw(st.integers(min_value=0, max_value=20)),
        "initial": draw(st.integers(min_value=0, max_value=12)),
    }
    return horizon, [int(t) for t in times], sorted(cuts | {horizon}), params


def record(t):
    return Record(values={"v": t}, arrival_time=t, table="T")


def decision_key(time, records):
    return (
        time,
        tuple(
            ("dummy", r.arrival_time) if r.is_dummy else ("real", r.record_id)
            for r in records
        ),
    )


def state(strategy):
    observed = {
        "received": strategy.received_total,
        "syncs": strategy.sync_count,
        "real": strategy.synced_real_total,
        "dummy": strategy.synced_dummy_total,
        "cache": [r.record_id for r in strategy.cache.peek_all()],
        "cache_totals": (
            strategy.cache.total_written,
            strategy.cache.total_read,
            strategy.cache.total_dummies_issued,
        ),
        "ledger": strategy.accountant.spends,
    }
    sparse = getattr(strategy, "_sparse", None)
    if sparse is not None:
        observed["sparse"] = (
            sparse.noisy_threshold,
            sparse._held_noise,
            sparse.crossings,
        )
    return observed


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_advance_matches_per_tick_step(kind, scenario):
    horizon, times, cuts, params = scenario
    initial = [record(0) for _ in range(params["initial"])]
    arrivals = {t: record(t) for t in times}

    stepped = build(kind, params)
    advanced = build(kind, params)
    assert decision_key(0, stepped.setup(initial)) == decision_key(
        0, advanced.setup(initial)
    )

    last = 0
    for end in cuts:
        expected = []
        for t in range(last + 1, end + 1):
            decision = stepped.step(t, arrivals.get(t))
            if decision.should_sync:
                expected.append(decision_key(t, decision.records))
        block = [(t, arrivals[t]) for t in times if last < t <= end]
        observed = [decision_key(t, records) for t, records in advanced.advance(last, end, block)]
        assert observed == expected
        assert state(advanced) == state(stepped)
        last = end

    assert [advanced._noise.standard() for _ in range(16)] == [
        stepped._noise.standard() for _ in range(16)
    ]


class TestAdvanceValidation:
    def make(self):
        strategy = SURStrategy(SchemaDummyFactory(SCHEMA))
        strategy.setup([])
        return strategy

    def test_requires_setup(self):
        with pytest.raises(RuntimeError):
            SURStrategy(SchemaDummyFactory(SCHEMA)).advance(0, 5, [])

    def test_time_zero_is_setup(self):
        with pytest.raises(ValueError):
            self.make().advance(-1, 5, [])

    def test_arrivals_must_lie_in_the_segment_in_order(self):
        for arrivals in ([(0, record(0))], [(6, record(6))], [(3, record(3)), (2, record(2))]):
            with pytest.raises(ValueError):
                self.make().advance(0, 5, arrivals)

    def test_dummy_arrivals_rejected(self):
        dummy = SchemaDummyFactory(SCHEMA)(2)
        with pytest.raises(ValueError):
            self.make().advance(0, 5, [(2, dummy)])
