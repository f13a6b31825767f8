"""Tests for the reference loop's simulation clock and the result containers."""

from __future__ import annotations

import pytest

from repro.testing.reference import SimulationClock
from repro.simulation.results import QueryTrace, RunResult, TimePoint


class TestSimulationClock:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationClock(horizon=-1)
        with pytest.raises(ValueError):
            SimulationClock(horizon=10, query_interval=-2)

    def test_tick_and_horizon(self):
        clock = SimulationClock(horizon=3)
        assert [clock.tick() for _ in range(3)] == [1, 2, 3]
        with pytest.raises(RuntimeError):
            clock.tick()

    def test_query_schedule(self):
        clock = SimulationClock(horizon=10, query_interval=3)
        query_times = [t for t in clock.iter_ticks() if clock.is_query_time()]
        assert query_times == [3, 6, 9]
        assert clock.query_times() == (3, 6, 9)

    def test_zero_interval_disables_queries(self):
        clock = SimulationClock(horizon=5, query_interval=0)
        assert not any(clock.is_query_time() for _ in clock.iter_ticks())
        assert clock.query_times() == ()

    def test_remaining(self):
        clock = SimulationClock(horizon=5)
        clock.tick()
        assert clock.remaining() == 4


class TestRunResult:
    @pytest.fixture
    def result(self):
        result = RunResult(strategy="dp-timer", backend="ObliDB", epsilon=0.5)
        for t, err, qet in [(360, 3.0, 1.0), (720, 5.0, 2.0), (1080, 1.0, 3.0)]:
            result.add_query_trace(QueryTrace(t, "Q1", err, qet))
            result.add_query_trace(QueryTrace(t, "Q2", err * 2, qet * 2))
        for i, t in enumerate((360, 720, 1080)):
            result.add_time_point(
                TimePoint(
                    time=t,
                    outsourced_records=100 * (i + 1),
                    dummy_records=10 * (i + 1),
                    storage_bytes=1e6 * (i + 1),
                    dummy_bytes=1e5 * (i + 1),
                    logical_gap=i,
                    logical_size=90 * (i + 1),
                )
            )
        return result

    def test_query_names_in_order(self, result):
        assert result.query_names() == ("Q1", "Q2")

    def test_per_query_aggregates(self, result):
        assert result.mean_l1_error("Q1") == pytest.approx(3.0)
        assert result.max_l1_error("Q1") == 5.0
        assert result.mean_qet("Q2") == pytest.approx(4.0)
        assert result.mean_l1_error("missing") == 0.0
        assert result.max_l1_error("missing") == 0.0
        assert result.mean_qet("missing") == 0.0

    def test_overall_aggregates(self, result):
        assert result.overall_mean_l1_error() == pytest.approx((3 + 5 + 1 + 6 + 10 + 2) / 6)
        assert result.overall_mean_qet() == pytest.approx((1 + 2 + 3 + 2 + 4 + 6) / 6)

    def test_timeline_aggregates(self, result):
        assert result.mean_logical_gap() == pytest.approx(1.0)
        assert result.total_data_megabytes() == pytest.approx(3.0)
        assert result.dummy_data_megabytes() == pytest.approx(0.3)
        final = result.final_time_point()
        assert final is not None and final.time == 1080

    def test_series_accessors(self, result):
        assert result.error_series("Q1") == ((360, 3.0), (720, 5.0), (1080, 1.0))
        assert result.qet_series("Q2") == ((360, 2.0), (720, 4.0), (1080, 6.0))
        sizes = result.size_series()
        assert sizes[0] == (360, 1.0, 0.1)

    def test_summary_keys(self, result):
        summary = result.summary()
        assert "Q1/mean_l1" in summary
        assert "Q2/mean_qet" in summary
        assert summary["total_data_mb"] == pytest.approx(3.0)

    def test_empty_result(self):
        empty = RunResult(strategy="sur", backend="ObliDB", epsilon=float("inf"))
        assert empty.overall_mean_l1_error() == 0.0
        assert empty.mean_logical_gap() == 0.0
        assert empty.final_time_point() is None
        assert empty.total_data_megabytes() == 0.0
