"""The per-tick reference loop: the oracle the segment engine is tested against.

:func:`run_per_tick` replays a :class:`~repro.simulation.simulator.Simulation`
the slow, obvious way: every owner is ticked at every time unit through
:meth:`~repro.core.owner.Owner.tick` (one ``SyncStrategy.step`` each), and
ground truth is recomputed by rescanning the logical tables at every query
time.  ``Simulation.run`` must produce an identical
:class:`~repro.simulation.results.RunResult` at the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.simulation.results import RunResult
    from repro.simulation.simulator import Simulation

__all__ = ["SimulationClock", "run_per_tick"]


@dataclass
class SimulationClock:
    """Counts discrete time units from 1 to ``horizon``.

    Attributes
    ----------
    horizon:
        Last time unit (inclusive).
    query_interval:
        Queries are issued whenever ``now % query_interval == 0``;
        0 disables scheduled queries.
    """

    horizon: int
    query_interval: int = 0
    now: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.query_interval < 0:
            raise ValueError("query_interval must be non-negative")

    def tick(self) -> int:
        """Advance one time unit and return the new time."""
        if self.now >= self.horizon:
            raise RuntimeError("clock advanced past its horizon")
        self.now += 1
        return self.now

    def is_query_time(self) -> bool:
        """Whether queries are scheduled for the current time unit."""
        if self.query_interval == 0 or self.now == 0:
            return False
        return self.now % self.query_interval == 0

    def remaining(self) -> int:
        """Time units left before the horizon."""
        return self.horizon - self.now

    def iter_ticks(self) -> Iterator[int]:
        """Iterate over all remaining time units, advancing the clock."""
        while self.now < self.horizon:
            yield self.tick()

    def query_times(self) -> tuple[int, ...]:
        """All scheduled query times over the full horizon."""
        if self.query_interval == 0:
            return ()
        return tuple(range(self.query_interval, self.horizon + 1, self.query_interval))


def run_per_tick(simulation: "Simulation") -> "RunResult":
    """Run ``simulation`` with the per-tick loop and full ground-truth rescans."""
    ctx = simulation._build(incremental_truth=False)
    try:
        clock = SimulationClock(
            horizon=ctx.horizon, query_interval=simulation._config.query_interval
        )
        for time in clock.iter_ticks():
            for stream, owner in ctx.owners.items():
                owner.tick(time, simulation._workloads[stream].update_at(time))
            if clock.is_query_time():
                simulation._observe(time, ctx)
        return simulation._finalize(ctx)
    finally:
        simulation._close_edb(ctx)
