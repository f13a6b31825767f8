"""DP-Timer synchronization (Algorithm 1).

DP-Timer synchronizes on a fixed schedule -- every ``T`` time units -- but
perturbs the *number* of records carried by each synchronization with
``Lap(1/epsilon)`` noise via the ``Perturb`` operator.  Because the schedule
is data independent and each window's count touches a disjoint slice of the
logical update stream, the overall update pattern is ``epsilon``-DP (parallel
composition across windows; Theorem 10).

The cache-flush mechanism (fixed interval ``f``, fixed size ``s``) bounds the
logical gap of an indefinitely growing database at no additional privacy
cost.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import CacheMode
from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.perturb import perturb
from repro.edb.records import Record

__all__ = ["DPTimerStrategy"]


class DPTimerStrategy(SyncStrategy):
    """Timer-based differentially-private synchronization.

    Parameters
    ----------
    epsilon:
        Update-pattern privacy budget.
    period:
        The timer ``T``: a synchronization is signalled whenever
        ``t mod T == 0``.
    flush:
        Cache-flush policy; pass ``FlushPolicy.disabled()`` to turn it off
        (used by the flush ablation).
    count_mode:
        What the Perturb operator perturbs at each timer tick.  ``"window"``
        (default) is Algorithm 1 as printed: the number of records received
        since the last synchronization.  ``"cache"`` perturbs the current
        local-cache length instead, which continually drains the backlog of
        records deferred by earlier negative noise; it reproduces the small
        (~10 record) empirical logical gaps reported in the paper's Table 5,
        at the cost of a weaker formal composition argument (the same record
        can influence several outputs).  See the count-mode ablation bench
        and EXPERIMENTS.md.
    """

    name = "dp-timer"

    def __init__(
        self,
        dummy_factory: Callable[[int], Record],
        epsilon: float = 0.5,
        period: int = 30,
        flush: FlushPolicy | None = None,
        rng: np.random.Generator | None = None,
        cache_mode: CacheMode = CacheMode.FIFO,
        count_mode: str = "window",
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if period <= 0:
            raise ValueError("period T must be positive")
        if count_mode not in ("window", "cache"):
            raise ValueError(f"count_mode must be 'window' or 'cache', got {count_mode!r}")
        super().__init__(dummy_factory, rng=rng, cache_mode=cache_mode)
        self._epsilon = epsilon
        self._period = period
        self._flush = flush if flush is not None else FlushPolicy()
        self._count_mode = count_mode
        self._window_received = 0
        self._window_index = 0

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def period(self) -> int:
        """The timer parameter ``T``."""
        return self._period

    @property
    def flush_policy(self) -> FlushPolicy:
        """The configured cache-flush policy."""
        return self._flush

    @property
    def count_mode(self) -> str:
        """What Perturb perturbs at each tick (``"window"`` or ``"cache"``)."""
        return self._count_mode

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        gamma0 = perturb(len(initial), self._epsilon, self.cache, self._noise, 0)
        self.accountant.spend(self._epsilon, partition="setup", label="M_setup")
        return gamma0

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        if update is not None:
            self.cache.write(update)
            self._window_received += 1
        records, reasons = self._decide(time)
        if not records:
            # No timer or flush tick, or the noisy count came out
            # non-positive and no flush records were due: the owner skips
            # the Update call this round.
            return SyncDecision.no_sync()
        return SyncDecision(
            should_sync=True, records=tuple(records), reason="+".join(reasons)
        )

    def _advance(self, last, end, arrivals):
        # Between timer and flush ticks a time unit only caches its arrival.
        syncs = []
        taken = 0
        boundaries = range((last // self._period + 1) * self._period, end + 1, self._period)
        for time in sorted({*boundaries, *self._flush.ticks_between(last, end)}):
            upto = bisect_right(arrivals, time, lo=taken, key=itemgetter(0))
            self._absorb(arrivals[taken:upto])
            taken = upto
            records, _ = self._decide(time)
            if records:
                syncs.append((time, tuple(records)))
        self._absorb(arrivals[taken:])
        return syncs

    def _absorb(self, arrivals) -> None:
        self.cache.extend(update for _, update in arrivals)
        self._window_received += len(arrivals)

    def _decide(self, time: int) -> tuple[list[Record], list[str]]:
        """The timer and flush logic of one time unit, after its arrival."""
        records: list[Record] = []
        reasons: list[str] = []

        if time % self._period == 0:
            self._window_index += 1
            count = (
                self._window_received if self._count_mode == "window" else len(self.cache)
            )
            records.extend(perturb(count, self._epsilon, self.cache, self._noise, time))
            self.accountant.spend(
                self._epsilon,
                partition=f"window-{self._window_index}",
                label="M_unit",
            )
            self._window_received = 0
            reasons.append("timer")

        if self._flush.should_flush(time):
            records.extend(self.cache.read(self._flush.size, time))
            # The flush reveals a fixed (time, volume) pair regardless of the
            # data, i.e. it is 0-DP (M_flush in the proof of Theorem 10).
            self.accountant.spend(0.0, partition="flush", label="M_flush")
            reasons.append("flush")
        return records, reasons
