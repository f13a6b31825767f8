"""Naive synchronization strategies (Section 5.1).

* **SUR** (synchronize upon receipt) -- uploads each record the moment it
  arrives.  Zero logical gap, zero dummies, but the update pattern *is* the
  arrival pattern, so there is no privacy (group privacy ``inf``-DP).
* **OTO** (one-time outsourcing) -- uploads only the initial database and
  then goes offline.  The update pattern is empty and hence 0-DP, but every
  record received after setup is lost to the analyst.
* **SET** (synchronize every time unit) -- uploads exactly one record per
  time unit, a real one if available and a dummy otherwise.  The update
  pattern is the constant sequence ``(t, 1)`` and hence 0-DP, but half or
  more of the outsourced data ends up being dummies on sparse workloads.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.edb.records import Record

__all__ = ["SURStrategy", "OTOStrategy", "SETStrategy"]


class SURStrategy(SyncStrategy):
    """Synchronize upon receipt: no caching, no dummies, no privacy."""

    name = "sur"

    @property
    def epsilon(self) -> float:
        return float("inf")

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        # Everything received so far is outsourced immediately.
        return self.cache.drain()

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        if update is None:
            return SyncDecision.no_sync()
        return SyncDecision(should_sync=True, records=(update,), reason="receipt")

    def _advance(self, last, end, arrivals):
        # One synchronization per arrival; quiet ticks are no-ops.
        return [(time, (update,)) for time, update in arrivals]


class OTOStrategy(SyncStrategy):
    """One-time outsourcing: upload the initial database, then stay offline."""

    name = "oto"

    @property
    def epsilon(self) -> float:
        return 0.0

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        return self.cache.drain()

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        # Received records accumulate in the cache purely for bookkeeping
        # (they are what the logical gap counts); none is ever uploaded.
        if update is not None:
            self.cache.write(update)
        return SyncDecision.no_sync()

    def _advance(self, last, end, arrivals):
        self.cache.extend(update for _, update in arrivals)
        return []


class SETStrategy(SyncStrategy):
    """Synchronize every time unit with exactly one (real or dummy) record."""

    name = "set"

    @property
    def epsilon(self) -> float:
        return 0.0

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        return self.cache.drain()

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        if update is not None:
            record = update
        else:
            record = self.make_dummy(time)
        return SyncDecision(should_sync=True, records=(record,), reason="every-step")

    def _advance(self, last, end, arrivals):
        # One record every time unit: the arrival where there is one, a
        # dummy everywhere else.
        arrived = dict(arrivals)
        make_dummy = self._dummy_factory
        return [
            (time, (arrived[time] if time in arrived else make_dummy(time),))
            for time in range(last + 1, end + 1)
        ]
