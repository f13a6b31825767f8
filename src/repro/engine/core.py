"""The segment engine.

:class:`Engine` replays owners over simulated time one *segment* at a time.
It cuts ``(start, horizon]`` at every multiple of each periodic callback's
interval (the query schedule) and at the horizon.  For each segment it

1. pulls each owner's arrivals of the segment from its lazy
   ``(time, record)`` iterator;
2. advances every owner over the whole segment in one call
   (:meth:`repro.core.owner.Owner.advance`, which hands the segment to its
   strategy's bulk kernel, :meth:`~repro.core.strategies.base.SyncStrategy.advance`);
3. merges the owners' ``(time, γ_t)`` synchronizations by
   ``(time, owner index)`` and runs each through the Update protocol
   (:meth:`~repro.core.owner.Owner.outsource`);
4. feeds the segment's arrivals to the incremental ground truth, one
   block per table, in that same merged order;
5. fires the periodic callbacks due at the segment's end, in registration
   order.

Nothing observes the system inside a segment, and the strategies' kernels
decide every time unit exactly as per-tick stepping would, so the Update
calls reach the EDB in the order of the per-tick loop -- all owners of time
``t`` in registration order, before any owner of ``t + 1`` -- and every
periodic sees the state that loop would have shown it.  The per-tick loop
survives as the test oracle :func:`repro.testing.reference.run_per_tick`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.edb.records import Record

if TYPE_CHECKING:
    from repro.core.owner import Owner
    from repro.query.incremental import IncrementalTruth

__all__ = ["Engine", "EngineStats"]


@dataclass
class EngineStats:
    """Work counters of one engine run (exposed for tests and benchmarks)."""

    segments: int = 0
    #: Owner advances plus periodic firings.
    events_processed: int = 0
    arrivals_delivered: int = 0
    periodic_fired: int = 0
    #: Always 0: a segment never wakes an owner twice for one time unit.
    #: Kept for readers of the per-tick scheduler's counter of that name.
    stale_skipped: int = 0


@dataclass
class _Feed:
    """One owner and its arrival iterator, read ahead by one entry."""

    owner: "Owner"
    arrivals: Iterator[tuple[int, Record]]
    pending: tuple[int, Record] | None = None
    last_time: int | None = None

    def advance(self) -> None:
        """Read the next arrival into :attr:`pending`."""
        entry = next(self.arrivals, None)
        if entry is None:
            self.pending = None
            return
        if self.last_time is not None and entry[0] <= self.last_time:
            raise ValueError(
                f"stream {self.owner.name!r}: arrival times must be strictly "
                f"increasing (got {entry[0]} after {self.last_time})"
            )
        self.last_time = entry[0]
        self.pending = entry

    def take(self, end: int) -> list[tuple[int, Record]]:
        """The arrivals up to and including ``end``."""
        block = []
        while self.pending is not None and self.pending[0] <= end:
            block.append(self.pending)
            self.advance()
        return block


@dataclass
class _Periodic:
    callback: Callable[[int], object]
    interval: int


class Engine:
    """Segment-at-a-time replay of owners bounded by ``horizon`` time units.

    ``start_time`` is the last time unit already processed, e.g. by the run
    a persisted snapshot was taken from; every registered owner must be at
    that time.  ``truth`` receives every arrival the engine delivers.
    """

    def __init__(
        self,
        horizon: int,
        start_time: int = 0,
        truth: "IncrementalTruth | None" = None,
    ) -> None:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not 0 <= start_time <= horizon:
            raise ValueError(
                f"start_time must be in [0, {horizon}], got {start_time}"
            )
        self._horizon = horizon
        self._start_time = start_time
        self._truth = truth
        self._feeds: list[_Feed] = []
        self._periodics: list[_Periodic] = []
        self._stats = EngineStats()
        self._ran = False

    @property
    def horizon(self) -> int:
        """Last time unit (inclusive) the engine will process."""
        return self._horizon

    @property
    def stats(self) -> EngineStats:
        """Work counters (populated by :meth:`run`)."""
        return self._stats

    # -- registration -----------------------------------------------------------

    def add_stream(
        self, owner: "Owner", arrivals: Iterable[tuple[int, Record]] = ()
    ) -> None:
        """Register an owner and its arrivals.

        ``arrivals`` yields ``(time, record)`` pairs with strictly increasing
        times (e.g. :meth:`GrowingDatabase.arrivals`).  It is first read when
        :meth:`run` starts, and then only as far as the current segment;
        arrivals at or before ``start_time`` are skipped.
        """
        if self._ran:
            raise RuntimeError("streams must be registered before run()")
        self._feeds.append(_Feed(owner=owner, arrivals=iter(arrivals)))

    def add_periodic(self, interval: int, callback: Callable[[int], object]) -> None:
        """Register ``callback(time)`` to fire at every multiple of ``interval``."""
        if self._ran:
            raise RuntimeError("periodic callbacks must be registered before run()")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._periodics.append(_Periodic(callback=callback, interval=interval))

    # -- execution ----------------------------------------------------------------

    def run(self) -> EngineStats:
        """Replay every segment up to the horizon (once per engine)."""
        if self._ran:
            raise RuntimeError("an Engine instance may only run once")
        self._ran = True
        for feed in self._feeds:
            feed.advance()
            feed.take(self._start_time)
        for end in self._segment_ends():
            self._segment(end)
            for periodic in self._periodics:
                if end % periodic.interval == 0:
                    periodic.callback(end)
                    self._stats.periodic_fired += 1
                    self._stats.events_processed += 1
        return self._stats

    # -- internals ------------------------------------------------------------------

    def _segment_ends(self) -> list[int]:
        start, horizon = self._start_time, self._horizon
        ends = {horizon} if horizon > start else set()
        for periodic in self._periodics:
            first = (start // periodic.interval + 1) * periodic.interval
            ends.update(range(first, horizon + 1, periodic.interval))
        return sorted(ends)

    def _segment(self, end: int) -> None:
        stats = self._stats
        stats.segments += 1
        blocks = []
        syncs = []
        for index, feed in enumerate(self._feeds):
            block = feed.take(end)
            blocks.append(block)
            stats.arrivals_delivered += len(block)
            syncs.append(
                [(time, index, records) for time, records in feed.owner.advance(end, block)]
            )
            stats.events_processed += 1
        for time, index, records in heapq.merge(*syncs):
            if records:
                self._feeds[index].owner.outsource(time, records)
        if self._truth is not None:
            self._ingest(blocks)

    def _ingest(self, blocks: list[list[tuple[int, Record]]]) -> None:
        """Feed the segment's arrivals to the ground truth, one block per table."""
        by_table: dict[str, list[list[tuple[int, int, Record]]]] = {}
        for index, (feed, block) in enumerate(zip(self._feeds, blocks)):
            by_table.setdefault(feed.owner.table, []).append(
                [(time, index, record) for time, record in block]
            )
        for table, entries in by_table.items():
            records = [record for _, _, record in heapq.merge(*entries)]
            if records:
                self._truth.ingest(table, records)
