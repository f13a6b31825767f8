"""The growing-database abstraction (Section 4.1).

A growing database is an initial database ``D_0`` plus a stream of logical
updates ``U = {u_t}``, where each ``u_t`` is either a single record (the
record received at time ``t``) or ``None`` (nothing arrived).  The logical
database at time ``t`` is ``D_t = D_0 ∪ u_1 ∪ ... ∪ u_t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.edb.records import Record

__all__ = ["GrowingDatabase"]


@dataclass
class GrowingDatabase:
    """An initial database plus a timestamped stream of logical updates.

    Attributes
    ----------
    table:
        Name of the table all records belong to.
    initial:
        ``D_0`` -- the records available before time 1.
    updates:
        ``updates[i]`` is the logical update ``u_{i+1}`` (a record or
        ``None``); its length is the stream horizon ``L``.
    """

    table: str
    initial: list[Record] = field(default_factory=list)
    updates: list[Record | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        for record in self.initial:
            self._check(record, 0)
        for index, update in enumerate(self.updates):
            if update is not None:
                self._check(update, index + 1)

    def _check(self, record: Record, time: int) -> None:
        if record.is_dummy:
            raise ValueError("growing databases contain only real records")
        if record.table != self.table:
            raise ValueError(
                f"record targets table {record.table!r}, expected {self.table!r}"
            )

    # -- basic shape -----------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of time units in the update stream (``L``)."""
        return len(self.updates)

    @property
    def total_records(self) -> int:
        """``|D_L|`` -- initial records plus all non-null updates."""
        return len(self.initial) + sum(1 for u in self.updates if u is not None)

    @property
    def occupancy(self) -> float:
        """Fraction of time units that carry a logical update."""
        if not self.updates:
            return 0.0
        return sum(1 for u in self.updates if u is not None) / len(self.updates)

    def update_indicator(self) -> list[bool]:
        """``[u_t != None]`` for t = 1..L (used by the Table 4 mechanisms)."""
        return [update is not None for update in self.updates]

    # -- views -------------------------------------------------------------------

    def update_at(self, time: int) -> Record | None:
        """The logical update ``u_t`` (time is 1-based; 0 has no update)."""
        if time <= 0 or time > len(self.updates):
            return None
        return self.updates[time - 1]

    def logical_at(self, time: int) -> list[Record]:
        """``D_t``: every record received up to and including time ``time``."""
        records = list(self.initial)
        for t in range(1, min(time, len(self.updates)) + 1):
            update = self.updates[t - 1]
            if update is not None:
                records.append(update)
        return records

    def logical_size_at(self, time: int) -> int:
        """``|D_t|`` without materializing the record list."""
        bounded = min(max(time, 0), len(self.updates))
        return len(self.initial) + sum(
            1 for u in self.updates[:bounded] if u is not None
        )

    def iter_times(self) -> Iterator[tuple[int, Record | None]]:
        """Iterate ``(t, u_t)`` for t = 1..horizon."""
        for index, update in enumerate(self.updates):
            yield index + 1, update

    def arrivals(self) -> Iterator[tuple[int, Record]]:
        """Iterate only the non-empty updates as ``(t, u_t)`` pairs.

        This is the feed the segment engine reads: on a sparse stream it
        visits each arrival once instead of probing :meth:`update_at` at
        every time unit.  Times are strictly increasing.
        """
        for index, update in enumerate(self.updates):
            if update is not None:
                yield index + 1, update

    def truncated(self, horizon: int) -> "GrowingDatabase":
        """A copy limited to the first ``horizon`` time units."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        return GrowingDatabase(
            table=self.table,
            initial=list(self.initial),
            updates=list(self.updates[:horizon]),
        )

    @classmethod
    def from_timestamped_records(
        cls, table: str, records: Sequence[Record], horizon: int
    ) -> "GrowingDatabase":
        """Build a growing database from records carrying ``arrival_time``.

        Records with ``arrival_time == 0`` form ``D_0``; at most one record
        may arrive per later time unit (matching the paper's simplification);
        a second record in the same minute raises ``ValueError`` -- the
        cleaning pipeline (:func:`repro.workload.nyc_taxi.clean_taxi_rows`)
        removes such duplicates beforehand.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        initial: list[Record] = []
        updates: list[Record | None] = [None] * horizon
        for record in records:
            t = record.arrival_time
            if t == 0:
                initial.append(record)
                continue
            if t > horizon:
                raise ValueError(f"record arrival time {t} exceeds horizon {horizon}")
            if updates[t - 1] is not None:
                raise ValueError(f"multiple records arrive at time unit {t}")
            updates[t - 1] = record
        return cls(table=table, initial=initial, updates=updates)
