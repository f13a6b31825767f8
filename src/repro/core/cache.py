"""The owner's local cache (Section 3.2.1).

The local cache is a lightweight client-side buffer holding records the owner
has received but not yet synchronized.  It supports exactly the three
operations the paper defines:

* ``len(cache)``            -- number of cached records;
* ``cache.write(record)``   -- append a record;
* ``cache.read(n)``         -- pop the first ``n`` records; if fewer than
  ``n`` are cached, the result is padded with freshly created dummy records.

The default FIFO mode guarantees that records are uploaded in arrival order,
which is what gives DP-Sync the strong eventual-consistency property (P3).  A
LIFO mode is provided for the alternative scenario the paper sketches
(analyst only cares about the most recent records); tests cover both.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Iterable

from repro.edb.records import Record

__all__ = ["CacheMode", "LocalCache"]


class CacheMode(enum.Enum):
    """Ordering discipline of the local cache."""

    FIFO = "fifo"
    LIFO = "lifo"


class LocalCache:
    """Client-side record buffer with dummy-padded reads.

    Parameters
    ----------
    dummy_factory:
        Callable producing a dummy record for a given arrival time; used to
        pad reads when the cache holds fewer records than requested.
    mode:
        FIFO (default, paper's choice) or LIFO.
    """

    def __init__(
        self,
        dummy_factory: Callable[[int], Record],
        mode: CacheMode = CacheMode.FIFO,
    ) -> None:
        self._dummy_factory = dummy_factory
        self._mode = mode
        self._buffer: deque[Record] = deque()
        self._total_written = 0
        self._total_read = 0
        self._total_dummies_issued = 0

    # -- the paper's three operations ---------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    def write(self, record: Record) -> None:
        """Append ``record`` to the cache (``write(σ, r)``)."""
        if record.is_dummy:
            raise ValueError("dummy records are generated on read, never cached")
        self._buffer.append(record)
        self._total_written += 1

    def read(self, n: int, current_time: int = 0) -> list[Record]:
        """Pop ``n`` records (``read(σ, n)``), padding with dummies if needed.

        Parameters
        ----------
        n:
            Number of records requested; must be non-negative.
        current_time:
            Arrival time stamped onto generated dummy records (for metrics
            only -- the server never sees it).
        """
        if n < 0:
            raise ValueError(f"read size must be non-negative, got {n}")
        pop = self._buffer.popleft if self._mode is CacheMode.FIFO else self._buffer.pop
        popped = [pop() for _ in range(min(n, len(self._buffer)))]
        self._total_read += len(popped)
        shortfall = n - len(popped)
        if shortfall > 0:
            dummies = [self._dummy_factory(current_time) for _ in range(shortfall)]
            self._total_dummies_issued += shortfall
            popped.extend(dummies)
        return popped

    # -- extra helpers --------------------------------------------------------

    def drain(self, current_time: int = 0) -> list[Record]:
        """Pop every cached record (no dummy padding)."""
        return self.read(len(self._buffer), current_time)

    def peek_all(self) -> tuple[Record, ...]:
        """Non-destructive view of the cached records in storage order."""
        return tuple(self._buffer)

    def extend(self, records: Iterable[Record]) -> None:
        """Write several records in order (``write`` for each)."""
        records = list(records)
        if any(record.is_dummy for record in records):
            raise ValueError("dummy records are generated on read, never cached")
        self._buffer.extend(records)
        self._total_written += len(records)

    @property
    def mode(self) -> CacheMode:
        """The cache's ordering discipline."""
        return self._mode

    @property
    def total_written(self) -> int:
        """Number of real records ever written to the cache."""
        return self._total_written

    @property
    def total_read(self) -> int:
        """Number of real records ever popped from the cache."""
        return self._total_read

    @property
    def total_dummies_issued(self) -> int:
        """Number of dummy records generated to pad reads."""
        return self._total_dummies_issued
