"""Cache-flush mechanism.

Both DP strategies bound their logical gap only in a high-probability sense;
over an indefinitely growing database the cache could still drift.  The paper
therefore adds a flush mechanism: every ``interval`` time units the owner
synchronizes exactly ``size`` records (padding with dummies when the cache
holds fewer).  Because both the schedule and the volume are fixed constants,
the flush is data independent and costs no privacy (it is the ``M_flush``
component, 0-DP, in the proofs of Theorems 10/11).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlushPolicy"]


@dataclass(frozen=True)
class FlushPolicy:
    """Fixed-interval, fixed-volume cache flush.

    Attributes
    ----------
    interval:
        Flush period ``f`` in time units.  The paper's default is 2000.
    size:
        Number of records ``s`` synchronized by each flush (default 15).
    enabled:
        Allows experiments (and the flush ablation bench) to switch the
        mechanism off entirely.
    """

    interval: int = 2000
    size: int = 15
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("flush interval must be positive")
        if self.size < 0:
            raise ValueError("flush size must be non-negative")

    def should_flush(self, time: int) -> bool:
        """Whether a flush is scheduled at ``time`` (time > 0)."""
        if not self.enabled or self.size == 0:
            return False
        return time > 0 and time % self.interval == 0

    def dummy_volume_by(self, time: int) -> int:
        """The ``eta = size * floor(time / interval)`` term of Theorems 7/9."""
        if not self.enabled:
            return 0
        return self.size * (time // self.interval)

    def ticks_between(self, last: int, end: int) -> range:
        """The flush ticks in ``(last, end]``, in order.

        The segment kernels of both DP strategies cut their work at these
        ticks; deriving them here keeps them in step with
        :meth:`should_flush`.
        """
        if not self.enabled or self.size == 0:
            return range(0)
        return range((last // self.interval + 1) * self.interval, end + 1, self.interval)

    @staticmethod
    def disabled() -> "FlushPolicy":
        """A policy that never flushes."""
        return FlushPolicy(interval=1, size=0, enabled=False)
