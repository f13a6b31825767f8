"""Synchronization-strategy interface.

A strategy is the ``Sync`` algorithm of Definition 1: a stateful, possibly
probabilistic procedure that observes the owner's incoming logical updates
and decides, at every time step, whether to run the Update protocol and with
how many records.  The strategy owns the local cache and is the *only*
component allowed to read from it, which makes the privacy argument local to
this package.

Strategies decide one time unit at a time through :meth:`SyncStrategy.step`,
or a whole segment of time units at once through
:meth:`SyncStrategy.advance`, whose per-strategy kernels leave exactly the
state stepping every time unit would.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import CacheMode, LocalCache
from repro.dp.composition import PrivacyAccountant
from repro.dp.mechanisms import LaplaceBlockStream
from repro.edb.records import Record

__all__ = ["SyncDecision", "SyncStrategy"]


@dataclass(frozen=True)
class SyncDecision:
    """The outcome of one strategy step.

    Attributes
    ----------
    should_sync:
        Whether the owner must run the Update protocol this time step.
    records:
        The records ``γ_t`` to upload (real records read from the cache plus
        any dummy padding).  Empty when ``should_sync`` is false.  Note that a
        synchronization signal with an *empty* record set is still possible
        (e.g. a Perturb call whose noisy count came out non-positive followed
        by a flush of size 0); the owner skips the Update call in that case
        because an empty update would itself be observable.
    reason:
        Human-readable trigger (``"receipt"``, ``"timer"``, ``"threshold"``,
        ``"flush"``, combinations thereof) used by reports and tests.
    """

    should_sync: bool
    records: tuple[Record, ...] = ()
    reason: str = ""

    @property
    def volume(self) -> int:
        """Update volume ``|γ_t|`` carried by this decision."""
        return len(self.records)

    @property
    def real_count(self) -> int:
        """Number of real (non-dummy) records in the decision."""
        return sum(1 for record in self.records if not record.is_dummy)

    @property
    def dummy_count(self) -> int:
        """Number of dummy records in the decision."""
        return sum(1 for record in self.records if record.is_dummy)

    @staticmethod
    def no_sync() -> "SyncDecision":
        """A decision that performs no synchronization."""
        return SyncDecision(should_sync=False)


class SyncStrategy(abc.ABC):
    """Base class for synchronization strategies.

    Parameters
    ----------
    dummy_factory:
        Callable producing dummy records for cache padding / SET updates.
    rng:
        Random generator for the DP noise.  Defaults to a fresh unseeded
        generator; experiments pass a seeded one.
    cache_mode:
        FIFO (default) or LIFO ordering of the local cache.
    """

    #: Short machine-readable name, set by subclasses (e.g. ``"dp-timer"``).
    name: str = "abstract"

    def __init__(
        self,
        dummy_factory: Callable[[int], Record],
        rng: np.random.Generator | None = None,
        cache_mode: CacheMode = CacheMode.FIFO,
    ) -> None:
        self._dummy_factory = dummy_factory
        self._rng = rng if rng is not None else np.random.default_rng()
        # All Laplace noise of the strategy flows through one block-predrawn
        # stream: the k-th draw is bit-identical to the k-th direct draw from
        # ``self._rng`` (see LaplaceBlockStream), but the per-event dispatch
        # overhead is amortized over whole blocks.  Strategies needing other
        # distributions must keep using ``self._rng`` directly and forgo the
        # stream (mixing both on one generator would reorder the bit stream).
        self._noise = LaplaceBlockStream(self._rng)
        self.cache = LocalCache(dummy_factory, mode=cache_mode)
        self.accountant = PrivacyAccountant()
        self._received_total = 0
        self._synced_real_total = 0
        self._synced_dummy_total = 0
        self._sync_count = 0
        self._initialized = False

    # -- abstract surface -----------------------------------------------------

    @property
    @abc.abstractmethod
    def epsilon(self) -> float:
        """Update-pattern privacy guarantee of the strategy.

        ``float("inf")`` for SUR (no guarantee), ``0.0`` for OTO/SET (their
        update pattern is data independent) and the configured budget for the
        DP strategies.
        """

    @abc.abstractmethod
    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        """Select ``γ_0`` given the initial database (already cached)."""

    @abc.abstractmethod
    def _step(self, time: int, update: Record | None) -> SyncDecision:
        """Strategy-specific per-step logic (update already cached if needed)."""

    # -- scheduling hint --------------------------------------------------------

    def next_event(self, now: int) -> int | None:
        """Next time after ``now`` the strategy must be stepped absent arrivals.

        Used by the generic :meth:`advance`, which steps the strategy at
        every arrival and at every time returned here and skips the time
        units in between.  Skipping a tick is sound only when :meth:`_step`
        at that tick would be a pure no-op: no state change, no RNG draw, no
        synchronization decision.  ``None`` means the strategy never acts
        without an arrival.  The default of ``now + 1`` (wake every tick) is
        always safe.  Strategies with their own :meth:`_advance` kernel do
        not consult it.
        """
        return now + 1

    # -- template methods ------------------------------------------------------

    def setup(self, initial: Sequence[Record]) -> list[Record]:
        """Process the initial database ``D_0`` and return ``γ_0``.

        The initial records are written to the local cache first (matching
        Algorithm 1/3, which assume ``D_0`` starts in the cache); the
        strategy-specific hook then selects what to outsource.
        """
        if self._initialized:
            raise RuntimeError("setup() may only be called once per strategy instance")
        self._initialized = True
        initial = list(initial)
        for record in initial:
            self.cache.write(record)
        self._received_total += len(initial)
        gamma0 = self._initial_records(initial)
        self._note_outgoing(gamma0)
        return gamma0

    def step(self, time: int, update: Record | None) -> SyncDecision:
        """Advance one time unit with logical update ``u_t`` (or ``None``)."""
        if not self._initialized:
            raise RuntimeError("step() called before setup()")
        if time <= 0:
            raise ValueError("time steps start at 1 (time 0 is the setup step)")
        if update is not None:
            if update.is_dummy:
                raise ValueError("logical updates are never dummy records")
            self._received_total += 1
        decision = self._step(time, update)
        if decision.should_sync:
            self._sync_count += 1
            self._note_outgoing(decision.records)
        return decision

    def advance(
        self, last: int, end: int, arrivals: Sequence[tuple[int, Record]]
    ) -> list[tuple[int, tuple[Record, ...]]]:
        """Process time units ``last + 1 .. end`` in one call.

        ``arrivals`` holds the segment's logical updates as ``(t, u_t)``
        pairs with strictly increasing ``last < t <= end``; every other time
        unit of the segment has no update.  Returns the synchronizations as
        ``(t, γ_t)`` pairs in time order, one per decision with
        ``should_sync``, and leaves every piece of strategy state (cache,
        noise consumption, accountant, counters) exactly as calling
        :meth:`step` at every time unit of the segment would.
        """
        if not self._initialized:
            raise RuntimeError("advance() called before setup()")
        if last < 0:
            raise ValueError("time steps start at 1 (time 0 is the setup step)")
        previous = last
        for time, update in arrivals:
            if not previous < time <= end:
                raise ValueError(
                    f"arrival times must increase strictly within ({last}, {end}]"
                    f" (got {time} after {previous})"
                )
            if update.is_dummy:
                raise ValueError("logical updates are never dummy records")
            previous = time
        self._received_total += len(arrivals)
        syncs = self._advance(last, end, arrivals)
        self._sync_count += len(syncs)
        self._note_outgoing([record for _, records in syncs for record in records])
        return syncs

    def _advance(
        self, last: int, end: int, arrivals: Sequence[tuple[int, Record]]
    ) -> list[tuple[int, tuple[Record, ...]]]:
        """Segment kernel behind :meth:`advance` (arrivals already validated
        and counted).

        The generic kernel wakes the strategy at every arrival and every
        :meth:`next_event` time and calls :meth:`_step` there; subclasses
        replace it with a bulk kernel that produces the same result.
        """
        syncs: list[tuple[int, tuple[Record, ...]]] = []
        index = 0
        now = last
        while True:
            wake = self.next_event(now)
            if wake is not None and wake <= now:
                raise ValueError(
                    f"{type(self).__name__}.next_event must be in the future "
                    f"(got {wake} at time {now})"
                )
            arrival = arrivals[index][0] if index < len(arrivals) else None
            now = min((t for t in (wake, arrival) if t is not None), default=end + 1)
            if now > end:
                return syncs
            update = None
            if now == arrival:
                update = arrivals[index][1]
                index += 1
            decision = self._step(now, update)
            if decision.should_sync:
                syncs.append((now, decision.records))

    # -- bookkeeping ------------------------------------------------------------

    def _note_outgoing(self, records: Sequence[Record]) -> None:
        self._synced_real_total += sum(1 for r in records if not r.is_dummy)
        self._synced_dummy_total += sum(1 for r in records if r.is_dummy)

    def make_dummy(self, time: int) -> Record:
        """Create a dummy record (delegates to the configured factory)."""
        return self._dummy_factory(time)

    @property
    def received_total(self) -> int:
        """Real records received so far (including the initial database)."""
        return self._received_total

    @property
    def synced_real_total(self) -> int:
        """Real records synchronized to the server so far."""
        return self._synced_real_total

    @property
    def synced_dummy_total(self) -> int:
        """Dummy records synchronized to the server so far."""
        return self._synced_dummy_total

    @property
    def sync_count(self) -> int:
        """Number of Update-protocol invocations signalled so far (excluding setup)."""
        return self._sync_count

    @property
    def pending(self) -> int:
        """Records currently held in the local cache."""
        return len(self.cache)

    @property
    def logical_gap(self) -> int:
        """Records received but not yet outsourced (Section 4.5.2)."""
        return max(0, self._received_total - self._synced_real_total)
