"""DP-ANT: above-noisy-threshold synchronization (Algorithm 3).

DP-ANT synchronizes when the owner has received *approximately* ``theta``
records since the last synchronization.  The comparison is performed with the
sparse-vector technique: the privacy budget is split in half, the first half
perturbs the threshold (``Lap(2/eps1)``) and the per-step counts
(``Lap(4/eps1)``), the second half feeds the ``Perturb`` fetch that decides
how many records to upload once the threshold fires.  Each
threshold-crossing round touches a disjoint slice of the update stream, so
rounds compose in parallel and the overall update pattern is
``epsilon``-DP (Theorem 11).
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
from repro.dp.mechanisms import AboveThreshold
from repro.edb.records import Record

__all__ = ["DPANTStrategy"]

#: Time units compared per vectorized sparse-vector scan.  A crossing wastes
#: the rest of its scan's comparisons (they are recomputed with the reset
#: count), so this trades numpy call overhead against that waste.
_SCAN_WIDTH = 64


class DPANTStrategy(SyncStrategy):
    """Above-noisy-threshold differentially-private synchronization.

    Parameters
    ----------
    epsilon:
        Update-pattern privacy budget; split evenly between the sparse-vector
        comparisons (``epsilon/2``) and the record fetch (``epsilon/2``).
    theta:
        The (public) threshold on the number of newly received records.
    flush:
        Cache-flush policy; ``FlushPolicy.disabled()`` turns it off.
    budget_split:
        Fraction of ``epsilon`` given to the sparse-vector side.  The paper
        uses 0.5; other values are exposed for the budget-split ablation.
    resample_comparison_noise:
        Whether the sparse-vector comparison noise is drawn fresh at every
        time step (Algorithm 3 as printed; the default) or held fixed within
        a round.  The held variant synchronizes far less often on sparse
        streams at small budgets; see the noise-resampling ablation bench.
    """

    name = "dp-ant"

    def __init__(
        self,
        dummy_factory: Callable[[int], Record],
        epsilon: float = 0.5,
        theta: int = 15,
        flush: FlushPolicy | None = None,
        rng: np.random.Generator | None = None,
        cache_mode: CacheMode = CacheMode.FIFO,
        budget_split: float = 0.5,
        resample_comparison_noise: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        if not 0.0 < budget_split < 1.0:
            raise ValueError("budget_split must be in (0, 1)")
        super().__init__(dummy_factory, rng=rng, cache_mode=cache_mode)
        self._epsilon = epsilon
        self._theta = theta
        self._flush = flush if flush is not None else FlushPolicy()
        self._budget_split = budget_split
        self._epsilon_compare = epsilon * budget_split
        self._epsilon_fetch = epsilon * (1.0 - budget_split)
        self._sparse = AboveThreshold(
            theta=float(theta),
            epsilon=self._epsilon_compare,
            resample_noise=resample_comparison_noise,
        )
        self._round_received = 0
        self._round_index = 0

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def theta(self) -> int:
        """The threshold parameter."""
        return self._theta

    @property
    def flush_policy(self) -> FlushPolicy:
        """The configured cache-flush policy."""
        return self._flush

    @property
    def epsilon_compare(self) -> float:
        """Budget share used by the sparse-vector comparisons (``eps1``)."""
        return self._epsilon_compare

    @property
    def epsilon_fetch(self) -> float:
        """Budget share used by the Perturb fetch (``eps2``)."""
        return self._epsilon_fetch

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        gamma0 = perturb(len(initial), self._epsilon, self.cache, self._noise, 0)
        self.accountant.spend(self._epsilon, partition="setup", label="M_setup")
        self._sparse.reset(self._noise)
        return gamma0

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        if update is not None:
            self.cache.write(update)
            self._round_received += 1
        records: list[Record] = []
        reasons: list[str] = []
        if self._sparse.step(self._round_received, self._noise):
            records.extend(self._fetch(time))
            reasons.append("threshold")
        if self._flush.should_flush(time):
            records.extend(self._flush_read(time))
            reasons.append("flush")
        if not records:
            return SyncDecision.no_sync()
        return SyncDecision(
            should_sync=True, records=tuple(records), reason="+".join(reasons)
        )

    def _advance(self, last, end, arrivals):
        # The sparse-vector comparisons of a run of time units are one
        # vectorized scan; only crossings and flush ticks do per-tick work.
        syncs: list[tuple[int, tuple[Record, ...]]] = []
        start = last + 1
        taken = 0
        for stop in sorted({*self._flush.ticks_between(last, end), end}):
            upto = bisect_right(arrivals, stop, lo=taken, key=itemgetter(0))
            syncs.extend(self._compare(start, stop, arrivals[taken:upto]))
            if self._flush.should_flush(stop):
                records = self._flush_read(stop)
                if syncs and syncs[-1][0] == stop:
                    records = [*syncs.pop()[1], *records]
                syncs.append((stop, tuple(records)))
            start, taken = stop + 1, upto
        return syncs

    def _compare(self, start, stop, arrivals):
        """Compare every time unit of ``start .. stop``, fetching at crossings."""
        syncs = []
        ticks = stop - start + 1
        arrived = np.zeros(ticks, dtype=np.int64)
        arrived[[time - start for time, _ in arrivals]] = 1
        # Arrivals in start .. start + k, for every k.
        arrived_by = np.cumsum(arrived)
        pos = taken = 0
        while pos < ticks:
            width = min(ticks - pos, _SCAN_WIDTH)
            before = int(arrived_by[pos - 1]) if pos else 0
            counts = self._round_received + (arrived_by[pos : pos + width] - before)
            crossing = self._sparse.first_crossing(counts, self._noise)
            pos += width if crossing is None else crossing + 1
            upto = int(arrived_by[pos - 1])
            self.cache.extend(update for _, update in arrivals[taken:upto])
            self._round_received += upto - taken
            taken = upto
            if crossing is not None:
                time = start + pos - 1
                records = self._fetch(time)
                if records:
                    syncs.append((time, tuple(records)))
        return syncs

    def _fetch(self, time: int) -> list[Record]:
        """The Perturb fetch that follows a threshold crossing."""
        self._round_index += 1
        records = perturb(
            self._round_received, self._epsilon_fetch, self.cache, self._noise, time
        )
        # One sparse-vector round costs eps1 (comparisons) + eps2 (fetch);
        # rounds act on disjoint data slices, hence their own partition.
        self.accountant.spend(
            self._epsilon_compare + self._epsilon_fetch,
            partition=f"round-{self._round_index}",
            label="M_sparse",
        )
        self._round_received = 0
        return records

    def _flush_read(self, time: int) -> list[Record]:
        records = self.cache.read(self._flush.size, time)
        self.accountant.spend(0.0, partition="flush", label="M_flush")
        return records
