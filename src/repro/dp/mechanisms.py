"""Core differential-privacy mechanisms.

DP-Sync's synchronization strategies are built from three classical
mechanisms:

* the **Laplace mechanism** (used by ``Perturb`` in Algorithm 2 and by the
  initial setup step of both DP strategies),
* the **geometric mechanism**, an integer-valued alternative that is useful
  when the perturbed quantity must stay an integer count (offered as an
  extension; the paper uses rounded Laplace noise),
* the **sparse vector technique / AboveThreshold** (the backbone of DP-ANT,
  Algorithm 3): a stream of noisy counts is compared against a noisy
  threshold and only the *crossing time* is released.

All mechanisms take an explicit :class:`numpy.random.Generator` so that every
experiment in the benchmark harness is reproducible from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LaplaceBlockStream",
    "LaplaceMechanism",
    "GeometricMechanism",
    "AboveThreshold",
]


class LaplaceBlockStream:
    """Block-predrawn Laplace noise with a draw order identical to its source.

    The synchronization hot loops (DP-Timer's per-window Perturb, DP-ANT's
    per-tick sparse-vector comparison) each make one scalar
    ``Generator.laplace`` call per event; the per-call dispatch overhead
    dominates the actual sampling.  This stream pre-draws *standard* Laplace
    variates in blocks of ``block_size`` and hands them out one at a time,
    scaled on demand, or as an array (:meth:`peek`, then :meth:`skip` what
    was used) to a vectorized kernel.

    Exactness contract (pinned by the golden traces and the bit-identity
    test in ``tests/test_dp_mechanisms.py``): NumPy fills a Laplace array
    from the same underlying bit stream as repeated scalar draws, and a
    ``Laplace(0, scale)`` draw equals ``scale * Laplace(0, 1)`` bit-for-bit
    (the sampler computes ``±scale * log(2u)``, so the multiplication is the
    same single rounding either way).  The k-th value produced through the
    stream therefore equals the k-th value the wrapped generator would have
    produced directly -- for any interleaving of scales, and of scalar and
    array consumption -- as long as *all*
    Laplace consumption of that generator goes through the stream.  The
    stream intentionally exposes the ``laplace(loc, scale)`` method surface
    of :class:`numpy.random.Generator` so mechanisms accept either.

    Non-Laplace draws are deliberately not proxied: a strategy mixing
    distributions on one generator must keep using the raw generator, where
    the per-call cost is the price of an exact stream.
    """

    __slots__ = ("_rng", "_block_size", "_block", "_cursor")

    def __init__(self, rng: np.random.Generator, block_size: int = 256) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self._rng = rng
        self._block_size = block_size
        self._block = np.empty(0)
        self._cursor = 0

    @property
    def generator(self) -> np.random.Generator:
        """The wrapped generator (its state runs ahead by the predrawn block)."""
        return self._rng

    def standard(self) -> float:
        """The next standard ``Laplace(0, 1)`` variate."""
        if self._cursor >= self._block.shape[0]:
            self._block = self._rng.laplace(0.0, 1.0, size=self._block_size)
            self._cursor = 0
        value = self._block[self._cursor]
        self._cursor += 1
        return float(value)

    def _buffer(self, n: int) -> None:
        """Hold at least ``n`` unconsumed variates, drawing whole blocks."""
        available = self._block.shape[0] - self._cursor
        if available >= n:
            return
        blocks = -(-(n - available) // self._block_size)
        fresh = self._rng.laplace(0.0, 1.0, size=blocks * self._block_size)
        self._block = np.concatenate((self._block[self._cursor :], fresh))
        self._cursor = 0

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` standard variates, without consuming them.

        The returned array is a view into the stream's buffer; do not write
        to it.  Variates are still drawn from the generator in whole blocks,
        so peeking never changes the sequence later calls see.
        """
        self._buffer(n)
        return self._block[self._cursor : self._cursor + n]

    def skip(self, n: int) -> None:
        """Consume ``n`` variates, exactly as ``n`` :meth:`standard` calls would."""
        self._buffer(n)
        self._cursor += n

    def laplace(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Drop-in for ``Generator.laplace`` on scalars, served from the block.

        ``loc == 0`` (every DP mechanism here) multiplies the predrawn
        standard variate by ``scale``, which is bit-identical to a direct
        scaled draw; a nonzero ``loc`` adds it afterwards.
        """
        value = scale * self.standard()
        if loc == 0.0:
            return value
        return loc + value


@dataclass
class LaplaceMechanism:
    """The Laplace mechanism for releasing numeric values.

    Parameters
    ----------
    epsilon:
        Privacy budget spent per invocation of :meth:`randomize`.
    sensitivity:
        L1 sensitivity of the value being released (1 for counting queries,
        which is all DP-Sync needs).
    """

    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        """Laplace scale ``sensitivity / epsilon``."""
        return self.sensitivity / self.epsilon

    def randomize(
        self, value: float, rng: "np.random.Generator | LaplaceBlockStream"
    ) -> float:
        """Return ``value + Lap(sensitivity / epsilon)``."""
        return float(value) + float(rng.laplace(0.0, self.scale))

    def randomize_count(
        self, count: int, rng: "np.random.Generator | LaplaceBlockStream"
    ) -> int:
        """Return a rounded, possibly-negative noisy count.

        DP-Sync's ``Perturb`` operator rounds the noisy count to an integer
        before reading that many records from the local cache; negative values
        are meaningful there (they signal "release nothing"), so no clamping
        happens here.
        """
        return int(round(self.randomize(float(count), rng)))

    def error_quantile(self, beta: float) -> float:
        """Magnitude ``x`` such that ``Pr[|noise| > x] <= beta``."""
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        return self.scale * math.log(1.0 / beta)


@dataclass
class GeometricMechanism:
    """Two-sided geometric mechanism for integer counts.

    Adds integer noise with ``Pr[Z = z] ∝ alpha^|z|`` where
    ``alpha = exp(-epsilon / sensitivity)``.  Satisfies epsilon-DP for integer
    valued queries with the given sensitivity and never produces fractional
    counts, which makes it a natural ablation of the rounded-Laplace noise the
    paper uses inside ``Perturb``.
    """

    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def alpha(self) -> float:
        """The geometric decay parameter ``exp(-epsilon / sensitivity)``."""
        return math.exp(-self.epsilon / self.sensitivity)

    def sample_noise(self, rng: np.random.Generator) -> int:
        """Draw a two-sided geometric noise value."""
        # A two-sided geometric is the difference of two geometric variables.
        p = 1.0 - self.alpha
        return int(rng.geometric(p) - rng.geometric(p))

    def randomize_count(self, count: int, rng: np.random.Generator) -> int:
        """Return ``count`` plus two-sided geometric noise."""
        return int(count) + self.sample_noise(rng)


@dataclass
class AboveThreshold:
    """Sparse vector technique (AboveThreshold) as used by DP-ANT.

    The mechanism is initialized with a public threshold ``theta`` and a
    privacy budget ``epsilon``.  The budget is split exactly as in
    Algorithm 3 of the paper: the threshold is perturbed with
    ``Lap(2 / epsilon)`` and every per-step query (count of records received
    since the last synchronization) is perturbed with ``Lap(4 / epsilon)``.
    :meth:`step` returns ``True`` when the noisy count crosses the noisy
    threshold, at which point the threshold is refreshed with new noise.

    Only the *crossing times* are data dependent, which is why the whole
    stream of comparisons costs a single ``epsilon`` per crossing (the
    standard sparse-vector argument reproduced in the paper's Theorem 11).

    ``resample_noise`` controls whether the per-step query noise is drawn
    fresh at every comparison (the algorithm as printed in the paper; the
    default) or drawn once per threshold period and held until the next
    crossing.  The held variant fires far less often on sparse streams for
    small budgets and is provided for the noise-resampling ablation; see
    EXPERIMENTS.md for the discussion.
    """

    theta: float
    epsilon: float
    resample_noise: bool = True
    _noisy_threshold: float = field(default=float("nan"), init=False, repr=False)
    _held_noise: float = field(default=0.0, init=False, repr=False)
    _initialized: bool = field(default=False, init=False, repr=False)
    crossings: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.theta < 0:
            raise ValueError(f"theta must be non-negative, got {self.theta}")

    @property
    def threshold_scale(self) -> float:
        """Scale of the noise applied to the threshold (``2 / epsilon``)."""
        return 2.0 / self.epsilon

    @property
    def query_scale(self) -> float:
        """Scale of the per-step query noise (``4 / epsilon``)."""
        return 4.0 / self.epsilon

    @property
    def noisy_threshold(self) -> float:
        """The current noisy threshold (NaN before :meth:`reset`)."""
        return self._noisy_threshold

    def reset(self, rng: "np.random.Generator | LaplaceBlockStream") -> float:
        """Draw a fresh noisy threshold; returns it for inspection."""
        self._noisy_threshold = self.theta + float(
            rng.laplace(0.0, self.threshold_scale)
        )
        self._held_noise = float(rng.laplace(0.0, self.query_scale))
        self._initialized = True
        return self._noisy_threshold

    def first_crossing(
        self, counts: np.ndarray, rng: LaplaceBlockStream
    ) -> int | None:
        """:meth:`step` over consecutive counts, up to the first crossing.

        Equivalent to calling ``step(counts[i], rng)`` for ``i = 0, 1, ...``
        until one returns ``True``: the comparisons are the same floating
        point operations, and exactly the variates those calls would draw are
        consumed (one per compared count when resampling, then the crossing's
        fresh threshold).  Returns the index of the crossing, or ``None``
        when no count crosses and every count was compared.
        """
        if not self._initialized:
            raise RuntimeError("AboveThreshold.first_crossing called before reset()")
        if self.resample_noise:
            noisy = counts + self.query_scale * rng.peek(len(counts))
        else:
            noisy = counts + self._held_noise
        crossed = noisy >= self._noisy_threshold
        index = int(crossed.argmax())
        if not crossed[index]:
            if self.resample_noise:
                rng.skip(len(counts))
            return None
        if self.resample_noise:
            rng.skip(index + 1)
        self.crossings += 1
        self.reset(rng)
        return index

    def step(
        self, count: float, rng: "np.random.Generator | LaplaceBlockStream"
    ) -> bool:
        """Compare a (true) running count against the noisy threshold.

        Adds ``Lap(4 / epsilon)`` noise to ``count`` (fresh per step, or the
        held per-round draw when ``resample_noise`` is false) and returns
        whether the noisy count reaches the noisy threshold.  On a crossing
        the threshold is automatically refreshed (as Algorithm 3 does after
        each synchronization).
        """
        if not self._initialized:
            raise RuntimeError("AboveThreshold.step called before reset()")
        if self.resample_noise:
            noise = float(rng.laplace(0.0, self.query_scale))
        else:
            noise = self._held_noise
        noisy_count = float(count) + noise
        if noisy_count >= self._noisy_threshold:
            self.crossings += 1
            self.reset(rng)
            return True
        return False
