"""Empirical ε audit of a strategy's update-pattern transcript.

The DP strategies claim that their ``(t, |γ_t|)`` transcript is ε-DP with
respect to neighbouring logical streams, which differ in one arrival.
:func:`audit_strategy` tests that claim from the outside, the way a
black-box DP auditor does:

1. run the strategy alone (``setup`` plus one
   :meth:`~repro.core.strategies.base.SyncStrategy.advance` over the whole
   horizon) many times with independent seeds on a stream ``D`` and on its
   neighbour ``D'`` (``D`` plus one arrival);
2. summarise each transcript by its volume ``V(t) = |γ_t|`` and its
   cumulative volume ``C(t)`` -- records outsourced up to ``t`` -- at every
   time unit;
3. on the first half of the runs, pick the event ``V(t) >= c`` or
   ``C(t) >= c`` (or its complement) and the direction that separate ``D``
   from ``D'`` best;
4. on the held-out second half, bound that event's probabilities with
   Clopper--Pearson intervals and report
   ``ln(lower(p_D) / upper(p_D'))``: with the stated confidence, the
   mechanism is *not* ε'-DP for any ε' below it.

A correct ε-DP strategy stays at or below ε (up to the confidence level);
SUR, whose transcript is the arrival pattern, is flagged at any budget --
that is the auditor's power check.  The bound is a lower bound only: an
audit that passes does not prove the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from repro.core.strategies.registry import make_strategy
from repro.edb.records import Record, Schema, SchemaDummyFactory

__all__ = ["AuditResult", "audit_strategy", "clopper_pearson"]

_SCHEMA = Schema("audit", ("v",))


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one audit."""

    #: Lower confidence bound on the ε the transcripts exhibit.
    epsilon_lower: float
    #: The ε the strategy claims (or the budget it was audited against).
    claimed: float
    #: The separating event, chosen on the first half of the runs.
    event: str
    #: Runs per stream in the measuring half.
    trials: int
    confidence: float

    @property
    def violated(self) -> bool:
        """Whether the transcripts refute the claimed ε."""
        return self.epsilon_lower > self.claimed


def clopper_pearson(
    successes: np.ndarray, trials: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided ``1 - alpha`` Clopper--Pearson bounds on binomial proportions."""
    successes = np.asarray(successes)
    lower = np.where(
        successes > 0,
        stats.beta.ppf(alpha, np.maximum(successes, 1), trials - successes + 1),
        0.0,
    )
    upper = np.where(
        successes < trials,
        stats.beta.ppf(1 - alpha, successes + 1, np.maximum(trials - successes, 1)),
        1.0,
    )
    return lower, upper


def audit_strategy(
    strategy: str,
    horizon: int,
    arrivals: Sequence[int],
    extra: int,
    trials: int = 2000,
    claimed: float | None = None,
    confidence: float = 0.95,
    seed: int = 0,
    **params,
) -> AuditResult:
    """Audit ``strategy`` (a :func:`make_strategy` name plus ``params``).

    ``D`` has arrivals at the times in ``arrivals``; ``D'`` has one more, at
    time ``extra``.  ``trials`` runs per stream are split in half: one half
    picks the event, the other measures it.  ``claimed`` defaults to the
    strategy's own ``epsilon``.
    """
    if extra in arrivals or not 0 < extra <= horizon:
        raise ValueError("extra must be a new arrival time within the horizon")
    if trials < 4:
        raise ValueError("trials must be at least 4")
    seeds = iter(np.random.SeedSequence(seed).spawn(2 * trials))

    def transcripts(times: Sequence[int]) -> np.ndarray:
        stream = [(t, Record(values={"v": t}, arrival_time=t, table="audit")) for t in sorted(times)]
        runs = np.zeros((trials, horizon + 1), dtype=np.int64)
        for run in runs:
            instance = make_strategy(
                strategy,
                dummy_factory=SchemaDummyFactory(_SCHEMA),
                rng=np.random.default_rng(next(seeds)),
                **params,
            )
            run[0] = len(instance.setup([]))
            for time, records in instance.advance(0, horizon, stream):
                run[time] += len(records)
        return np.hstack((runs, np.cumsum(runs, axis=1)))

    neighbour = transcripts(arrivals)
    sample = transcripts([*arrivals, extra])
    if claimed is None:
        claimed = make_strategy(
            strategy, dummy_factory=SchemaDummyFactory(_SCHEMA), **params
        ).epsilon

    half = trials // 2
    alpha = (1 - confidence) / 2
    column, threshold, swap, complement = _select(sample[:half], neighbour[:half], alpha)
    measured = trials - half

    def hits(runs: np.ndarray) -> int:
        inside = runs[half:, column] >= threshold
        return int((~inside if complement else inside).sum())

    first, second = hits(sample), hits(neighbour)
    if swap:
        first, second = second, first
    lower, _ = clopper_pearson(np.array(first), measured, alpha)
    _, upper = clopper_pearson(np.array(second), measured, alpha)
    epsilon_lower = max(0.0, float(np.log(lower / upper))) if lower > 0 else 0.0
    statistic = "V" if column <= horizon else "C"
    event = (
        f"{'not ' if complement else ''}{statistic}({column % (horizon + 1)})"
        f" >= {threshold}, "
        f"{'D' if swap else 'D+1'} over {'D+1' if swap else 'D'}"
    )
    return AuditResult(
        epsilon_lower=epsilon_lower,
        claimed=float(claimed),
        event=event,
        trials=measured,
        confidence=confidence,
    )


def _select(
    sample: np.ndarray, neighbour: np.ndarray, alpha: float
) -> tuple[int, int, bool, bool]:
    """The ``(column, threshold, swap, complement)`` event with the largest
    Clopper--Pearson ε bound on these runs."""
    trials = sample.shape[0]
    best = (-np.inf, (0, 0, False, False))
    for column in range(sample.shape[1]):
        thresholds = np.unique(np.concatenate((sample[:, column], neighbour[:, column])))
        ours = (sample[:, column, None] >= thresholds).sum(axis=0)
        theirs = (neighbour[:, column, None] >= thresholds).sum(axis=0)
        for swap in (False, True):
            for complement in (False, True):
                first, second = (theirs, ours) if swap else (ours, theirs)
                if complement:
                    first, second = trials - first, trials - second
                lower, _ = clopper_pearson(first, trials, alpha)
                _, upper = clopper_pearson(second, trials, alpha)
                with np.errstate(divide="ignore"):
                    scores = np.log(lower) - np.log(upper)
                index = int(np.argmax(scores))
                if scores[index] > best[0]:
                    best = (
                        scores[index],
                        (column, int(thresholds[index]), swap, complement),
                    )
    return best[1]
