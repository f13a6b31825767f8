"""Empirical ε audit of the update-pattern transcript (repro.testing.audit).

The DP strategies must not be refuted at the ε they claim; SUR, which
publishes its arrival pattern, must be -- an auditor that cannot flag SUR
proves nothing.  Every audit is seeded, so the outcomes are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing.audit import audit_strategy, clopper_pearson

HORIZON = 120
#: Stream D: an arrival every third time unit; D' adds one at EXTRA.
ARRIVALS = [t for t in range(1, HORIZON + 1) if t % 3 == 0]
EXTRA = 61


def test_dp_timer_stays_within_its_epsilon():
    result = audit_strategy(
        "dp-timer", HORIZON, ARRIVALS, EXTRA, epsilon=1.0, period=10, seed=1
    )
    assert result.claimed == 1.0
    assert not result.violated, result
    # The window holding the extra arrival is found: the audit has power.
    assert result.epsilon_lower > 0.5, result


def test_dp_ant_stays_within_its_epsilon():
    result = audit_strategy(
        "dp-ant", HORIZON, ARRIVALS, EXTRA, trials=1200, epsilon=1.0, theta=5, seed=2
    )
    assert result.claimed == 1.0
    assert not result.violated, result


@pytest.mark.parametrize("budget", (1.0, 4.0))
def test_sur_is_flagged(budget):
    result = audit_strategy("sur", HORIZON, ARRIVALS, EXTRA, claimed=budget, seed=3)
    assert result.violated, result
    assert result.event.startswith(f"V({EXTRA})")


def test_clopper_pearson_brackets_the_proportion():
    lower, upper = clopper_pearson(np.array([0, 50, 100]), 100, 0.025)
    assert lower[0] == 0.0 and upper[2] == 1.0
    assert lower[1] < 0.5 < upper[1]
    # The textbook bound for 0 successes in n trials: 1 - alpha ** (1 / n).
    assert upper[0] == pytest.approx(1 - 0.025 ** (1 / 100))


def test_extra_arrival_must_be_new():
    with pytest.raises(ValueError):
        audit_strategy("sur", HORIZON, ARRIVALS, ARRIVALS[0])
