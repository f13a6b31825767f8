"""Crypt-epsilon-style L-DP encrypted database simulator.

Crypt-epsilon (Roy Chowdhury et al.) answers SQL aggregates over encrypted
data while adding differentially-private noise to every released statistic,
so the query protocol only ever leaks DP-protected response volumes -- the
**L-DP** group of Section 6.  DP-Sync composes with it directly because an
attacker can never learn the exact number of (dummy or real) records matching
a query.

The simulator reproduces:

* exact evaluation over the outsourced records (after dummy-aware rewriting),
  followed by Laplace noise on every released count, scaled by the per-query
  answer budget (the paper's evaluation uses epsilon_query = 3);
* no join support (Crypt-epsilon does not support join operators; the paper
  only runs Q1/Q2 against it);
* linear per-record query cost constants calibrated to Table 5.
"""

from __future__ import annotations

import numpy as np

from repro.edb.base import EncryptedDatabase
from repro.edb.cost_model import CRYPTE_COSTS, CostParameters
from repro.edb.leakage import LeakageClass
from repro.query.ast import Query
from repro.query.executor import Answer

__all__ = ["CryptEpsilon"]


class CryptEpsilon(EncryptedDatabase):
    """Simulated Crypt-epsilon back-end (L-DP: DP response volumes).

    Parameters
    ----------
    query_epsilon:
        Privacy budget used to perturb each released count.  The paper's
        end-to-end comparison sets this to 3.
    round_answers:
        Whether to round noisy counts to integers (counts are integral in the
        real system's released output).
    rng:
        Random generator of the Laplace noise on every released count.

    The pre-noise aggregates come from the vectorized columnar operators,
    which list groups in first-appearance order exactly like the row
    interpreter; the per-group Laplace draws happen in that order, so noisy
    answers are fixed by the seed.
    """

    def __init__(
        self,
        query_epsilon: float = 3.0,
        round_answers: bool = True,
        simulate_encryption: bool = False,
        cost_parameters: CostParameters = CRYPTE_COSTS,
        rng: np.random.Generator | None = None,
    ) -> None:
        if query_epsilon <= 0:
            raise ValueError("query_epsilon must be positive")
        super().__init__(
            cost_parameters=cost_parameters,
            scheme_name="Crypt-epsilon",
            query_leakage_class=LeakageClass.LDP,
            simulate_encryption=simulate_encryption,
        )
        self._rng = rng if rng is not None else np.random.default_rng()
        self._query_epsilon = query_epsilon
        self._round_answers = round_answers

    @property
    def query_epsilon(self) -> float:
        """Per-query answer-perturbation budget."""
        return self._query_epsilon

    def _postprocess_answer(self, query: Query, answer: Answer) -> tuple[Answer, bool]:
        scale = 1.0 / self._query_epsilon
        if isinstance(answer, dict):
            noisy = {}
            for key, value in answer.items():
                noisy_value = value + float(self._rng.laplace(0.0, scale))
                noisy[key] = self._finalize(noisy_value)
            return noisy, True
        noisy_value = float(answer) + float(self._rng.laplace(0.0, scale))
        return self._finalize(noisy_value), True

    def _finalize(self, value: float) -> float | int:
        value = max(0.0, value)
        if self._round_answers:
            return int(round(value))
        return value
