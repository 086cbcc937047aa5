"""Differential-privacy mechanisms and budget accounting.

Section 4.3: "differential privacy is a possible way of accessing data
with a limited privacy risk, however the information is reduced too far
to be useful in practice" — experiment T4 quantifies exactly that with
these mechanisms.  The :class:`BudgetAccountant` enforces sequential
composition and refuses queries once epsilon is spent, which is also how
the "ill-suited for dynamically changing data" claim shows up: refreshing
a release on drifting data burns budget linearly.
"""

from __future__ import annotations

import math

import numpy as np

from ..util.errors import BudgetExhausted, PrivacyError

__all__ = ["LaplaceMechanism", "GeometricMechanism", "BudgetAccountant"]


class BudgetAccountant:
    """Sequential-composition epsilon ledger."""

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0:
            raise PrivacyError("total epsilon must be positive")
        self.total_epsilon = epsilon
        self.spent_epsilon = 0.0
        self.queries = 0

    @property
    def remaining_epsilon(self) -> float:
        return self.total_epsilon - self.spent_epsilon

    def charge(self, epsilon: float) -> None:
        if epsilon <= 0:
            raise PrivacyError("query epsilon must be positive")
        if self.spent_epsilon + epsilon > self.total_epsilon + 1e-12:
            raise BudgetExhausted(
                f"charge {epsilon} exceeds remaining "
                f"{self.remaining_epsilon:.4g}"
            )
        self.spent_epsilon += epsilon
        self.queries += 1


class LaplaceMechanism:
    """epsilon-DP noise for queries with known L1 sensitivity."""

    def __init__(self, epsilon: float, sensitivity: float,
                 rng: np.random.Generator,
                 accountant: BudgetAccountant | None = None) -> None:
        if epsilon <= 0:
            raise PrivacyError("epsilon must be positive")
        if sensitivity <= 0:
            raise PrivacyError("sensitivity must be positive")
        self.epsilon = epsilon
        self.sensitivity = sensitivity
        self._rng = rng
        self.accountant = accountant

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    def release(self, true_value: float | np.ndarray) -> float | np.ndarray:
        """Noise one value (or an array, charging once — treat arrays as
        one query whose sensitivity already accounts for all cells)."""
        if self.accountant is not None:
            self.accountant.charge(self.epsilon)
        value = np.asarray(true_value, dtype=float)
        noised = value + self._rng.laplace(0.0, self.scale, size=value.shape)
        if np.isscalar(true_value) or value.shape == ():
            return float(noised)
        return noised


class GeometricMechanism:
    """Integer-valued epsilon-DP (two-sided geometric noise) for counts."""

    def __init__(self, epsilon: float, rng: np.random.Generator,
                 sensitivity: int = 1,
                 accountant: BudgetAccountant | None = None) -> None:
        if epsilon <= 0:
            raise PrivacyError("epsilon must be positive")
        if sensitivity < 1:
            raise PrivacyError("sensitivity must be >= 1")
        self.epsilon = epsilon
        self.sensitivity = sensitivity
        self._rng = rng
        self.accountant = accountant

    def release(self, true_count: int) -> int:
        if self.accountant is not None:
            self.accountant.charge(self.epsilon)
        alpha = math.exp(-self.epsilon / self.sensitivity)
        # Two-sided geometric: difference of two geometric variables.
        g1 = self._rng.geometric(1 - alpha) - 1
        g2 = self._rng.geometric(1 - alpha) - 1
        return int(true_count + g1 - g2)
