"""The exponential mechanism and private top-k selection.

Noisy numeric release (Laplace) is wrong for *selection* queries ("which
products are most popular?"): noise on every count still leaks through
the argmax.  The exponential mechanism samples outcomes with probability
proportional to exp(eps * score / (2 * sensitivity)), giving eps-DP
selection; private top-k applies it iteratively (peeling), charging
eps/k per pick under sequential composition.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import PrivacyError

__all__ = ["exponential_mechanism", "private_top_k"]


def exponential_mechanism(scores: dict[str, float], epsilon: float,
                          rng: np.random.Generator,
                          sensitivity: float = 1.0) -> str:
    """Sample one key with probability ~ exp(eps * score / (2 * sens))."""
    if not scores:
        raise PrivacyError("no candidates to select from")
    if epsilon <= 0 or sensitivity <= 0:
        raise PrivacyError("epsilon and sensitivity must be positive")
    keys = sorted(scores)
    values = np.array([scores[k] for k in keys], dtype=float)
    # Stabilize: shift by max before exponentiating.
    logits = epsilon * values / (2.0 * sensitivity)
    logits -= logits.max()
    weights = np.exp(logits)
    weights /= weights.sum()
    return keys[int(rng.choice(len(keys), p=weights))]


def private_top_k(scores: dict[str, float], k: int, epsilon: float,
                  rng: np.random.Generator,
                  sensitivity: float = 1.0) -> list[str]:
    """eps-DP top-k by iterative exponential-mechanism peeling.

    Each of the k picks spends eps/k, so the whole release is eps-DP by
    sequential composition.
    """
    if k < 1:
        raise PrivacyError("k must be >= 1")
    if k > len(scores):
        raise PrivacyError(f"k={k} exceeds candidate count {len(scores)}")
    remaining = dict(scores)
    picks: list[str] = []
    per_pick = epsilon / k
    for _ in range(k):
        choice = exponential_mechanism(remaining, per_pick, rng,
                                       sensitivity=sensitivity)
        picks.append(choice)
        del remaining[choice]
    return picks
