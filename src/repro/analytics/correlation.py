"""Correlation discovery over streams.

"Big data is good at discovering correlations ... but it does not tell
us which correlations are meaningful" (Section 4.2).  We provide the
discovery half — association-rule lift — and leave meaning to
:mod:`repro.context`, which binds results to semantic entities.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from ..util.errors import ConfigError

__all__ = ["LiftMiner", "AssociationRule"]


@dataclass(frozen=True)
class AssociationRule:
    """A mined co-occurrence rule with support/confidence/lift."""

    antecedent: str
    consequent: str
    support: float
    confidence: float
    lift: float


class LiftMiner:
    """Pairwise association rules from transaction baskets.

    Counts singleton and pair frequencies incrementally; ``rules()``
    returns pairs passing the support/confidence floors, ranked by lift.
    """

    def __init__(self, min_support: float = 0.01,
                 min_confidence: float = 0.1) -> None:
        if not 0 < min_support <= 1 or not 0 < min_confidence <= 1:
            raise ConfigError("support/confidence must be in (0, 1]")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self._item_counts: dict[str, int] = defaultdict(int)
        self._pair_counts: dict[tuple[str, str], int] = defaultdict(int)
        self.baskets = 0

    def add_basket(self, items) -> None:
        unique = sorted(set(items))
        if not unique:
            return
        self.baskets += 1
        for item in unique:
            self._item_counts[item] += 1
        for i, a in enumerate(unique):
            for b in unique[i + 1:]:
                self._pair_counts[(a, b)] += 1

    def rules(self, limit: int | None = None) -> list[AssociationRule]:
        if self.baskets == 0:
            return []
        out: list[AssociationRule] = []
        for (a, b), pair_n in self._pair_counts.items():
            support = pair_n / self.baskets
            if support < self.min_support:
                continue
            for antecedent, consequent in ((a, b), (b, a)):
                confidence = pair_n / self._item_counts[antecedent]
                if confidence < self.min_confidence:
                    continue
                expected = self._item_counts[consequent] / self.baskets
                lift = confidence / expected if expected > 0 else math.inf
                out.append(AssociationRule(antecedent, consequent,
                                           support, confidence, lift))
        out.sort(key=lambda r: (-r.lift, r.antecedent, r.consequent))
        return out[:limit] if limit is not None else out
