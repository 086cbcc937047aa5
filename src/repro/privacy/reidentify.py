"""Mobility re-identification attack.

"It has been proven that users' identities and their movement patterns
have a close correlation [Gonzalez et al. 2008] ... an attacker can
infer private information from their location information."

The attack (after de Montjoye et al.'s uniqueness-of-mobility result):
traces are discretized into (cell, time-bucket) points; the adversary
knows ``p`` random points of a target and matches them against the
trace database.  A target is re-identified when exactly one candidate
trace is consistent with all known points.  Defences plug in as trace
transforms (cloaking coarsens cells, planar Laplace moves points), and
experiment T5 sweeps p against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import PrivacyError

__all__ = ["discretize_trace", "TraceDatabase", "AttackResult"]


def discretize_trace(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                     cell_m: float, bucket_s: float) -> set[tuple[int, int, int]]:
    """Spatio-temporal points of a trace: (cell_x, cell_y, time_bucket)."""
    if cell_m <= 0 or bucket_s <= 0:
        raise PrivacyError("cell size and time bucket must be positive")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if not len(xs) == len(ys) == len(ts):
        raise PrivacyError("trace arrays must have equal length")
    return {(int(np.floor(x / cell_m)), int(np.floor(y / cell_m)),
             int(np.floor(t / bucket_s)))
            for x, y, t in zip(xs, ys, ts)}


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack sweep."""

    targets: int
    unique: int  # re-identified exactly
    ambiguous: int  # >1 consistent candidate
    missed: int  # 0 consistent candidates (defence distorted the points)

    @property
    def reidentification_rate(self) -> float:
        return self.unique / self.targets if self.targets else 0.0


class TraceDatabase:
    """Discretized traces indexed for the matching attack."""

    def __init__(self, cell_m: float, bucket_s: float) -> None:
        self.cell_m = cell_m
        self.bucket_s = bucket_s
        self._traces: dict[str, set[tuple[int, int, int]]] = {}

    def add_trace(self, user: str, xs: np.ndarray, ys: np.ndarray,
                  ts: np.ndarray) -> None:
        if user in self._traces:
            raise PrivacyError(f"duplicate user {user!r}")
        self._traces[user] = discretize_trace(xs, ys, ts, self.cell_m,
                                              self.bucket_s)

    def __len__(self) -> int:
        return len(self._traces)

    def users(self) -> list[str]:
        return sorted(self._traces)

    def points_of(self, user: str) -> set[tuple[int, int, int]]:
        try:
            return self._traces[user]
        except KeyError:
            raise PrivacyError(f"unknown user {user!r}") from None

    def candidates(self, known_points: set[tuple[int, int, int]],
                   ) -> list[str]:
        """Users whose trace contains every known point."""
        return [user for user, points in sorted(self._traces.items())
                if known_points <= points]

    def attack(self, rng: np.random.Generator, known_points: int,
               observed: "TraceDatabase | None" = None) -> AttackResult:
        """Sample ``known_points`` true points per user and match them
        against this (possibly defended) database.

        ``observed`` supplies the adversary's side knowledge — the TRUE
        undefended traces the points are drawn from; defaults to self
        (no defence).  The database being attacked is ``self``.
        """
        observed = observed if observed is not None else self
        targets = observed.users()
        unique = ambiguous = missed = 0
        for user in targets:
            true_points = sorted(observed.points_of(user))
            if not true_points:
                missed += 1
                continue
            k = min(known_points, len(true_points))
            idx = rng.choice(len(true_points), size=k, replace=False)
            known = {true_points[i] for i in idx}
            matches = self.candidates(known)
            if matches == [user]:
                unique += 1
            elif matches:
                ambiguous += 1
            else:
                missed += 1
        return AttackResult(targets=len(targets), unique=unique,
                            ambiguous=ambiguous, missed=missed)
