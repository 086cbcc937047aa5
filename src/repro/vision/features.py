"""Feature detection, description and matching (pure numpy).

The detect->describe->match front end of the AR tracking pipeline:

- :func:`detect_corners` — Shi–Tomasi: minimum eigenvalue of the local
  structure tensor, with non-maximum suppression.
- :class:`BriefDescriptor` — BRIEF-style binary descriptor: intensity
  comparisons on a fixed random pattern over a smoothed patch.
- :func:`match_descriptors` — Hamming matching with Lowe's ratio test.

Images are float64 arrays in [0, 1], shape (H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..util.errors import VisionError

__all__ = ["Keypoint", "detect_corners", "BriefDescriptor",
           "match_descriptors", "Match"]


@dataclass(frozen=True)
class Keypoint:
    """A detected corner (x right, y down, pixel units)."""

    x: float
    y: float
    response: float


@dataclass(frozen=True)
class Match:
    """Index pair into the query/train keypoint lists."""

    query_idx: int
    train_idx: int
    distance: int


def _check_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise VisionError("expected a 2-D grayscale image")
    if image.shape[0] < 16 or image.shape[1] < 16:
        raise VisionError("image too small for feature detection")
    return image


def detect_corners(image: np.ndarray,
                   max_corners: int = 500) -> list[Keypoint]:
    """Shi–Tomasi corners: min-eigenvalue score + greedy NMS.

    The image is smoothed at sigma 1; a corner scores at least 1 % of
    the best one and is the maximum within 5 pixels.
    """
    image = _check_image(image)
    sigma, quality, min_distance = 1.0, 0.01, 5
    smoothed = ndimage.gaussian_filter(image, sigma)
    iy, ix = np.gradient(smoothed)
    ixx = ndimage.gaussian_filter(ix * ix, sigma)
    iyy = ndimage.gaussian_filter(iy * iy, sigma)
    ixy = ndimage.gaussian_filter(ix * iy, sigma)
    # Min eigenvalue of [[ixx, ixy], [ixy, iyy]].
    trace_half = (ixx + iyy) / 2.0
    disc = np.sqrt(np.maximum(((ixx - iyy) / 2.0) ** 2 + ixy ** 2, 0.0))
    response = trace_half - disc
    threshold = quality * float(response.max()) if response.max() > 0 else 0.0
    # Local maxima via maximum filter.
    footprint = np.ones((2 * min_distance + 1, 2 * min_distance + 1))
    local_max = ndimage.maximum_filter(response, footprint=footprint)
    mask = (response >= local_max - 1e-12) & (response > threshold)
    # Exclude a border so descriptors always fit.
    border = max(min_distance, 1)
    mask[:border, :] = False
    mask[-border:, :] = False
    mask[:, :border] = False
    mask[:, -border:] = False
    ys, xs = np.nonzero(mask)
    scores = response[ys, xs]
    order = np.argsort(-scores)
    keypoints = [Keypoint(x=float(xs[i]), y=float(ys[i]),
                          response=float(scores[i]))
                 for i in order[:max_corners]]
    return keypoints


class BriefDescriptor:
    """BRIEF binary descriptor over a smoothed patch.

    ``n_bits`` intensity comparisons in a ``patch_size`` square, at
    offsets drawn once from an isotropic Gaussian (fixed seed: the
    pattern is part of the descriptor definition, not run randomness).
    """

    n_bits = 256
    patch_size = 24

    def __init__(self) -> None:
        n_bits, patch_size = self.n_bits, self.patch_size
        rng = np.random.default_rng(7)
        scale = patch_size / 5.0
        self._offsets_a = np.clip(
            rng.normal(0, scale, size=(n_bits, 2)),
            -patch_size / 2 + 1, patch_size / 2 - 1).astype(int)
        self._offsets_b = np.clip(
            rng.normal(0, scale, size=(n_bits, 2)),
            -patch_size / 2 + 1, patch_size / 2 - 1).astype(int)

    def compute(self, image: np.ndarray, keypoints: list[Keypoint],
                ) -> tuple[list[Keypoint], np.ndarray]:
        """Describe keypoints; drops those whose patch exits the image.

        Returns (kept keypoints, bool array of shape (N, n_bits)).
        """
        image = _check_image(image)
        smoothed = ndimage.gaussian_filter(image, 2.0)
        half = self.patch_size // 2
        h, w = image.shape
        kept: list[Keypoint] = []
        rows: list[np.ndarray] = []
        for kp in keypoints:
            x, y = int(round(kp.x)), int(round(kp.y))
            if not (half <= x < w - half and half <= y < h - half):
                continue
            a = smoothed[y + self._offsets_a[:, 1], x + self._offsets_a[:, 0]]
            b = smoothed[y + self._offsets_b[:, 1], x + self._offsets_b[:, 0]]
            rows.append(a < b)
            kept.append(kp)
        if not rows:
            return [], np.zeros((0, self.n_bits), dtype=bool)
        return kept, np.stack(rows)


def match_descriptors(query: np.ndarray,
                      train: np.ndarray) -> list[Match]:
    """Hamming matching with Lowe's ratio test (0.8) and cross-check.

    ``query``/``train`` are bool arrays (N, bits)/(M, bits).
    """
    query = np.asarray(query, dtype=bool)
    train = np.asarray(train, dtype=bool)
    if query.size == 0 or train.size == 0:
        return []
    if query.shape[1] != train.shape[1]:
        raise VisionError("descriptor widths differ")
    # Hamming distances via XOR popcount; arrays are modest, do it dense.
    distances = (query[:, None, :] ^ train[None, :, :]).sum(axis=2)
    matches: list[Match] = []
    best_train = distances.argmin(axis=0)  # per-train best query
    for qi in range(distances.shape[0]):
        row = distances[qi]
        order = np.argsort(row)
        ti = int(order[0])
        best = int(row[ti])
        if len(order) > 1:
            second = int(row[order[1]])
            if second > 0 and best >= 0.8 * second:
                continue
        if int(best_train[ti]) != qi:  # cross-check
            continue
        matches.append(Match(query_idx=qi, train_idx=ti, distance=best))
    return matches
