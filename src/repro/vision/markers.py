"""Planar fiducial markers (ArUco-style, simplified).

A marker is an (n x n) grid of black/white cells inside a black border.
Generation embeds the marker id as row-wise bits with a parity column;
identification rectifies the marker region through an estimated
homography and decodes the bits, checking parity — so detection failure
and mis-identification are measurable, not assumed away.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import VisionError
from .geometry import apply_homography

__all__ = ["generate_marker", "decode_marker"]

#: data cells per side; each row holds ``GRID - 1`` payload bits and a
#: parity bit
GRID = 4
CELL_PX = 16
BORDER_CELLS = 1
PAYLOAD_BITS = GRID * (GRID - 1)
MAX_ID = (1 << PAYLOAD_BITS) - 1
SIDE_PX = (GRID + 2 * BORDER_CELLS) * CELL_PX


def _id_to_bits(marker_id: int) -> np.ndarray:
    """Bits as a GRID x GRID array; last column is per-row *odd* parity.

    Odd parity guarantees every row contains at least one white cell, so
    even marker id 0 has contrast against the black border.
    """
    bits = np.zeros((GRID, GRID), dtype=bool)
    payload = [(marker_id >> i) & 1 for i in range(PAYLOAD_BITS)]
    k = 0
    for row in range(GRID):
        for col in range(GRID - 1):
            bits[row, col] = bool(payload[k])
            k += 1
        bits[row, GRID - 1] = int(bits[row, :GRID - 1].sum()) % 2 == 0
    return bits


def _bits_to_id(bits: np.ndarray) -> int | None:
    """Decode; None when any row parity fails."""
    marker_id = 0
    k = 0
    for row in range(GRID):
        if int(bits[row, :GRID].sum()) % 2 != 1:  # odd parity
            return None
        for col in range(GRID - 1):
            if bits[row, col]:
                marker_id |= 1 << k
            k += 1
    return marker_id


def generate_marker(marker_id: int) -> np.ndarray:
    """Render the marker texture (float image in [0, 1])."""
    if not 0 <= marker_id <= MAX_ID:
        raise VisionError(
            f"marker id {marker_id} out of range [0, {MAX_ID}]")
    bits = _id_to_bits(marker_id)
    side = GRID + 2 * BORDER_CELLS
    cells = np.zeros((side, side), dtype=float)  # black border
    for row in range(GRID):
        for col in range(GRID):
            cells[row + BORDER_CELLS, col + BORDER_CELLS] = (
                1.0 if bits[row, col] else 0.0)
    return np.kron(cells, np.ones((CELL_PX, CELL_PX)))


def decode_marker(image: np.ndarray, homography: np.ndarray) -> int | None:
    """Decode a marker from ``image`` given the homography mapping marker
    texture pixel coords to image pixel coords.

    Samples each cell centre (3x3 average) in the image, thresholds at
    the mid-intensity between sampled border (black) and brightest cell,
    and checks parity.  Returns the id or None.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise VisionError("expected grayscale image")
    h, w = image.shape

    def sample_at(texture_xy: np.ndarray) -> np.ndarray:
        pixels = apply_homography(homography, texture_xy)
        values = []
        for px, py in pixels:
            xi, yi = int(round(px)), int(round(py))
            if not (1 <= xi < w - 1 and 1 <= yi < h - 1):
                values.append(np.nan)
                continue
            values.append(float(image[yi - 1:yi + 2, xi - 1:xi + 2].mean()))
        return np.array(values)

    # Cell centres in texture coordinates.
    centres = []
    for row in range(GRID):
        for col in range(GRID):
            cx = (col + BORDER_CELLS + 0.5) * CELL_PX
            cy = (row + BORDER_CELLS + 0.5) * CELL_PX
            centres.append((cx, cy))
    cell_values = sample_at(np.array(centres))
    if np.isnan(cell_values).any():
        return None
    # Border samples give the black reference.
    border_pts = [(CELL_PX * 0.5, CELL_PX * 0.5),
                  (SIDE_PX - CELL_PX * 0.5, CELL_PX * 0.5),
                  (CELL_PX * 0.5, SIDE_PX - CELL_PX * 0.5),
                  (SIDE_PX - CELL_PX * 0.5, SIDE_PX - CELL_PX * 0.5)]
    border_values = sample_at(np.array(border_pts))
    if np.isnan(border_values).any():
        return None
    black = float(border_values.mean())
    white = float(cell_values.max())
    if white - black < 0.1:
        return None  # no contrast; not a marker view
    threshold = (black + white) / 2.0
    bits = (cell_values > threshold).reshape(GRID, GRID)
    return _bits_to_id(bits)
