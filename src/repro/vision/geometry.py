"""Multi-view geometry: homography estimation and planar pose recovery.

- :func:`estimate_homography` — normalized DLT.
- :func:`ransac_homography` — robust estimation over noisy matches.
- :func:`pose_from_homography` — decompose K^-1 H for a planar target
  (the standard marker-based AR pose path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import VisionError
from .camera import CameraIntrinsics, Pose

__all__ = ["estimate_homography", "apply_homography", "ransac_homography",
           "RansacResult", "pose_from_homography", "reprojection_error"]


def _normalize_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley normalization: zero centroid, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = np.mean(np.linalg.norm(shifted, axis=1))
    scale = np.sqrt(2.0) / mean_dist if mean_dist > 1e-12 else 1.0
    transform = np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])
    homogeneous = np.column_stack([points, np.ones(len(points))])
    normalized = (transform @ homogeneous.T).T[:, :2]
    return normalized, transform


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Normalized DLT homography mapping src (Nx2) to dst (Nx2), N>=4."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape or src.shape[0] < 4 or src.shape[1] != 2:
        raise VisionError("need matching Nx2 arrays with N>=4")
    src_n, t_src = _normalize_points(src)
    dst_n, t_dst = _normalize_points(dst)
    n = src.shape[0]
    a = np.zeros((2 * n, 9))
    for i in range(n):
        x, y = src_n[i]
        u, v = dst_n[i]
        a[2 * i] = [-x, -y, -1, 0, 0, 0, u * x, u * y, u]
        a[2 * i + 1] = [0, 0, 0, -x, -y, -1, v * x, v * y, v]
    _u, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-12:
        raise VisionError("degenerate point configuration")
    h_n = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_n @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise VisionError("homography normalization failed")
    return h / h[2, 2]


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map Nx2 points through a 3x3 homography."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    homogeneous = np.column_stack([points, np.ones(len(points))])
    mapped = (h @ homogeneous.T).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return mapped[:, :2] / mapped[:, 2:3]


def reprojection_error(h: np.ndarray, src: np.ndarray,
                       dst: np.ndarray) -> np.ndarray:
    """Per-point Euclidean transfer error of h on (src, dst)."""
    projected = apply_homography(h, src)
    return np.linalg.norm(projected - np.atleast_2d(dst), axis=1)


@dataclass(frozen=True)
class RansacResult:
    homography: np.ndarray
    inlier_mask: np.ndarray
    iterations: int

    @property
    def num_inliers(self) -> int:
        return int(self.inlier_mask.sum())


def ransac_homography(src: np.ndarray, dst: np.ndarray,
                      rng: np.random.Generator,
                      threshold: float = 3.0) -> RansacResult:
    """RANSAC homography with adaptive iteration count (at most 500, for
    99.5 % confidence) and final least-squares refit on the inliers."""
    max_iterations, confidence = 500, 0.995
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    n = src.shape[0]
    if n < 4:
        raise VisionError(f"RANSAC needs >= 4 correspondences, got {n}")
    best_mask = np.zeros(n, dtype=bool)
    best_h: np.ndarray | None = None
    needed = max_iterations
    iteration = 0
    while iteration < needed and iteration < max_iterations:
        iteration += 1
        sample = rng.choice(n, size=4, replace=False)
        try:
            h = estimate_homography(src[sample], dst[sample])
        except VisionError:
            continue
        errors = reprojection_error(h, src, dst)
        mask = errors < threshold
        if mask.sum() > best_mask.sum():
            best_mask = mask
            best_h = h
            inlier_ratio = mask.mean()
            if 0 < inlier_ratio < 1:
                # Adaptive termination.
                denom = np.log(max(1e-12, 1 - inlier_ratio ** 4))
                needed = min(max_iterations,
                             int(np.ceil(np.log(1 - confidence) / denom)))
            elif inlier_ratio == 1.0:
                break
    if best_h is None or best_mask.sum() < 4:
        raise VisionError("RANSAC failed to find a homography")
    refined = estimate_homography(src[best_mask], dst[best_mask])
    final_mask = reprojection_error(refined, src, dst) < threshold
    if final_mask.sum() >= 4:
        best_mask = final_mask
        best_h = estimate_homography(src[best_mask], dst[best_mask])
    else:
        best_h = refined
    return RansacResult(homography=best_h, inlier_mask=best_mask,
                        iterations=iteration)


def pose_from_homography(h: np.ndarray,
                         intrinsics: CameraIntrinsics) -> Pose:
    """Recover the camera pose from a homography of a Z=0 world plane.

    H ~ K [r1 r2 t]; orthonormalize via SVD and pick the solution with
    the plane in front of the camera.
    """
    k_inv = np.linalg.inv(intrinsics.matrix)
    m = k_inv @ h
    scale = np.linalg.norm(m[:, 0])
    if scale < 1e-12:
        raise VisionError("degenerate homography for pose recovery")
    m = m / scale
    r1, r2, t = m[:, 0], m[:, 1], m[:, 2]
    r3 = np.cross(r1, r2)
    rotation_raw = np.stack([r1, r2, r3], axis=1)
    u, _s, vt = np.linalg.svd(rotation_raw)
    rotation = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
    if t[2] < 0:
        # Plane behind the camera: flip the sign ambiguity.
        rotation = rotation @ np.diag([-1.0, -1.0, 1.0])
        t = -t
    return Pose(rotation, t)
