"""Sparse optical flow and the hybrid tracking strategy.

Tracking-by-detection (re-detect + re-match every frame) is robust but
expensive; production AR SDKs track features frame-to-frame with sparse
optical flow and re-detect only when tracking degrades.  We implement:

- :func:`track_points` — translational Lucas–Kanade: per-point 2-D
  displacement minimizing SSD over a local window, solved from the
  structure tensor (one iteration per pyramid level).
- :class:`HybridTracker` — flow-propagates the previous frame's inlier
  correspondences and refits the homography; falls back to full
  detection (an inner :class:`PlanarTracker`) when inliers decay.

The A5 ablation prices both paths and measures the robustness/cost
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..util.errors import VisionError
from .camera import CameraIntrinsics, Pose
from .geometry import apply_homography, pose_from_homography, ransac_homography
from .synth import PlanarTarget
from .tracker import PlanarTracker, StageProfile, TrackResult

__all__ = ["track_points", "FlowResult", "HybridTracker"]


@dataclass(frozen=True)
class FlowResult:
    """Output of one sparse-flow solve."""

    points: np.ndarray  # (N, 2) new positions
    valid: np.ndarray  # (N,) bool — solvable and stayed in frame


def _pyramid(image: np.ndarray, levels: int) -> list[np.ndarray]:
    pyramid = [image]
    for _ in range(levels - 1):
        smoothed = ndimage.gaussian_filter(pyramid[-1], 1.0)
        pyramid.append(smoothed[::2, ::2])
    return pyramid


def track_points(prev: np.ndarray, curr: np.ndarray,
                 points: np.ndarray) -> FlowResult:
    """Pyramidal translational Lucas–Kanade for sparse points: a 9 px
    window, 3 pyramid levels, 3 iterations a level.

    ``points`` is (N, 2) in (x, y) pixel coordinates of ``prev``.
    """
    window, levels, iterations = 9, 3, 3
    prev = np.asarray(prev, dtype=float)
    curr = np.asarray(curr, dtype=float)
    if prev.shape != curr.shape:
        raise VisionError("frames must have equal shape")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise VisionError("points must be Nx2")
    half = window // 2
    prev_pyr = _pyramid(prev, levels)
    curr_pyr = _pyramid(curr, levels)
    n = len(points)
    flow = np.zeros((n, 2))
    valid = np.ones(n, dtype=bool)

    for level in range(levels - 1, -1, -1):
        scale = 2.0 ** level
        p_img = prev_pyr[level]
        c_img = curr_pyr[level]
        gy, gx = np.gradient(p_img)
        h, w = p_img.shape
        for i in range(n):
            if not valid[i]:
                continue
            x = points[i, 0] / scale
            y = points[i, 1] / scale
            xi, yi = int(round(x)), int(round(y))
            if not (half <= xi < w - half and half <= yi < h - half):
                if level == 0:
                    valid[i] = False
                continue
            ix = gx[yi - half:yi + half + 1, xi - half:xi + half + 1]
            iy = gy[yi - half:yi + half + 1, xi - half:xi + half + 1]
            template = p_img[yi - half:yi + half + 1,
                             xi - half:xi + half + 1]
            a11 = float((ix * ix).sum())
            a12 = float((ix * iy).sum())
            a22 = float((iy * iy).sum())
            det = a11 * a22 - a12 * a12
            # Minimum eigenvalue of the structure tensor gates both the
            # textureless case and the aperture problem (edge-only
            # gradient), which translational LK cannot resolve.
            lambda_min = (a11 + a22) / 2.0 - np.sqrt(
                ((a11 - a22) / 2.0) ** 2 + a12 * a12)
            if det < 1e-9 or lambda_min < 0.05:
                if level == 0:
                    valid[i] = False
                continue
            d = flow[i] / scale
            for _it in range(iterations):
                cx = xi + d[0]
                cy = yi + d[1]
                cxi, cyi = int(round(cx)), int(round(cy))
                if not (half <= cxi < w - half and half <= cyi < h - half):
                    break
                patch = c_img[cyi - half:cyi + half + 1,
                              cxi - half:cxi + half + 1]
                diff = patch - template
                b1 = float((ix * diff).sum())
                b2 = float((iy * diff).sum())
                # Gauss-Newton step: d -= A^-1 b (minimizes SSD).
                du = (a22 * b1 - a12 * b2) / det
                dv = (a11 * b2 - a12 * b1) / det
                d = d - np.array([du, dv])
                if abs(du) < 0.01 and abs(dv) < 0.01:
                    break
            if level == 0:
                # Residual check: a converged track matches the template.
                cxi = int(round(xi + d[0]))
                cyi = int(round(yi + d[1]))
                if (half <= cxi < w - half and half <= cyi < h - half):
                    patch = c_img[cyi - half:cyi + half + 1,
                                  cxi - half:cxi + half + 1]
                    rms = float(np.sqrt(np.mean((patch - template) ** 2)))
                    if rms > 0.12:
                        valid[i] = False
                else:
                    valid[i] = False
            flow[i] = d * scale
    new_points = points + flow
    h0, w0 = prev.shape
    inside = ((new_points[:, 0] >= half) & (new_points[:, 0] < w0 - half)
              & (new_points[:, 1] >= half) & (new_points[:, 1] < h0 - half))
    valid &= inside
    return FlowResult(points=new_points, valid=valid)


class HybridTracker:
    """Flow-first planar tracking with detection fallback.

    Maintains the last frame and its inlier (world-texture-point ->
    image-point) correspondences; each new frame flows them forward,
    refits the homography, and re-detects only when the surviving
    correspondence count falls below ``min_flow_points`` (or on the
    first frame / after a loss, or every ``redetect_every`` frames).
    """

    min_flow_points = 20
    redetect_every = 30

    def __init__(self, target: PlanarTarget, intrinsics: CameraIntrinsics,
                 rng: np.random.Generator) -> None:
        self.detector = PlanarTracker(target, intrinsics, rng)
        self.target = target
        self.intrinsics = intrinsics
        self._rng = rng
        self._prev_frame: np.ndarray | None = None
        self._prev_texture_pts: np.ndarray | None = None
        self._prev_image_pts: np.ndarray | None = None
        self._since_detection = 0
        self.detections = 0
        self.flow_frames = 0
        self.last_mode = "none"
        self.last_profile = StageProfile()

    def _full_detection(self, frame: np.ndarray) -> TrackResult:
        result = self.detector.track(frame)
        self.detections += 1
        self._since_detection = 0
        # Cache correspondences for flow propagation: the reference
        # texture *keypoints* (corners by construction, hence trackable
        # by LK) projected through the found homography.
        texture_pts = self.detector._reference.keypoints_xy[:120]
        image_pts = apply_homography(result.homography, texture_pts)
        keep = ((image_pts[:, 0] > 8)
                & (image_pts[:, 0] < self.intrinsics.width - 8)
                & (image_pts[:, 1] > 8)
                & (image_pts[:, 1] < self.intrinsics.height - 8))
        self._prev_texture_pts = texture_pts[keep]
        self._prev_image_pts = image_pts[keep]
        self._prev_frame = frame
        self.last_mode = "detect"
        self.last_profile = self.detector.last_profile
        return result

    def track(self, frame: np.ndarray) -> TrackResult:
        frame = np.asarray(frame, dtype=float)
        force_detect = (
            self._prev_frame is None
            or self._prev_texture_pts is None
            or len(self._prev_texture_pts) < self.min_flow_points
            or self._since_detection >= self.redetect_every)
        if force_detect:
            return self._full_detection(frame)
        # Keyframe-anchored flow: always solve keyframe -> current, so
        # errors do not accumulate across frames (chained flow drifts).
        flow = track_points(self._prev_frame, frame, self._prev_image_pts)
        texture_pts = self._prev_texture_pts[flow.valid]
        image_pts = flow.points[flow.valid]
        if len(texture_pts) < max(8, self.min_flow_points // 2):
            return self._full_detection(frame)
        try:
            ransac = ransac_homography(texture_pts, image_pts, self._rng,
                                       threshold=2.0)
        except VisionError:
            return self._full_detection(frame)
        if ransac.num_inliers < max(8, self.min_flow_points // 2):
            return self._full_detection(frame)
        h_texture = ransac.homography
        th, tw = self.target.texture.shape
        scale = np.diag([tw / self.target.width_m,
                         th / self.target.height_m, 1.0])
        pose = pose_from_homography(h_texture @ scale, self.intrinsics)
        errors = np.linalg.norm(
            apply_homography(h_texture, texture_pts) - image_pts, axis=1)
        self.flow_frames += 1
        self._since_detection += 1
        # The keyframe (frame + correspondences) stays fixed until the
        # next detection; only bookkeeping advances.
        self.last_mode = "flow"
        # Flow workload: window solves per point instead of full detect.
        self.last_profile = StageProfile(
            pixels=int(frame.size) // 8,  # pyramid windows, not the frame
            features=len(texture_pts),
            matches=len(texture_pts),
            ransac_iterations=ransac.iterations)
        return TrackResult(
            pose=pose, homography=h_texture,
            num_matches=len(texture_pts),
            num_inliers=ransac.num_inliers,
            mean_reproj_error=float(errors[ransac.inlier_mask].mean()))

    def registration_error_px(self, track: TrackResult,
                              true_pose: Pose) -> float:
        return self.detector.registration_error_px(track, true_pose)
