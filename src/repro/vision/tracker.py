"""Planar target tracking: the full AR registration loop.

:class:`PlanarTracker` holds a reference target (its texture described
once, offline); per frame it detects corners, matches descriptors
against the reference, robustly estimates the texture->image homography
and recovers the camera pose.  Tracking statistics (inliers, failures,
reprojection error) drive the registration-quality experiments, and the
per-stage workload profile feeds the offloading cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import TrackingLost, VisionError
from .camera import CameraIntrinsics, Pose
from .features import BriefDescriptor, detect_corners, match_descriptors
from .geometry import (
    apply_homography,
    pose_from_homography,
    ransac_homography,
)
from .synth import PlanarTarget

__all__ = ["TrackResult", "StageProfile", "PlanarTracker"]


@dataclass(frozen=True)
class TrackResult:
    """Per-frame tracking output."""

    pose: Pose
    homography: np.ndarray
    num_matches: int
    num_inliers: int
    mean_reproj_error: float


@dataclass
class StageProfile:
    """Workload counters for one frame, consumed by the offload model.

    ``features`` and ``matches`` scale the detect/match/estimate stage
    costs; ``pixels`` scales acquisition and pre-processing.
    """

    pixels: int = 0
    features: int = 0
    matches: int = 0
    ransac_iterations: int = 0


@dataclass
class _Reference:
    keypoints_xy: np.ndarray
    descriptors: np.ndarray
    world_points: np.ndarray


class PlanarTracker:
    """Detect-describe-match-RANSAC-pose tracker for one planar target."""

    max_corners = 400
    min_inliers = 12
    ransac_threshold = 3.0

    def __init__(self, target: PlanarTarget, intrinsics: CameraIntrinsics,
                 rng: np.random.Generator) -> None:
        self.target = target
        self.intrinsics = intrinsics
        self._rng = rng
        self._descriptor = BriefDescriptor()
        self._reference = self._describe_reference()
        self.frames = 0
        self.failures = 0
        self.last_profile = StageProfile()
        self.history: list[TrackResult] = []

    def _describe_reference(self) -> _Reference:
        keypoints = detect_corners(self.target.texture,
                                   max_corners=self.max_corners)
        kept, descriptors = self._descriptor.compute(self.target.texture,
                                                     keypoints)
        if len(kept) < self.min_inliers:
            raise VisionError(
                "reference texture too feature-poor to track; use "
                "make_texture() or a richer image"
            )
        xy = np.array([[kp.x, kp.y] for kp in kept])
        world = self.target.texture_to_world(xy)
        return _Reference(keypoints_xy=xy, descriptors=descriptors,
                          world_points=world)

    @property
    def reference_feature_count(self) -> int:
        return len(self._reference.keypoints_xy)

    def track(self, frame: np.ndarray) -> TrackResult:
        """Estimate the camera pose for one frame.

        Raises :class:`TrackingLost` when matches/inliers are too few —
        callers decide whether to coast on the previous pose.
        """
        self.frames += 1
        profile = StageProfile(pixels=int(frame.size))
        keypoints = detect_corners(frame, max_corners=self.max_corners)
        kept, descriptors = self._descriptor.compute(frame, keypoints)
        profile.features = len(kept)
        if len(kept) < 4:
            self.failures += 1
            self.last_profile = profile
            raise TrackingLost(f"only {len(kept)} usable features in frame")
        matches = match_descriptors(descriptors,
                                    self._reference.descriptors)
        profile.matches = len(matches)
        if len(matches) < max(4, self.min_inliers // 2):
            self.failures += 1
            self.last_profile = profile
            raise TrackingLost(f"only {len(matches)} descriptor matches")
        src = self._reference.keypoints_xy[[m.train_idx for m in matches]]
        dst = np.array([[kept[m.query_idx].x, kept[m.query_idx].y]
                        for m in matches])
        try:
            result = ransac_homography(src, dst, self._rng,
                                       threshold=self.ransac_threshold)
        except VisionError as exc:
            self.failures += 1
            self.last_profile = profile
            raise TrackingLost(str(exc)) from exc
        profile.ransac_iterations = result.iterations
        if result.num_inliers < self.min_inliers:
            self.failures += 1
            self.last_profile = profile
            raise TrackingLost(
                f"{result.num_inliers} inliers < {self.min_inliers}")
        # texture->image homography composes texture->world scaling; pose
        # recovery wants world->image, so rescale columns.
        h_texture = result.homography
        th, tw = self.target.texture.shape
        scale = np.diag([tw / self.target.width_m,
                         th / self.target.height_m, 1.0])
        h_world = h_texture @ scale
        pose = pose_from_homography(h_world, self.intrinsics)
        errors = np.linalg.norm(
            apply_homography(h_texture, src) - dst, axis=1)
        track = TrackResult(
            pose=pose,
            homography=h_texture,
            num_matches=len(matches),
            num_inliers=result.num_inliers,
            mean_reproj_error=float(errors[result.inlier_mask].mean()),
        )
        self.last_profile = profile
        self.history.append(track)
        return track

    def registration_error_px(self, track: TrackResult,
                              true_pose: Pose) -> float:
        """Mean pixel error of overlay registration vs ground truth.

        Projects a 5 x 5 grid of target points with the estimated and the
        true pose; the mean distance is what a user would perceive as
        overlay misalignment (Section 2.1's "perceive it as a real
        counterpart").
        """
        grid = 5
        xs = np.linspace(0, self.target.width_m, grid)
        ys = np.linspace(0, self.target.height_m, grid)
        gx, gy = np.meshgrid(xs, ys)
        world = np.column_stack([gx.ravel(), gy.ravel(),
                                 np.zeros(grid * grid)])
        est_px = self.intrinsics.project(track.pose.transform(world))
        true_px = self.intrinsics.project(true_pose.transform(world))
        valid = np.isfinite(est_px).all(axis=1) & np.isfinite(
            true_px).all(axis=1)
        if not valid.any():
            return float("inf")
        return float(np.linalg.norm(est_px[valid] - true_px[valid],
                                    axis=1).mean())
