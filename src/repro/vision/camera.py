"""Pinhole camera model and rigid poses.

The geometric foundation of AR registration: intrinsics project camera-
frame points to pixels; a :class:`Pose` (world->camera rigid transform)
places the camera in the world.  Convention: right-handed world, camera
looks down +Z in its own frame, image origin top-left, x right, y down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import CalibrationError

__all__ = ["CameraIntrinsics", "Pose", "look_at"]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (no distortion; AR SDK calibration assumed)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise CalibrationError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise CalibrationError("image size must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([
            [self.fx, 0.0, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        ])

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Project Nx3 camera-frame points to Nx2 pixels.

        Points with z <= 0 (behind the camera) map to NaN.
        """
        points_cam = np.atleast_2d(np.asarray(points_cam, dtype=float))
        if points_cam.shape[1] != 3:
            raise CalibrationError("project expects Nx3 points")
        z = points_cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * points_cam[:, 0] / z + self.cx
            v = self.fy * points_cam[:, 1] / z + self.cy
        pixels = np.stack([u, v], axis=1)
        pixels[z <= 0] = np.nan
        return pixels


@dataclass(frozen=True)
class Pose:
    """World->camera rigid transform: x_cam = R @ x_world + t."""

    rotation: np.ndarray  # 3x3
    translation: np.ndarray  # 3

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise CalibrationError("rotation must be 3x3")
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise CalibrationError("rotation must be orthonormal")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def transform(self, points_world: np.ndarray) -> np.ndarray:
        """World -> camera frame for Nx3 points."""
        points_world = np.atleast_2d(np.asarray(points_world, dtype=float))
        return points_world @ self.rotation.T + self.translation

    def inverse(self) -> "Pose":
        r_inv = self.rotation.T
        return Pose(r_inv, -r_inv @ self.translation)

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    @property
    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -self.rotation.T @ self.translation


def look_at(eye: np.ndarray, target: np.ndarray,
            up: np.ndarray | None = None) -> Pose:
    """Camera pose looking from ``eye`` toward ``target`` (world->camera)."""
    eye = np.asarray(eye, dtype=float).reshape(3)
    target = np.asarray(target, dtype=float).reshape(3)
    if up is None:
        up = np.array([0.0, -1.0, 0.0])  # image-y points down
    up = np.asarray(up, dtype=float).reshape(3)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise CalibrationError("eye and target coincide")
    z = forward / norm
    x = np.cross(-up, z)
    x_norm = np.linalg.norm(x)
    if x_norm < 1e-12:
        raise CalibrationError("up vector parallel to view direction")
    x = x / x_norm
    y = np.cross(z, x)
    rotation = np.stack([x, y, z], axis=0)
    translation = -rotation @ eye
    return Pose(rotation, translation)
