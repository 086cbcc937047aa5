"""Synthetic scene imaging — the camera we don't have.

Renders a textured world plane (Z=0) through the pinhole model by
inverse warping: for every image pixel, cast a ray, intersect the plane,
bilinear-sample the texture.  Sensor noise and global illumination gain
make the images honest enough to exercise the full detect->match->pose
pipeline and measure registration error against ground truth.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import VisionError
from .camera import CameraIntrinsics, Pose

__all__ = ["make_texture", "render_plane", "PlanarTarget"]


def make_texture(rng: np.random.Generator) -> np.ndarray:
    """A feature-rich 256 px texture: an 8 x 8 checkerboard base + 60
    random dark blobs.

    Checker corners plus blob edges give the corner detector plenty of
    stable structure at many scales.
    """
    size, blobs, checker = 256, 60, 8
    ys, xs = np.mgrid[0:size, 0:size]
    cell = max(1, size // checker)
    texture = (((xs // cell) + (ys // cell)) % 2).astype(float) * 0.35 + 0.45
    for _ in range(blobs):
        cx, cy = rng.uniform(0, size, size=2)
        radius = rng.uniform(size * 0.01, size * 0.06)
        intensity = rng.uniform(0.0, 1.0)
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 < radius ** 2
        texture[mask] = intensity
    return np.clip(texture, 0.0, 1.0)


class PlanarTarget:
    """A textured rectangle on the world plane Z=0.

    World coordinates: the target spans [0, width_m] x [0, height_m] in
    (X, Y), texture row 0 at Y=0.
    """

    def __init__(self, texture: np.ndarray, width_m: float,
                 height_m: float) -> None:
        texture = np.asarray(texture, dtype=float)
        if texture.ndim != 2:
            raise VisionError("texture must be 2-D grayscale")
        if width_m <= 0 or height_m <= 0:
            raise VisionError("target physical size must be positive")
        self.texture = texture
        self.width_m = width_m
        self.height_m = height_m

    def texture_to_world(self, uv: np.ndarray) -> np.ndarray:
        """Texture pixel coords (Nx2, x right / y down) -> world Nx3 (Z=0)."""
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        th, tw = self.texture.shape
        x = uv[:, 0] / tw * self.width_m
        y = uv[:, 1] / th * self.height_m
        return np.column_stack([x, y, np.zeros(len(uv))])

    def world_to_texture(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        th, tw = self.texture.shape
        u = points[:, 0] / self.width_m * tw
        v = points[:, 1] / self.height_m * th
        return np.column_stack([u, v])


def _bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray,
                     fill: float) -> np.ndarray:
    h, w = image.shape
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u_c = np.clip(u, 0, w - 1)
    v_c = np.clip(v, 0, h - 1)
    u0 = np.floor(u_c).astype(int)
    v0 = np.floor(v_c).astype(int)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = u_c - u0
    fv = v_c - v0
    top = image[v0, u0] * (1 - fu) + image[v0, u1] * fu
    bottom = image[v1, u0] * (1 - fu) + image[v1, u1] * fu
    out = top * (1 - fv) + bottom * fv
    out[~valid] = fill
    return out


def render_plane(target: PlanarTarget, intrinsics: CameraIntrinsics,
                 pose: Pose, rng: np.random.Generator | None = None,
                 noise_sigma: float = 0.01, gain: float = 1.0) -> np.ndarray:
    """Render the target plane through the camera, over a mid-grey
    background.

    ``gain`` models ambient-lighting variation (Section 2.1's rendering
    consideration); ``noise_sigma`` is additive sensor noise.
    """
    if gain <= 0:
        raise VisionError("gain must be positive")
    h, w = intrinsics.height, intrinsics.width
    vs, us = np.mgrid[0:h, 0:w]
    # Rays in camera frame through each pixel.
    x = (us - intrinsics.cx) / intrinsics.fx
    y = (vs - intrinsics.cy) / intrinsics.fy
    rays_cam = np.stack([x, y, np.ones_like(x)], axis=-1).reshape(-1, 3)
    # Camera center and ray directions in world frame.
    r_wc = pose.rotation.T
    center = pose.camera_center
    dirs_world = rays_cam @ r_wc.T
    # Intersect with plane Z=0: center_z + t*dir_z = 0.
    dir_z = dirs_world[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -center[2] / dir_z
    valid = (dir_z != 0) & (t > 0)
    points = center[None, :] + t[:, None] * dirs_world
    uv = target.world_to_texture(points[:, :2])
    samples = _bilinear_sample(target.texture, uv[:, 0], uv[:, 1], fill=0.5)
    samples[~valid] = 0.5
    image = samples.reshape(h, w) * gain
    if rng is not None and noise_sigma > 0:
        image = image + rng.normal(0.0, noise_sigma, size=image.shape)
    return np.clip(image, 0.0, 1.0)
