"""Unit tests: camera model, poses, homography, RANSAC, planar pose."""

import numpy as np
import pytest

from repro.util.rng import make_rng
from repro.vision import (
    CameraIntrinsics,
    Pose,
    apply_homography,
    estimate_homography,
    look_at,
    pose_from_homography,
    ransac_homography,
    reprojection_error,
)
from repro.util.errors import CalibrationError, VisionError

INTR = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640,
                        height=480)


class TestCameraIntrinsics:
    def test_project_center_point(self):
        px = INTR.project(np.array([[0.0, 0.0, 2.0]]))
        assert px[0] == pytest.approx([320.0, 240.0])

    def test_project_offset_point(self):
        px = INTR.project(np.array([[1.0, 0.5, 2.0]]))
        assert px[0] == pytest.approx([320 + 250, 240 + 125])

    def test_behind_camera_is_nan(self):
        px = INTR.project(np.array([[0.0, 0.0, -1.0]]))
        assert np.isnan(px).all()

    def test_bad_focal_rejected(self):
        with pytest.raises(CalibrationError):
            CameraIntrinsics(fx=0, fy=1, cx=0, cy=0, width=10, height=10)


class TestPose:
    def test_identity_transform(self):
        pose = Pose.identity()
        points = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(pose.transform(points), points)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(CalibrationError):
            Pose(np.ones((3, 3)), np.zeros(3))

    def test_inverse_composes_to_identity(self):
        pose = look_at(eye=[1.0, 2.0, -3.0], target=[0.0, 0.0, 0.0])
        both = pose.compose(pose.inverse())
        assert np.allclose(both.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(both.translation, 0.0, atol=1e-9)

    def test_camera_center(self):
        eye = np.array([1.0, 2.0, -3.0])
        pose = look_at(eye=eye, target=[0.0, 0.0, 0.0])
        assert np.allclose(pose.camera_center, eye, atol=1e-9)

    def test_look_at_points_camera_at_target(self):
        pose = look_at(eye=[0.0, 0.0, -2.0], target=[0.0, 0.0, 0.0])
        cam = pose.transform(np.array([[0.0, 0.0, 0.0]]))
        assert cam[0, 2] == pytest.approx(2.0)  # in front, +z
        assert cam[0, :2] == pytest.approx([0.0, 0.0])

    def test_degenerate_look_at_rejected(self):
        with pytest.raises(CalibrationError):
            look_at(eye=[0, 0, 0], target=[0, 0, 0])


class TestHomography:
    def _random_h(self, rng):
        h = np.eye(3) + rng.normal(0, 0.1, size=(3, 3))
        h[2, 2] = 1.0
        return h

    def test_recovers_exact_homography(self):
        rng = make_rng(0)
        h_true = self._random_h(rng)
        src = rng.uniform(0, 100, size=(20, 2))
        dst = apply_homography(h_true, src)
        h_est = estimate_homography(src, dst)
        assert np.allclose(h_est, h_true / h_true[2, 2], atol=1e-6)

    def test_minimum_four_points(self):
        rng = make_rng(1)
        h_true = self._random_h(rng)
        src = rng.uniform(0, 100, size=(4, 2))
        dst = apply_homography(h_true, src)
        h_est = estimate_homography(src, dst)
        assert np.max(reprojection_error(h_est, src, dst)) < 1e-6

    def test_too_few_points_rejected(self):
        with pytest.raises(VisionError):
            estimate_homography(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_degenerate_collinear_rejected(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        with pytest.raises(VisionError):
            estimate_homography(src, src)

    def test_identity_on_same_points(self):
        rng = make_rng(2)
        src = rng.uniform(0, 50, size=(10, 2))
        h = estimate_homography(src, src)
        assert np.allclose(h, np.eye(3), atol=1e-8)


class TestRansac:
    def test_rejects_outliers(self):
        rng = make_rng(3)
        h_true = np.array([[1.1, 0.02, 5.0], [-0.01, 0.95, -3.0],
                           [1e-4, -1e-4, 1.0]])
        src = rng.uniform(0, 200, size=(60, 2))
        dst = apply_homography(h_true, src)
        dst += rng.normal(0, 0.5, size=dst.shape)  # inlier noise
        outliers = rng.choice(60, size=20, replace=False)
        dst[outliers] += rng.uniform(30, 80, size=(20, 2))
        result = ransac_homography(src, dst, rng, threshold=3.0)
        assert result.num_inliers >= 35
        assert not result.inlier_mask[outliers].all()
        errors = reprojection_error(result.homography, src, dst)
        assert np.median(errors[result.inlier_mask]) < 2.0

    def test_all_inliers(self):
        rng = make_rng(4)
        src = rng.uniform(0, 100, size=(20, 2))
        dst = src + np.array([10.0, -5.0])
        result = ransac_homography(src, dst, rng)
        assert result.num_inliers == 20

    def test_too_few_points_rejected(self):
        rng = make_rng(5)
        with pytest.raises(VisionError):
            ransac_homography(np.zeros((3, 2)), np.zeros((3, 2)), rng)


class TestPoseFromHomography:
    def test_recovers_known_pose(self):
        # World plane Z=0; choose a camera looking at it.
        pose_true = look_at(eye=[0.3, 0.2, -1.5], target=[0.25, 0.25, 0.0])
        world_pts = np.array([[x, y, 0.0]
                              for x in np.linspace(0, 0.5, 5)
                              for y in np.linspace(0, 0.5, 5)])
        pixels = INTR.project(pose_true.transform(world_pts))
        h = estimate_homography(world_pts[:, :2], pixels)
        pose_est = pose_from_homography(h, INTR)
        assert np.linalg.norm(pose_true.camera_center
                              - pose_est.camera_center) < 0.01
        # geodesic rotation distance
        r_rel = pose_true.rotation.T @ pose_est.rotation
        cos_angle = np.clip((np.trace(r_rel) - 1.0) / 2.0, -1.0, 1.0)
        assert np.arccos(cos_angle) < 0.01
