"""Unit tests: feature detection, descriptors, markers, planar tracker,
synthetic renderer."""

import numpy as np
import pytest

from repro.util.rng import make_rng
from repro.util.errors import TrackingLost, VisionError
from repro.vision import (
    BriefDescriptor,
    CameraIntrinsics,
    PlanarTarget,
    PlanarTracker,
    decode_marker,
    detect_corners,
    estimate_homography,
    generate_marker,
    look_at,
    make_texture,
    match_descriptors,
    render_plane,
)
from repro.vision.markers import BORDER_CELLS, CELL_PX, MAX_ID, SIDE_PX

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)


def _checkerboard(size=128, cell=16):
    ys, xs = np.mgrid[0:size, 0:size]
    return (((xs // cell) + (ys // cell)) % 2).astype(float)


class TestDetectCorners:
    def test_finds_checkerboard_corners(self):
        corners = detect_corners(_checkerboard(), max_corners=100)
        assert len(corners) >= 20
        # Corners should sit near cell intersections (multiples of 16).
        near = sum(1 for kp in corners
                   if min(kp.x % 16, 16 - kp.x % 16) < 3
                   and min(kp.y % 16, 16 - kp.y % 16) < 3)
        assert near / len(corners) > 0.8

    def test_flat_image_no_corners(self):
        assert detect_corners(np.full((64, 64), 0.5)) == []

    def test_max_corners_respected(self):
        corners = detect_corners(_checkerboard(), max_corners=10)
        assert len(corners) <= 10

    def test_corners_sorted_by_response(self):
        corners = detect_corners(_checkerboard(), max_corners=50)
        responses = [kp.response for kp in corners]
        assert responses == sorted(responses, reverse=True)

    def test_too_small_image_rejected(self):
        with pytest.raises(VisionError):
            detect_corners(np.zeros((4, 4)))


class TestBriefDescriptor:
    def test_descriptor_shape(self):
        image = _checkerboard()
        keypoints = detect_corners(image, max_corners=50)
        descriptor = BriefDescriptor()
        kept, desc = descriptor.compute(image, keypoints)
        assert desc.shape == (len(kept), 256)
        assert desc.dtype == bool

    def test_border_keypoints_dropped(self):
        image = _checkerboard()
        descriptor = BriefDescriptor()  # 24 px patches
        from repro.vision.features import Keypoint
        kept, desc = descriptor.compute(image, [Keypoint(2.0, 2.0, 1.0)])
        assert kept == []
        assert desc.shape == (0, 256)

    def test_same_patch_same_descriptor(self):
        image = _checkerboard()
        keypoints = detect_corners(image, max_corners=20)
        descriptor = BriefDescriptor()
        _k1, d1 = descriptor.compute(image, keypoints)
        _k2, d2 = descriptor.compute(image, keypoints)
        assert np.array_equal(d1, d2)


class TestMatching:
    def test_identical_sets_match_mostly(self):
        # A random texture gives distinctive descriptors (a checkerboard
        # would not: its corners all look alike and fail the ratio test).
        image = make_texture(make_rng(9))
        keypoints = detect_corners(image, max_corners=30)
        descriptor = BriefDescriptor()
        _kept, desc = descriptor.compute(image, keypoints)
        matches = match_descriptors(desc, desc)
        assert len(matches) >= 0.8 * len(desc)
        assert all(m.query_idx == m.train_idx for m in matches)
        assert all(m.distance == 0 for m in matches)

    def test_empty_inputs(self):
        assert match_descriptors(np.zeros((0, 8)), np.zeros((5, 8))) == []

    def test_width_mismatch_rejected(self):
        with pytest.raises(VisionError):
            match_descriptors(np.zeros((2, 8), dtype=bool),
                              np.zeros((2, 16), dtype=bool))


class TestMarkers:
    def test_roundtrip_all_small_ids(self):
        for marker_id in [0, 1, 37, 511, MAX_ID]:
            texture = generate_marker(marker_id)
            assert texture.shape == (SIDE_PX, SIDE_PX)
            # Identity homography decodes the texture itself.
            h = np.eye(3)
            assert decode_marker(texture, h) == marker_id

    def test_id_out_of_range_rejected(self):
        with pytest.raises(VisionError):
            generate_marker(MAX_ID + 1)

    def test_decode_through_projection(self):
        rng = make_rng(0)
        texture = generate_marker(123)
        target = PlanarTarget(texture, 0.2, 0.2)
        pose = look_at(eye=[0.1, 0.12, -0.45], target=[0.1, 0.1, 0.0])
        frame = render_plane(target, INTR, pose, rng=rng,
                             noise_sigma=0.005)
        corners_tex = np.array([[0, 0], [texture.shape[1], 0],
                                [0, texture.shape[0]],
                                [texture.shape[1], texture.shape[0]],
                                [texture.shape[1] / 2,
                                 texture.shape[0] / 2]])
        pixels = INTR.project(pose.transform(
            target.texture_to_world(corners_tex)))
        h = estimate_homography(corners_tex, pixels)
        assert decode_marker(frame, h) == 123

    def test_decode_flat_image_fails(self):
        assert decode_marker(np.full((240, 320), 0.5), np.eye(3)) is None

    def test_parity_rejects_corruption(self):
        texture = generate_marker(37)
        # Flip one full data cell: parity must fail (or decode to wrong id
        # that parity catches — with row parity a single cell flip always
        # breaks that row's parity).
        cell = CELL_PX
        r0 = (0 + BORDER_CELLS) * cell
        c0 = (0 + BORDER_CELLS) * cell
        corrupted = texture.copy()
        corrupted[r0:r0 + cell, c0:c0 + cell] = \
            1.0 - corrupted[r0:r0 + cell, c0:c0 + cell]
        assert decode_marker(corrupted, np.eye(3)) != 37


class TestRendererAndTracker:
    def test_render_shape_and_range(self):
        rng = make_rng(1)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        pose = look_at(eye=[0.25, 0.25, -1.0], target=[0.25, 0.25, 0.0])
        frame = render_plane(target, INTR, pose)
        assert frame.shape == (240, 320)
        assert 0.0 <= frame.min() and frame.max() <= 1.0

    def test_gain_scales_brightness(self):
        rng = make_rng(1)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        pose = look_at(eye=[0.25, 0.25, -1.0], target=[0.25, 0.25, 0.0])
        bright = render_plane(target, INTR, pose, gain=1.0)
        dim = render_plane(target, INTR, pose, gain=0.5)
        assert dim.mean() < bright.mean()

    def test_tracker_recovers_pose(self):
        rng = make_rng(42)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        pose_true = look_at(eye=[0.2, 0.3, -0.8], target=[0.25, 0.25, 0.0])
        frame = render_plane(target, INTR, pose_true, rng=rng,
                             noise_sigma=0.01)
        result = tracker.track(frame)
        assert result.num_inliers >= tracker.min_inliers
        assert tracker.registration_error_px(result, pose_true) < 3.0
        assert np.linalg.norm(pose_true.camera_center
                              - result.pose.camera_center) < 0.05

    def test_tracker_multi_frame_sequence(self):
        rng = make_rng(43)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        errors = []
        for i in range(5):
            eye = [0.15 + 0.03 * i, 0.25, -0.8 + 0.02 * i]
            pose_true = look_at(eye=eye, target=[0.25, 0.25, 0.0])
            frame = render_plane(target, INTR, pose_true, rng=rng,
                                 noise_sigma=0.01)
            result = tracker.track(frame)
            errors.append(tracker.registration_error_px(result, pose_true))
        assert np.mean(errors) < 3.0
        assert tracker.frames == 5
        assert tracker.failures == 0

    def test_tracking_lost_on_blank_frame(self):
        rng = make_rng(44)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        with pytest.raises(TrackingLost):
            tracker.track(np.full((240, 320), 0.5))
        assert tracker.failures == 1

    def test_tracking_lost_when_target_out_of_view(self):
        rng = make_rng(45)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        pose_away = look_at(eye=[5.0, 5.0, -1.0], target=[5.0, 5.0, 1.0])
        frame = render_plane(target, INTR, pose_away, rng=rng)
        with pytest.raises(TrackingLost):
            tracker.track(frame)

    def test_profile_populated(self):
        rng = make_rng(46)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        pose_true = look_at(eye=[0.25, 0.25, -0.8],
                            target=[0.25, 0.25, 0.0])
        tracker.track(render_plane(target, INTR, pose_true, rng=rng))
        profile = tracker.last_profile
        assert profile.pixels == 320 * 240
        assert profile.features > 0
        assert profile.matches > 0
        assert profile.ransac_iterations > 0

    def test_feature_poor_reference_rejected(self):
        rng = make_rng(47)
        flat = PlanarTarget(np.full((64, 64), 0.5), 0.5, 0.5)
        with pytest.raises(VisionError):
            PlanarTracker(flat, INTR, rng)
