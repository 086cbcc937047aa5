"""Unit tests: sparse optical flow and the hybrid tracker."""

import numpy as np
import pytest

from repro.util.rng import make_rng
from repro.util.errors import VisionError
from repro.vision import (
    CameraIntrinsics,
    HybridTracker,
    PlanarTarget,
    Pose,
    look_at,
    make_texture,
    render_plane,
    track_points,
)

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)


def _shifted_frames(shift_px, rng, noise=0.0):
    target = PlanarTarget(make_texture(rng), 0.5, 0.5)
    pose1 = look_at(eye=[0.25, 0.25, -0.8], target=[0.25, 0.25, 0.0])
    # Translate the camera parallel to the plane without re-aiming, so
    # the image shifts by a known amount.
    t2 = pose1.translation - pose1.rotation @ np.array(
        [shift_px * 0.8 / 400.0, 0.0, 0.0])
    pose2 = Pose(pose1.rotation, t2)
    f1 = render_plane(target, INTR, pose1, rng=rng, noise_sigma=noise)
    f2 = render_plane(target, INTR, pose2, rng=rng, noise_sigma=noise)
    return target, pose1, pose2, f1, f2


class TestTrackPoints:
    def _corner_points(self, target, pose1, n=40):
        from repro.vision import detect_corners
        frame = render_plane(target, INTR, pose1)
        corners = detect_corners(frame, max_corners=n)
        return np.array([[kp.x, kp.y] for kp in corners])

    def test_recovers_known_shift(self):
        rng = make_rng(0)
        target, pose1, pose2, f1, f2 = _shifted_frames(4.0, rng)
        points = self._corner_points(target, pose1)
        result = track_points(f1, f2, points)
        assert result.valid.sum() >= 10
        flow = result.points[result.valid] - points[result.valid]
        # Camera moved +x, so image content moved ~4 px in -x.
        assert np.median(flow[:, 0]) == pytest.approx(-4.0, abs=0.5)
        assert abs(np.median(flow[:, 1])) < 0.5

    def test_zero_motion_zero_flow(self):
        rng = make_rng(1)
        target, pose1, _p2, f1, _f2 = _shifted_frames(0.0, rng)
        points = self._corner_points(target, pose1)
        result = track_points(f1, f1, points)
        flow = result.points[result.valid] - points[result.valid]
        assert np.abs(flow).max() < 0.2

    def test_large_shift_via_pyramid(self):
        rng = make_rng(2)
        target, pose1, pose2, f1, f2 = _shifted_frames(12.0, rng)
        points = self._corner_points(target, pose1)
        result = track_points(f1, f2, points)
        flow = result.points[result.valid] - points[result.valid]
        assert result.valid.sum() >= 5
        assert np.median(flow[:, 0]) == pytest.approx(-12.0, abs=1.0)

    def test_flat_points_invalidated(self):
        rng = make_rng(3)
        flat = np.full((240, 320), 0.5)
        points = np.array([[160.0, 120.0], [50.0, 50.0]])
        result = track_points(flat, flat, points)
        assert not result.valid.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(VisionError):
            track_points(np.zeros((10, 10)), np.zeros((20, 20)),
                         np.zeros((1, 2)))

class TestHybridTracker:
    def _orbit(self, tracker, rng, frames=12, start=0):
        target = tracker.target
        errors = []
        for i in range(start, start + frames):
            eye = [0.2 + 0.01 * i, 0.25 + 0.005 * i, -0.8]
            pose_true = look_at(eye=eye, target=[0.25, 0.25, 0.0])
            frame = render_plane(target, INTR, pose_true, rng=rng,
                                 noise_sigma=0.01)
            result = tracker.track(frame)
            errors.append(tracker.registration_error_px(result, pose_true))
        return errors

    def test_mostly_flow_after_first_detection(self):
        rng = make_rng(4)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = HybridTracker(target, INTR, rng)
        errors = self._orbit(tracker, rng, frames=12)
        assert tracker.detections <= 2
        assert tracker.flow_frames >= 10
        assert float(np.mean(errors)) < 2.0

    def test_flow_accuracy_matches_detection(self):
        rng = make_rng(5)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = HybridTracker(target, INTR, rng)
        errors = self._orbit(tracker, rng, frames=10)
        assert max(errors) < 3.0  # no drift blow-up (keyframe anchoring)

    def test_periodic_redetection(self):
        rng = make_rng(6)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = HybridTracker(target, INTR, rng)
        tracker.redetect_every = 5  # the period, shortened to fit the run
        self._orbit(tracker, rng, frames=12)
        assert tracker.detections >= 2

    def test_recovers_after_target_lost(self):
        rng = make_rng(7)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = HybridTracker(target, INTR, rng)
        self._orbit(tracker, rng, frames=3)
        # Blank frame: flow fails, detection fails -> TrackingLost.
        from repro.util.errors import TrackingLost
        with pytest.raises(TrackingLost):
            tracker.track(np.full((240, 320), 0.5))
        # Target returns: the tracker recovers via detection.
        errors = self._orbit(tracker, rng, frames=3, start=4)
        assert min(errors) < 2.0

    def test_flow_profile_cheaper_than_detection(self):
        rng = make_rng(8)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = HybridTracker(target, INTR, rng)
        self._orbit(tracker, rng, frames=2)
        assert tracker.last_mode == "flow"
        flow_pixels = tracker.last_profile.pixels
        detect_pixels = tracker.detector.last_profile.pixels
        assert flow_pixels < detect_pixels / 4
