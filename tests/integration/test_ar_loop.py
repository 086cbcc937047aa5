"""Integration: the closed AR loop — track a real (synthetic) camera
frame, anchor virtual content on the tracked target, and verify the
overlay lands on the target's true pixels.

This is Azuma's "registered in 3-D" checked end to end: vision estimates
the pose, render projects through it, and the result must coincide with
ground truth within a few pixels.
"""

import numpy as np
import pytest

from repro.render import Annotation, Compositor, SceneGraph
from repro.util.rng import make_rng
from repro.vision import (
    CameraIntrinsics,
    HybridTracker,
    PlanarTarget,
    PlanarTracker,
    look_at,
    make_texture,
    render_plane,
)

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)


class TestClosedArLoop:
    def _world(self, seed):
        rng = make_rng(seed)
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        scene = SceneGraph()
        # Virtual content anchored at the target's centre and corners.
        anchors = {
            "centre": np.array([0.25, 0.25, 0.0]),
            "corner": np.array([0.05, 0.05, 0.0]),
            "above": np.array([0.25, 0.25, -0.1]),  # floats off-plane
        }
        for name, anchor in anchors.items():
            scene.add(Annotation(annotation_id=name, anchor=anchor,
                                 text=name, width_px=30, height_px=10))
        return rng, target, scene, anchors

    def test_overlay_registers_on_tracked_pose(self):
        rng, target, scene, anchors = self._world(101)
        tracker = PlanarTracker(target, INTR, rng)
        compositor = Compositor(INTR, declutter=False)
        pose_true = look_at(eye=[0.2, 0.3, -0.9],
                            target=[0.25, 0.25, 0.0])
        frame_image = render_plane(target, INTR, pose_true, rng=rng,
                                   noise_sigma=0.01)
        result = tracker.track(frame_image)
        overlay = compositor.compose(scene, result.pose)
        truth_px = INTR.project(pose_true.transform(
            np.stack(list(anchors.values()))))
        by_id = {item.annotation_id: item for item in overlay.items}
        for i, name in enumerate(anchors):
            item = by_id[name]
            cx, cy = item.label.rect.center
            error = np.hypot(cx - truth_px[i, 0], cy - truth_px[i, 1])
            assert error < 4.0, f"{name} misregistered by {error:.1f}px"

    def test_overlay_follows_camera_motion(self):
        rng, target, scene, anchors = self._world(102)
        tracker = HybridTracker(target, INTR, rng)
        compositor = Compositor(INTR, declutter=False)
        previous_cx = None
        for i in range(6):
            pose_true = look_at(eye=[0.15 + 0.02 * i, 0.3, -0.9],
                                target=[0.25, 0.25, 0.0])
            frame_image = render_plane(target, INTR, pose_true, rng=rng,
                                       noise_sigma=0.01)
            result = tracker.track(frame_image)
            overlay = compositor.compose(scene, result.pose)
            centre = next(item for item in overlay.items
                          if item.annotation_id == "centre")
            cx, _cy = centre.label.rect.center
            if previous_cx is not None:
                # Camera moves +x, so the anchored content slides -x.
                assert cx < previous_cx + 1.0
            previous_cx = cx
        assert tracker.flow_frames >= 4  # mostly cheap frames

    def test_registration_error_degrades_gracefully_with_noise(self):
        rng, target, scene, _anchors = self._world(103)
        tracker = PlanarTracker(target, INTR, rng)
        pose_true = look_at(eye=[0.25, 0.25, -0.8],
                            target=[0.25, 0.25, 0.0])
        errors = []
        for noise in (0.0, 0.03, 0.08):
            frame_image = render_plane(target, INTR, pose_true, rng=rng,
                                       noise_sigma=noise)
            result = tracker.track(frame_image)
            errors.append(tracker.registration_error_px(result,
                                                        pose_true))
        assert errors[0] < 1.0
        assert errors[-1] < 8.0  # noisy but not catastrophic
        assert errors[0] <= errors[-1] + 1.0
