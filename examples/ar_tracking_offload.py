"""AR tracking + offloading walkthrough (Azuma's loop + Section 4.1).

Renders synthetic camera frames of a textured planar target, tracks it
(detect -> describe -> match -> RANSAC -> pose), measures registration
error against ground truth, and prices every frame's compute placement
across device / edge / cloud under a 30 fps deadline.

Run:  python examples/ar_tracking_offload.py
"""

import numpy as np

from repro import ARBigDataPipeline, PipelineConfig
from repro.offload import DeadlineEnergyAware
from repro.util.rng import make_rng
from repro.vision import (
    CameraIntrinsics,
    PlanarTarget,
    PlanarTracker,
    look_at,
    make_texture,
    render_plane,
)


def main() -> None:
    rng = make_rng(57)
    intrinsics = CameraIntrinsics(fx=500, fy=500, cx=160, cy=120,
                                  width=320, height=240)
    target = PlanarTarget(make_texture(rng), width_m=0.5,
                          height_m=0.5)
    tracker = PlanarTracker(target, intrinsics, rng)
    print(f"reference target described: "
          f"{tracker.reference_feature_count} features")

    pipeline = ARBigDataPipeline(PipelineConfig(
        seed=57, deadline_s=1.0 / 30.0, access_link="wifi"))
    pipeline.set_offload_policy(DeadlineEnergyAware(deadline_s=1.0 / 30.0))

    # A camera orbit: 12 frames around the target.
    print("\nframe  inliers  reg.err(px)  placement  latency(ms)  "
          "deadline")
    for i in range(12):
        angle = 0.3 + i * 0.05
        eye = [0.25 + 0.4 * np.sin(angle), 0.25 + 0.1 * np.cos(angle),
               -0.7 - 0.02 * i]
        pose_true = look_at(eye=eye, target=[0.25, 0.25, 0.0])
        frame = render_plane(target, intrinsics, pose_true, rng=rng,
                             noise_sigma=0.01,
                             gain=1.0 - 0.02 * i)  # dimming light
        result = tracker.track(frame)
        reg_error = tracker.registration_error_px(result, pose_true)
        timing = pipeline.timeliness.admit_frame(tracker.last_profile)
        print(f"{i:5d}  {result.num_inliers:7d}  {reg_error:11.2f}  "
              f"{timing.placement:9s}  {timing.latency_s * 1000:11.1f}  "
              f"{'met' if timing.met_deadline else 'MISS'}")

    report = pipeline.timeliness.report
    print(f"\nsummary: {report.frames} frames, mean latency "
          f"{report.mean_latency_s * 1000:.1f} ms, miss rate "
          f"{report.miss_rate:.0%}, energy/frame "
          f"{report.mean_energy_j * 1000:.1f} mJ, placements "
          f"{report.placements}")
    print(f"p95 latency {pipeline.timeliness.latency_p95.value() * 1000:.1f} ms")


if __name__ == "__main__":
    main()
