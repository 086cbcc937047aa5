"""Ablation A10: tracking robustness vs ambient lighting and sensor
noise.

Section 2.1 lists "ambient lighting" among the things seamless AR must
handle.  We sweep illumination gain (dusk to over-exposure) and sensor
noise and measure tracking success and registration error — mapping the
envelope inside which the registered overlay the paper envisions
actually survives.
"""

import numpy as np

from repro.util.errors import TrackingLost
from repro.util.rng import make_rng
from repro.vision import (
    CameraIntrinsics,
    PlanarTarget,
    PlanarTracker,
    look_at,
    make_texture,
    render_plane,
)

from tableprint import print_table

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)
GAINS = [1.0, 0.6, 0.35, 0.2, 0.1]
NOISES = [0.01, 0.05]
FRAMES = 10


def run_experiment():
    rng = make_rng(99)
    target = PlanarTarget(make_texture(rng), 0.5, 0.5)
    rows = []
    for noise in NOISES:
        for gain in GAINS:
            tracker = PlanarTracker(target, INTR, make_rng(100))
            errors = []
            lost = 0
            for i in range(FRAMES):
                pose_true = look_at(eye=[0.2 + 0.01 * i, 0.27, -0.85],
                                    target=[0.25, 0.25, 0.0])
                frame = render_plane(target, INTR, pose_true,
                                     rng=rng, noise_sigma=noise,
                                     gain=gain)
                try:
                    result = tracker.track(frame)
                except TrackingLost:
                    lost += 1
                    continue
                errors.append(tracker.registration_error_px(result,
                                                            pose_true))
            rows.append([noise, gain, (FRAMES - lost) / FRAMES,
                         float(np.mean(errors)) if errors else
                         float("nan"),
                         float(np.max(errors)) if errors else
                         float("nan")])
    return rows


def bench_a10_lighting(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "A10 Sec 2.1: tracking vs illumination gain and sensor noise",
        ["noise sigma", "gain", "track success", "mean reg err px",
         "max reg err px"],
        rows,
        note="the registered overlay survives dimming until the "
             "signal-to-noise floor; heavier sensor noise pulls the "
             "failure point up the gain ladder")
    by_key = {(r[0], r[1]): r for r in rows}
    # Bright, clean frames: perfect tracking, sub-pixel registration.
    best = by_key[(0.01, 1.0)]
    assert best[2] == 1.0
    assert best[3] < 1.0
    # Tracking degrades monotonically-ish as light dims (low noise row).
    low_noise = [by_key[(0.01, g)][2] for g in GAINS]
    assert low_noise[0] >= low_noise[-1]
    # At heavy noise the darkest setting fails outright.
    worst = by_key[(0.05, 0.1)]
    assert worst[2] < 1.0
    # Where tracking still succeeds, registration stays bounded.
    for row in rows:
        if row[2] > 0 and np.isfinite(row[3]):
            assert row[3] < 10.0
