"""Ablation A9: adaptive quality under changing network conditions.

Section 4.1's real-time contract must survive the network turning bad.
A session starts at 720p over a good WiFi edge; mid-run the access link
collapses (e.g. the user walks into a dead zone) and later recovers.
The adaptive controller steps resolution down to keep the deadline and
steps back up when conditions return; a fixed-quality session just
misses frames for the whole outage.
"""

import numpy as np

from repro.core import (
    AdaptiveQualityController,
    ARBigDataPipeline,
    PipelineConfig,
)
from repro.simnet.network import LINK_PRESETS, LinkSpec
from repro.vision.tracker import StageProfile

from tableprint import print_table

PHASES = [  # (name, frames, access link)
    ("good wifi", 60, LINK_PRESETS["wifi"]),
    ("dead zone", 60, LinkSpec(latency_s=0.2, bandwidth_bps=5e4,
                               jitter_s=0.02)),
    ("recovered", 60, LINK_PRESETS["wifi"]),
]
DEADLINE_S = 1.0 / 30.0


def _fixed_profile():
    width, height = 1280, 720
    pixels = width * height
    features = min(1200, int(80 * (pixels / (160 * 120)) ** 0.5))
    return StageProfile(pixels=pixels, features=features,
                        matches=int(features * 0.4),
                        ransac_iterations=80)


def run_experiment():
    rows = []
    # Adaptive session.
    adaptive_pipeline = ARBigDataPipeline(PipelineConfig(
        seed=97, deadline_s=DEADLINE_S))
    controller = AdaptiveQualityController(adaptive_pipeline.timeliness)
    # Fixed-quality session.
    fixed_pipeline = ARBigDataPipeline(PipelineConfig(
        seed=97, deadline_s=DEADLINE_S))
    fixed_profile = _fixed_profile()
    for phase, frames, link in PHASES:
        adaptive_pipeline.set_access_link(link)
        fixed_pipeline.set_access_link(link)
        adaptive_miss = 0
        fixed_miss = 0
        levels = []
        for _ in range(frames):
            timing = controller.admit_frame()
            adaptive_miss += 0 if timing.met_deadline else 1
            levels.append(controller.level)
            fixed = fixed_pipeline.timeliness.admit_frame(fixed_profile)
            fixed_miss += 0 if fixed.met_deadline else 1
        width, height = AdaptiveQualityController.LADDER[
            int(round(float(np.median(levels))))]
        rows.append([phase, frames, f"{width}x{height}",
                     adaptive_miss / frames, fixed_miss / frames,
                     controller.downshifts, controller.upshifts])
    return rows


def bench_a9_adaptive_quality(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "A9  Sec 4.1: adaptive quality through a network outage "
        "(33 ms deadline)",
        ["phase", "frames", "median resolution", "adaptive miss rate",
         "fixed-720p miss rate", "downshifts so far", "upshifts so far"],
        rows,
        note="the controller trades resolution for the deadline during "
             "the outage and recovers afterwards; the fixed session "
             "just fails")
    good, dead, recovered = rows
    # During the outage the fixed session misses everything; the
    # adaptive one recovers a (much) lower miss rate by downshifting.
    assert dead[4] == 1.0
    assert dead[3] < dead[4]
    assert dead[5] >= 1  # it actually downshifted
    # After recovery the controller steps quality back up and meets the
    # deadline again.
    assert recovered[6] >= 1
    assert recovered[3] < 0.4
    # In the good phase the adaptive session meets the deadline (it
    # settles at VGA — this phone cannot do 720p in 33 ms even offloaded,
    # which is exactly why the fixed-720p session misses everywhere).
    assert good[3] < 0.2
