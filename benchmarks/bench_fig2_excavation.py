"""Experiment F2 (Figure 2: excavation progress vs design overlay).

The figure overlays excavation progress on the real site "to be compared
against designs".  We simulate a voxel site excavated day by day,
regenerate the design-vs-as-built diff overlay each day, and measure:
progress, deviation cells needing action, overlay size, and compositing
quality from a field worker's viewpoint.
"""

import numpy as np

from repro.apps import PublicServicesApp
from repro.core import ARBigDataPipeline, DEFAULT_INTRINSICS, PipelineConfig
from repro.datagen import ExcavationSite
from repro.render.compositor import Compositor
from repro.util.rng import make_rng
from repro.vision.camera import look_at

from tableprint import print_table

DAYS = 16


def run_experiment():
    rng = make_rng(22)
    app = PublicServicesApp(ARBigDataPipeline(PipelineConfig(seed=22)))
    site = ExcavationSite(rng, nx=40, ny=30)
    compositor = Compositor(DEFAULT_INTRINSICS, declutter=True)
    pose = look_at(eye=[40.0, -30.0, 25.0], target=[40.0, 30.0, -5.0],
                   up=np.array([0.0, 0.0, 1.0]))
    rows = []
    for day in range(DAYS):
        scene = app.excavation_overlay(site)
        frame = compositor.compose(scene, pose)
        rows.append([day, site.progress, site.deviation_cells(),
                     len(scene), frame.drawn,
                     frame.layout.overlap_ratio])
        site.excavate_day(fraction=0.25, noise_m=0.08)
    return rows


def bench_fig2_excavation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "F2  Figure 2: excavation progress vs design overlay",
        ["day", "progress", "deviation cells", "overlay annotations",
         "drawn", "overlap ratio"],
        rows,
        note="daily scans shrink the diff; the overlay tracks exactly "
             "the cells a worker must act on")
    progress = [r[1] for r in rows]
    deviations = [r[2] for r in rows]
    # Work progresses monotonically and deviations shrink with it.
    assert progress == sorted(progress)
    assert progress[-1] > 0.98
    assert deviations[-1] < deviations[0] * 0.05
    # Overlay size tracks deviation cells exactly.
    assert all(r[2] == r[3] for r in rows)
