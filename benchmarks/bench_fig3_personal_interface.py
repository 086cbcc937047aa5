"""Experiment F3 (Figure 3: the "Sight" retinal personal interface).

The figure envisions a personal information centre: "data from sensors,
apps, and Internet augment current views".  We fuse three per-user
streams (health wearable, messages, ambient sensors) into prioritized
personal overlay content under a strict per-frame render budget, and
measure sustained drawn-content rate and what gets shed as stream rate
grows — the device-intrusion constraint made quantitative.
"""

import numpy as np

from repro.context import SemanticEntity
from repro.core import ARBigDataPipeline, DEFAULT_INTRINSICS, PipelineConfig
from repro.render.compositor import FrameBudget
from repro.util.rng import make_rng
from repro.vision.camera import look_at

from tableprint import print_table

STREAM_RATES = [5, 20, 80, 320]  # notifications per sync interval


def run_experiment():
    rows = []
    for rate in STREAM_RATES:
        pipeline = ARBigDataPipeline(PipelineConfig(seed=23))
        rng = make_rng(23)
        # Personal HUD anchors: a ring of slots in front of the user.
        for i in range(64):
            angle = 2 * np.pi * i / 64
            pipeline.add_entity(SemanticEntity(
                entity_id=f"slot-{i:02d}", entity_type="hud-slot",
                position=np.array([2.0 * np.sin(angle),
                                   0.5 * np.cos(angle * 3), 4.0]),
                name=f"slot {i}"))
        for tag in ("health", "message", "ambient"):
            pipeline.interpreter.register_default(tag)
        session = pipeline.open_session(
            "wearer", budget=FrameBudget(budget_ms=2.0))
        results = []
        for k in range(rate):
            kind = ("health", "message", "ambient")[k % 3]
            priority = {"health": 10.0, "message": 3.0,
                        "ambient": 1.0}[kind]
            results.append({
                "tag": kind, "subject": f"slot-{k % 64:02d}",
                "value": f"{kind}-{k}",
                "priority": priority + float(rng.random()),
            })
        bound = pipeline.interpret_and_publish(results)
        session.sync()
        pose = look_at(eye=[0.0, 0.0, 0.0], target=[0.0, 0.0, 4.0])
        frame = session.render(pose)
        kinds_drawn = {}
        for item in frame.items:
            if not item.label.dropped:
                kinds_drawn[item.kind] = kinds_drawn.get(item.kind, 0) + 1
        rows.append([rate, bound.bound, frame.drawn,
                     frame.shed_by_budget,
                     kinds_drawn.get("health", 0),
                     kinds_drawn.get("message", 0),
                     kinds_drawn.get("ambient", 0)])
    return rows


def bench_fig3_personal_interface(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "F3  Figure 3: personal retinal interface under frame budget",
        ["stream rate", "bound", "drawn", "shed by budget",
         "health drawn", "messages drawn", "ambient drawn"],
        rows,
        note="2 ms frame budget (8 labels): as streams grow, shedding "
             "keeps health content and drops ambient first")
    # Light load: nothing shed.
    assert rows[0][3] == 0
    # Heavy load: the budget sheds, drawn content stays bounded.
    assert rows[-1][3] > 0
    drawn = [r[2] for r in rows]
    assert max(drawn) <= 8  # the 2 ms budget cap
    # Priority preserved under pressure: health survives over ambient.
    heavy = rows[-1]
    assert heavy[4] >= heavy[6]
    assert heavy[4] > 0
