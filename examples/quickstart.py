"""Quickstart: the AR x Big-Data loop in ~60 lines.

Streams temperature readings from a building sensor grid into the event
log, window-aggregates them, binds the aggregates to spatial entities,
and renders a facility manager's AR view — hot spots prioritized.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ARBigDataPipeline, PipelineConfig
from repro.context import SemanticEntity
from repro.datagen import SensorGrid
from repro.util.rng import make_rng
from repro.vision import look_at


def main() -> None:
    pipeline = ARBigDataPipeline(PipelineConfig(seed=7))
    pipeline.create_topic("building.temps")

    # 1. A building instrumented with temperature sensors + one fault.
    rng = make_rng(7)
    grid = SensorGrid(rng)
    grid.add_hot_spot(6, 3, delta_c=12.0)  # overheating equipment

    # 2. Velocity: stream ten rounds of readings into the log.
    for round_idx in range(10):
        for reading in grid.read_all(t=round_idx * 30.0):
            pipeline.ingest("building.temps", reading,
                            key=reading["sensor"],
                            timestamp=reading["t"])
            if round_idx == 0:  # register each sensor as an entity once
                pipeline.add_entity(SemanticEntity(
                    entity_id=reading["sensor"], entity_type="sensor",
                    position=np.array([reading["x"], reading["y"], 3.0]),
                    name=reading["sensor"]))

    # 3. Analytics: mean temperature per sensor over 5-minute windows.
    results = pipeline.windowed_aggregate(
        "building.temps", key_fn=lambda v: v["sensor"],
        value_fn=lambda v: v["value"], window_s=300.0, aggregate="mean")
    print(f"windowed results: {len(results)} (sensors x windows)")

    # 4. Interpretation: bind hot readings to their physical anchors.
    pipeline.interpreter.register_default("temperature")
    hot = [r for r in results if r.value > 24.0]
    bound = pipeline.interpret_and_publish([
        {"tag": "temperature", "subject": r.key,
         "value": f"{r.value:.1f} C", "priority": r.value}
        for r in hot])
    print(f"hot sensors bound to AR anchors: {bound.bound} "
          f"(coverage {bound.coverage:.0%})")

    # 5. The AR view: a manager walks in and looks at the hot corner.
    session = pipeline.open_session("facility-manager")
    session.sync()
    pose = look_at(eye=[24.0, -15.0, 6.0], target=[24.0, 12.0, 3.0],
                   up=np.array([0.0, 0.0, 1.0]))
    frame = session.render(pose)
    print(f"overlay: {frame.drawn} labels drawn, "
          f"{frame.layout.overlapping} overlapping, "
          f"{frame.culled_offscreen} off-screen")
    hottest = max(frame.items, key=lambda i: i.label.priority)
    print(f"highest-priority annotation: {hottest.annotation_id} "
          f"at depth {hottest.depth_m:.1f} m")


if __name__ == "__main__":
    main()
