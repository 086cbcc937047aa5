"""Parallel execution (paper Sec. III: cloud-side scaling for AR
recognition workloads).

A recognition farm: four camera feeds (source splits) stream detection
confidences into one logical job — scale, threshold, per-camera
windowed aggregation.  The same job graph compiles to a physical plan
at parallelism 1, 2 and 4; results are bit-identical while the work
spreads over more worker lanes (the lane overlap, ``sum / max`` of the
items each lane processed, grows towards the parallelism), which is the
paper's big-data answer to AR's compute-hungry recognition path: fan
the keyed work out, keep the semantics.

Run:  python examples/parallel_recognition_farm.py
"""

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    compile_execution_graph,
)
from repro.util.rng import make_rng

N_FRAMES = 6_000
N_CAMERAS = 8
N_SPLITS = 4
WINDOW_S = 2.0


def _camera_frames() -> list[Element]:
    rng = make_rng(41)
    frames = []
    for i in range(N_FRAMES):
        frames.append(Element(
            value=float(rng.uniform(0.0, 1.0)),   # detector confidence
            timestamp=i * 0.002,
            key=f"cam-{int(rng.integers(0, N_CAMERAS))}"))
    return frames


def _build_job():
    builder = JobBuilder("recognition-farm")
    (builder.source("frames", _camera_frames(), splits=N_SPLITS)
            .with_watermarks(0.1, emit_every=64)
            .map(lambda c: c * 100.0, name="to_percent")
            .filter(lambda c: c >= 35.0, name="confident")
            .window(TumblingWindows(WINDOW_S), "mean", name="per_camera")
            .sink("detections"))
    return builder.build()


def main() -> None:
    print("physical plan at parallelism 4:")
    print(compile_execution_graph(_build_job(), 4).describe())

    results = {}
    lanes = {}
    for parallelism in (1, 2, 4):
        executor = ParallelExecutor(_build_job(), parallelism)
        executor.run(source_batch=512)
        results[parallelism] = sorted(
            repr(v) for v in executor.sinks["detections"].values)
        lanes[parallelism] = executor.lane_items()

    assert results[2] == results[1] and results[4] == results[1], \
        "parallelism changed the answer"
    print(f"\n{N_FRAMES} frames from {N_CAMERAS} cameras -> "
          f"{len(results[1])} windowed detection rates "
          "(identical at every parallelism)")
    print("\nitems per worker lane by parallelism:")
    for parallelism, items in lanes.items():
        overlap = sum(items) / max(items)
        print(f"  p={parallelism}: lane overlap {overlap:4.2f}  "
              f"lanes {items}")


if __name__ == "__main__":
    main()
