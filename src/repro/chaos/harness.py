"""Reference fixtures for the chaos suites.

Sources rewind by position (the event log replays by offset), so the
recovery invariant the whole chaos suite enforces is:

    for any seeded fault schedule, the sinks after recovery are
    **bit-identical** to the fault-free run.

The runner that recovers a job is ``run_coordinated`` (it lives in
:mod:`repro.streaming.supervisor` and is re-exported here);
``fault_free_sinks`` is the golden run it is compared against.
``reference_job`` builds the canonical pipeline (watermarks -> map ->
filter -> key_by -> window sum) used by the equivalence suites, and
``reference_events`` its seeded input — shared here so tests, the
robustness gate and benchmarks all agree on what "the reference
pipeline" means.
"""

from __future__ import annotations

from typing import Any, Callable

from ..streaming.element import Element
from ..streaming.execution import ParallelExecutor
from ..streaming.graph import JobBuilder, JobGraph
from ..streaming.supervisor import run_coordinated
from ..streaming.windows import TumblingWindows
from ..util.rng import make_rng

__all__ = ["reference_events", "reference_job", "reference_operator_names",
           "fault_free_sinks", "run_coordinated",
           "two_region_job", "canonical_sinks"]


def reference_events(seed: int = 0, n: int = 400) -> list[Element]:
    """Seeded out-of-order events over four keys for the reference
    pipeline."""
    rng = make_rng((int(seed), 0xE7E27))
    events = []
    for i in range(n):
        ts = float(i) * 0.25 + float(rng.uniform(-1.5, 1.5))
        events.append(Element(
            value={"k": int(rng.integers(0, 4)),
                   "v": float(rng.uniform(0.0, 10.0))},
            timestamp=max(0.0, ts)))
    return events


def reference_job(elements_or_source: Any,
                  splits: int | None = None) -> JobGraph:
    """watermarks -> map -> filter -> key_by -> window(sum) -> sink,
    with 5 s of lateness and 10 s windows.

    The linear head is chainable, the window is a shuffle point, so one
    graph exercises the per-item path, a fused chain and a keyed node.
    ``splits`` pins the source's split count independently of source
    parallelism — required for rescaling tests, where a checkpoint can
    only restore into a plan with the same splits.
    """
    builder = JobBuilder("chaos-reference")
    (builder.source("events", elements_or_source, splits=splits)
            .with_watermarks(5.0, name="watermarks")
            .map(lambda v: {"k": v["k"], "v": v["v"] * 2.0}, name="double")
            .filter(lambda v: v["v"] >= 1.0, name="drop_tiny")
            .key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"], name="window_sum")
            .sink("out"))
    return builder.build()


def reference_operator_names() -> tuple[str, ...]:
    """Crash targets in the reference job (kept in sync by tests)."""
    return ("watermarks", "double", "drop_tiny", "by_key", "window_sum")


def canonical_sinks(sink_values: dict[str, list[Any]]
                    ) -> dict[str, list[Any]]:
    """Order-insensitive canonical form of sink output.

    Crash recovery replays deterministically, so crash-only schedules
    reproduce the fault-free sink lists *exactly*.  Network faults
    (channel delay/partition) and fail-silent stalls legitimately shift
    *when* windows fire, which permutes the cross-subtask interleaving
    at a merge sink — content is still exactly-once (no loss, no
    duplicates, bit-identical values), only the arrival order differs,
    as on any real multi-partition sink.  Equivalence suites compare
    ``canonical_sinks(a) == canonical_sinks(b)``: it is exact on values
    and multiplicities while forgiving the interleaving.
    """
    return {name: sorted(values, key=repr)
            for name, values in sink_values.items()}


def two_region_job(events_a: Any, events_b: Any) -> JobGraph:
    """Two disjoint pipelines in one job: the canonical two-region plan,
    each with the reference job's lateness and windows.

    The pipelines share no edges, so :func:`failover_regions` splits
    them into independent restart units (the connected components of
    the plan) — a crash in pipeline A replays only ``events_a`` while
    pipeline B keeps its state and position.  The recovery-MTTR gate
    asserts exactly that: regional replay strictly below what a
    whole-job restart would re-read.
    """
    builder = JobBuilder("two-region")
    (builder.source("events_a", events_a)
            .with_watermarks(5.0, name="wm_a")
            .map(lambda v: {"k": v["k"], "v": v["v"] * 2.0}, name="double_a")
            .key_by(lambda v: v["k"], name="by_key_a")
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"], name="window_a")
            .sink("out_a"))
    (builder.source("events_b", events_b)
            .with_watermarks(5.0, name="wm_b")
            .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0}, name="shift_b")
            .key_by(lambda v: v["k"], name="by_key_b")
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"], name="window_b")
            .sink("out_b"))
    return builder.build()


def fault_free_sinks(build: Callable[[], JobGraph], *,
                     batch_mode: bool = True,
                     parallelism: int | dict[str, int] = 1,
                     source_batch: int = 64) -> dict[str, list[Any]]:
    """The golden run: same job, no injector, straight execution."""
    executor = ParallelExecutor(build(), parallelism, batch_mode=batch_mode)
    sinks = executor.run(source_batch=source_batch)
    return {name: list(buf.values) for name, buf in sinks.items()}
