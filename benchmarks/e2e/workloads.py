"""The phases every workload runs, and the samples they leave behind.

Each workload is a closed loop with one client, in one thread:

    ingest (chunks)  ->  serve (frames)  ->  dashboard (queries)  ->  live ticks

against one :class:`~pipeline.World`.  ``ward-live`` has no chunks and
no separate serve phase — its frames are the ones inside its ticks —
and the two backfills end with a short live tail, so every workload
yields every end-to-end metric from at least a thousand samples.

Every timed unit (one chunk, or one block of frames, queries or ticks)
runs inside ``Phase.unit``: bracketed by calibration kernels, with a
``gc.collect()`` before it.  Oracle checks happen between units or
between the per-sample clock reads, never inside a measured interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from calibration import Phase
from inputs import Inputs
from oracle import Oracle
from pipeline import LIVE_TOPIC, World

__all__ = ["Samples", "PassResult", "warm_up", "run_pass"]

_now = time.perf_counter_ns


@dataclass
class Samples:
    """Per-sample raw durations with the correction factor of the block
    each sample was measured in."""

    raw_ns: list[int] = field(default_factory=list)
    factor: list[float] = field(default_factory=list)

    def add_block(self, raw_ns: list[int], factor: float) -> None:
        self.raw_ns.extend(raw_ns)
        self.factor.extend([factor] * len(raw_ns))

    def raw(self) -> np.ndarray:
        return np.asarray(self.raw_ns, dtype=np.float64)

    def corrected(self) -> np.ndarray:
        return self.raw() * np.asarray(self.factor, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.raw_ns)


@dataclass
class PassResult:
    world: World
    oracle: Oracle
    phases: list[Phase] = field(default_factory=list)
    #: rows whose time is in ``ingest``
    ingest_rows: int = 0
    chunk_rows: int = 0
    tick_rows: int = 0
    #: corrected time of every measured interval, for the trace overhead
    measured_ns: float = 0.0
    #: per chunk (backfills) or per tick (ward-live): send -> queryable
    ingest: Samples = field(default_factory=Samples)
    frames: Samples = field(default_factory=Samples)
    queries: Samples = field(default_factory=Samples)
    #: per tick, first send -> compose return
    event_to_overlay: Samples = field(default_factory=Samples)
    #: per tick including its in-loop dashboard query
    ticks: Samples = field(default_factory=Samples)
    drawn: int = 0
    shed: int = 0
    frames_composed: int = 0
    ops_attempted: int = 0
    ops_failed: int = 0
    #: trace_id -> correction factor of its block
    factors: dict[str, float] = field(default_factory=dict)
    #: phase -> wall seconds including calibration, gc and oracle checks
    wall_s: dict[str, float] = field(default_factory=dict)


def _check_frame(oracle: Oracle, lookups, out) -> bool:
    got, bound, frame = out
    ok = all(oracle.lookup_ok(lk.code, versions)
             for lk, versions in zip(lookups, got))
    accounted = (len(frame.items) + frame.shed_by_budget
                 + frame.culled_offscreen + frame.culled_occluded)
    return ok and bound.bound == len(lookups) and accounted == len(lookups)


def _oracle_answer(oracle: Oracle, query) -> dict:
    if query.window_s is not None:
        return oracle.tumbling_mean(query.window_s, query.start, query.end,
                                    query.codes)
    return oracle.group_mean(query.start, query.end, query.codes)


def _expect(oracle: Oracle, inputs: Inputs, rows, cfg: dict) -> None:
    if inputs.windowed:
        oracle.expect_window_means(rows.codes, rows.ts, rows.values,
                                   cfg["window_s"])
    else:
        oracle.expect_rows(rows.codes, rows.ts, rows.values)


def warm_up(inputs: Inputs, cfg: dict, rec: Any) -> None:
    """Every code path once, on a scratch world, before anything is
    timed: lazy imports, numpy first-call set-up, allocator growth."""
    world = World(inputs, cfg, rec)
    if len(inputs.warmup):
        world.ingest_chunk(world.create_chunk_topic(0), inputs.warmup)
    for rows, camera, lookups in inputs.warmup_ticks:
        world.ingest_tick(rows)
        world.serve_frame(camera, lookups)
    for query in inputs.queries[:5]:
        world.run_query(query)


def run_pass(inputs: Inputs, cfg: dict, world: World) -> PassResult:
    """One full pass over a fresh world."""
    rec = world.rec
    res = PassResult(world, Oracle(inputs.keys))
    live = inputs.workload == "ward-live"
    phases = [_ingest_chunks, _serve_frames, _dashboard, _live_ticks]
    if live:  # its dashboard reads the store its ticks have built
        phases = [_live_ticks, _dashboard]
    for phase in phases:
        started = time.perf_counter()
        phase(res, inputs, cfg, rec)
        res.wall_s[phase.__name__.lstrip("_")] = (time.perf_counter()
                                                  - started)
    if not res.oracle.latest_table_consistent():
        res.ops_failed += 1
    return res


def _phase(res: PassResult, cfg: dict) -> Phase:
    phase = Phase(cfg["cal_ref_ms"], cfg["cal_n"], cfg["cal_repeats"])
    res.phases.append(phase)
    return phase


def _verify_store(res: PassResult, sent: int) -> None:
    """After ingest: every expected row is in the hot tier, and the
    analytical tier holds as many.  One failed operation per sent row
    whose result is missing."""
    oracle, store = res.oracle, res.world.store
    missing = oracle.missing_rows(store.contents())
    missing = max(missing, abs(store.analytical.rows - oracle.rows))
    res.ops_attempted += sent
    res.ops_failed += min(sent, -(-missing * sent // max(oracle.rows, 1)))


def _ingest_chunks(res: PassResult, inputs: Inputs, cfg: dict,
                   rec: Any) -> None:
    if not inputs.chunks:
        return
    world, phase = res.world, _phase(res, cfg)
    for index, rows in enumerate(inputs.chunks):
        topic = world.create_chunk_topic(index)
        _expect(res.oracle, inputs, rows, cfg)
        rec.trace_id = f"chunk-{index}"
        with phase.unit() as unit:
            with rec.span("e2e.chunk"):
                world.ingest_chunk(topic, rows)
        res.ingest.add_block([unit.raw_ns], unit.factor)
        res.measured_ns += unit.corrected_ns
        res.factors[rec.trace_id] = unit.factor
        res.ingest_rows += len(rows)
        res.chunk_rows += len(rows)
        if rec.enabled:
            world.probe_fetch(topic)
            world.probe_launch_and_restore(topic)
    _verify_store(res, sent=res.ingest_rows)


def _blocks(items: list, size: int):
    for start in range(0, len(items), size):
        yield start, items[start:start + size]


def _serve_frames(res: PassResult, inputs: Inputs, cfg: dict,
                  rec: Any) -> None:
    if not inputs.frames:
        return
    world, oracle, phase = res.world, res.oracle, _phase(res, cfg)
    for start, block in _blocks(inputs.frames, cfg["block"]["frames"]):
        raw, outs = [], []
        with phase.unit() as unit:
            for offset, (camera, lookups) in enumerate(block):
                rec.trace_id = f"frame-{start + offset}"
                t0 = _now()
                with rec.span("e2e.frame"):
                    out = world.serve_frame(camera, lookups)
                raw.append(_now() - t0)
                outs.append(out)
        res.frames.add_block(raw, unit.factor)
        res.measured_ns += sum(raw) * unit.factor
        for offset, ((_camera, lookups), out) in enumerate(zip(block, outs)):
            res.factors[f"frame-{start + offset}"] = unit.factor
            _count_frame(res, oracle, lookups, out)


def _count_frame(res: PassResult, oracle: Oracle, lookups, out) -> None:
    res.ops_attempted += 1
    res.ops_failed += not _check_frame(oracle, lookups, out)
    frame = out[2]
    res.frames_composed += 1
    res.drawn += frame.drawn
    res.shed += frame.shed_by_budget


def _dashboard(res: PassResult, inputs: Inputs, cfg: dict, rec: Any) -> None:
    world, oracle, phase = res.world, res.oracle, _phase(res, cfg)
    answers: dict = {}  # query -> oracle answer; the store is static here
    for start, block in _blocks(inputs.queries, cfg["block"]["queries"]):
        raw, outs = [], []
        with phase.unit() as unit:
            for offset, query in enumerate(block):
                rec.trace_id = f"query-{start + offset}"
                t0 = _now()
                with rec.span("e2e.query"):
                    out = world.run_query(query)
                raw.append(_now() - t0)
                outs.append(out)
        res.queries.add_block(raw, unit.factor)
        res.measured_ns += sum(raw) * unit.factor
        for offset, (query, out) in enumerate(zip(block, outs)):
            res.factors[f"query-{start + offset}"] = unit.factor
            expected = answers.get(query)
            if expected is None:
                expected = answers[query] = _oracle_answer(oracle, query)
            res.ops_attempted += 1
            res.ops_failed += not oracle.same_aggregate(expected, out)


def _live_ticks(res: PassResult, inputs: Inputs, cfg: dict, rec: Any) -> None:
    if not inputs.ticks:
        return
    world, oracle, phase = res.world, res.oracle, _phase(res, cfg)
    live = inputs.workload == "ward-live"
    for start, block in _blocks(inputs.ticks, cfg["block"]["ticks"]):
        ingest, overlay, frame_ns, whole, ids = [], [], [], [], []
        with phase.unit() as unit:
            for offset, (rows, camera, lookups) in enumerate(block):
                tick = start + offset
                oracle.expect_rows(rows.codes, rows.ts, rows.values)
                query = inputs.tick_queries.get(tick)
                rec.trace_id = f"tick-{tick}"
                ids.append(rec.trace_id)
                t0 = _now()
                with rec.span("e2e.tick"):
                    world.ingest_tick(rows)
                    t1 = _now()
                    with rec.span("e2e.frame"):
                        out = world.serve_frame(camera, lookups)
                    t2 = _now()
                    answer = (world.run_query(query)
                              if query is not None else None)
                t3 = _now()
                ingest.append(t1 - t0)
                frame_ns.append(t2 - t1)
                overlay.append(t2 - t0)
                whole.append(t3 - t0)
                # checks sit between ticks, outside every clock read above
                _count_frame(res, oracle, lookups, out)
                if query is not None:
                    res.ops_attempted += 1
                    res.ops_failed += not oracle.same_aggregate(
                        _oracle_answer(oracle, query), answer)
                if rec.enabled and tick % 10 == 0:
                    world.probe_launch_and_restore(None)
        sent = sum(len(rows) for rows, _camera, _lookups in block)
        res.event_to_overlay.add_block(overlay, unit.factor)
        res.ticks.add_block(whole, unit.factor)
        res.measured_ns += sum(whole) * unit.factor
        res.factors.update(dict.fromkeys(ids, unit.factor))
        res.tick_rows += sent
        if live:
            res.ingest.add_block(ingest, unit.factor)
            res.frames.add_block(frame_ns, unit.factor)
            res.ingest_rows += sent
        else:
            # the tail's 20 rows per tick are checked by the tick's own
            # lookups: the frame fails if any of them is not visible
            res.ops_attempted += sent
    if live:
        _verify_store(res, sent=res.ingest_rows)
        if rec.enabled:
            world.probe_connector(LIVE_TOPIC)
