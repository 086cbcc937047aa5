"""From samples and spans to the named metrics of ``BENCHMARK.json``.

End-to-end metrics come from the untraced pass and are speed-corrected;
the same statistics over raw wall-clock are kept beside them (``raw``)
and never share a column.  Per-layer metrics come from the traced pass:
span self times, corrected by the factor of the block each span's
``trace_id`` ran in, plus the counters the seams collected.
"""

from __future__ import annotations

import resource
from functools import partial

import numpy as np

from calibration import guarded_percentile
from spans import END, NAME, START, TRACE, layer_table

__all__ = ["end_to_end", "per_layer", "host", "peak_rss_mb"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res, guard: dict, *, corrected: bool = True
               ) -> dict[str, float]:
    """The timed end-to-end metrics of one pass (``setup_s`` and
    ``peak_rss_mb`` are the caller's)."""
    pick = (lambda s: s.corrected()) if corrected else (lambda s: s.raw())
    pct = partial(guarded_percentile, **guard)
    overlay = pick(res.event_to_overlay)
    frames = pick(res.frames)
    return {
        "e2e_rows_per_s": res.ingest_rows / (pick(res.ingest).sum() / 1e9),
        "event_to_overlay_p50_ms": pct(overlay, 50) / 1e6,
        "event_to_overlay_p90_ms": pct(overlay, 90) / 1e6,
        "frame_serve_p50_us": pct(frames, 50) / 1e3,
        "frame_serve_p90_us": pct(frames, 90) / 1e3,
        "dashboard_query_p50_ms": pct(pick(res.queries), 50) / 1e6,
    }


def _durations(spans: list, name: str, factors: dict) -> np.ndarray:
    return np.asarray([(s[END] - s[START]) * factors.get(s[TRACE], 1.0)
                       for s in spans if s[NAME] == name], dtype=np.float64)


def _pct_of(part: float, total: float) -> float:
    return 100.0 * part / total if total else 0.0


def per_layer(untraced, traced, spans: list, guard: dict
              ) -> dict[str, float]:
    """Every per-layer metric, from the traced pass (``traced``), the
    untraced pass run just before it, and the traced pass's spans."""
    world, factors = traced.world, traced.factors
    pct = partial(guarded_percentile, **guard)
    chunk = layer_table(spans, "e2e.chunk", factors)
    tick = layer_table(spans, "e2e.tick", factors)
    frame = layer_table(spans, "e2e.frame", factors)

    def self_ns(name: str) -> float:
        return chunk["names"].get(name, 0.0) + tick["names"].get(name, 0.0)

    rows = world.rows_appended
    chunk_rows, tick_rows = traced.chunk_rows, traced.tick_rows
    fetch_ns = world.fetch_probe_ns + self_ns("eventlog.fetch")
    finalize = _durations(spans, "streaming.checkpoint_finalize", factors)
    lookups = _durations(spans, "store.lookup", factors)
    compose = _durations(spans, "render.compose", factors)
    construct_ms = float(np.median(world.construct_ns)) / 1e6
    build_ms = self_ns("streaming.job_build") / max(world.jobs, 1) / 1e6
    whole = traced.ticks.corrected()
    third = len(whole) // 3

    out = {
        "eventlog.produce_us_per_row": self_ns("eventlog.produce") / rows / 1e3,
        "eventlog.fetch_us_per_row":
            fetch_ns / max(chunk_rows + tick_rows, 1) / 1e3,
        "eventlog.rows_appended": rows,
        "eventlog.rows_fetched": world.rows_fetched,
        "streaming.connector_us_per_row":
            (self_ns("streaming.connector") + world.connector_probe_ns)
            / max(chunk_rows + world.connector_probe_rows, 1) / 1e3,
        "streaming.job_launch_ms": build_ms + construct_ms,
        "streaming.engine_us_per_row":
            self_ns("streaming.run_coordinated") / rows / 1e3,
        "streaming.rows_out_per_row_in": world.sink_rows / rows,
        "streaming.checkpoint_finalize_ms_p50": pct(finalize, 50) / 1e6,
        "streaming.checkpoint_finalize_ms_total": finalize.sum() / 1e6,
        "streaming.checkpoints": world.checkpoints_done,
        "streaming.checkpoint_bytes_p50":
            float(np.median(world.checkpoints.payload_bytes)),
        "streaming.restore_ms": float(np.mean(world.restore_ns)) / 1e6,
        "store.apply_us_per_row":
            self_ns("store.apply") / max(world.sink_rows, 1) / 1e3,
        "store.epochs_applied": world.epochs_applied,
        **world.store_counters(),
        "store.lookup_us_p50": pct(lookups, 50) / 1e3,
        "store.lookup_us_p90": pct(lookups, 90) / 1e3,
        "context.interpret_us_per_frame":
            frame["names"].get("context.interpret", 0.0)
            / max(frame["roots"], 1) / 1e3,
        "render.compose_us_p50": pct(compose, 50) / 1e3,
        "render.compose_us_p90": pct(compose, 90) / 1e3,
        "render.drawn_per_frame": traced.drawn / traced.frames_composed,
        "render.shed_per_frame": traced.shed / traced.frames_composed,
        "e2e.tick_ms_p99": pct(whole, 99) / 1e6,
        "e2e.tick_drift_ratio":
            float(np.median(whole[-third:]) / np.median(whole[:third])),
        "trace.overhead_ratio":
            traced.measured_ns / untraced.measured_ns,
    }
    out.update(_shares("chunk", chunk, {
        "produce": ("eventlog.produce",),
        "connector": ("streaming.connector",),
        "engine": ("streaming.run_coordinated", "streaming.job_build"),
        "checkpoint": ("streaming.checkpoint_finalize",),
        "apply": ("store.apply",)}))
    # run_coordinated constructs its executor out of the benchmark's
    # reach; the probe's median construct time moves that much of its
    # self time from "engine" to "launch"
    launch_ns = construct_ms * 1e6 * tick["roots"]
    out.update(_shares("tick", tick, {
        "produce": ("eventlog.produce",),
        "launch": ("streaming.job_build",),
        "fetch": ("eventlog.fetch",),
        "engine": ("streaming.run_coordinated", "streaming.source"),
        "checkpoint": ("streaming.checkpoint_finalize",),
        "apply": ("store.apply",),
        "frame": ("store.lookup", "app.results", "context.interpret",
                  "render.scene", "render.compose", "e2e.frame"),
        "query": ("store.query",)},
        move=("engine", "launch", launch_ns)))
    out.update(_shares("frame", frame, {
        "lookup": ("store.lookup",),
        "results": ("app.results",),
        "interpret": ("context.interpret",),
        "compose": ("render.scene", "render.compose")}))
    out.update(host(untraced))
    return out


def _shares(scope: str, table: dict, groups: dict, move=None
            ) -> dict[str, float]:
    """Share of a scope's end-to-end time per group of span names.
    ``bench`` is what the benchmark's own probes cost inside the scope;
    the residual is what no span claims at all."""
    total = table["total_ns"]
    parts = {group: sum(table["names"].get(n, 0.0) for n in names)
             for group, names in groups.items()}
    parts["bench"] = sum(ns for name, ns in table["names"].items()
                         if name.startswith("bench."))
    if move is not None and total:
        src, dst, amount = move
        amount = min(amount, parts[src])
        parts[src] -= amount
        parts[dst] += amount
    out = {f"{scope}.{group}_pct": _pct_of(ns, total)
           for group, ns in parts.items()}
    out[f"{scope}.residual_pct"] = _pct_of(total - sum(parts.values()),
                                           total)
    return out


def host(res) -> dict[str, float]:
    """What the host did during the untraced pass, and the uncorrected
    headline numbers — kept apart from the corrected ones."""
    cal = np.concatenate([p.cal_ms for p in res.phases])
    q1, q2, q3 = np.percentile(cal, [25, 50, 75])
    factor = [u.factor for p in res.phases for u in p.units]
    return {
        "host.cal_ms_p50": float(q2),
        "host.cal_ms_iqr": float(q3 - q1),
        "host.speed_factor_p50": float(np.median(factor)),
        "host.raw_rows_per_s":
            res.ingest_rows / (res.ingest.raw().sum() / 1e9),
        "host.raw_frame_p50_us": float(np.median(res.frames.raw())) / 1e3,
    }
