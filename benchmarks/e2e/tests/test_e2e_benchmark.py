"""Unit tests of the benchmark's own machinery (not of ``repro``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import spans
from calibration import (Phase, TooFewSamples, correction_factor,
                         guarded_percentile)
from oracle import Oracle

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
GUARD = {"min_samples": 1000, "min_beyond": 10}


# -- percentile guard ---------------------------------------------------------

def test_percentile_refuses_small_samples():
    with pytest.raises(TooFewSamples):
        guarded_percentile(range(999), 50, **GUARD)
    assert guarded_percentile(range(1000), 50, **GUARD) == pytest.approx(499.5)


def test_percentile_needs_ten_samples_beyond_it():
    # p99 of 1 000 leaves exactly ten beyond; p99.5 leaves five
    assert guarded_percentile(range(1000), 99, **GUARD) > 980
    with pytest.raises(TooFewSamples):
        guarded_percentile(range(1000), 99.5, **GUARD)
    with pytest.raises(TooFewSamples):  # the low tail is guarded alike
        guarded_percentile(range(1000), 0.5, **GUARD)


# -- block speed correction ---------------------------------------------------

def test_correction_factor_arithmetic():
    assert correction_factor(55.0, 50.0, 60.0) == pytest.approx(1.0)
    # host at half speed: the unit is credited half its duration
    assert correction_factor(55.0, 110.0, 110.0) == pytest.approx(0.5)
    assert correction_factor(55.0, 27.5, 27.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        correction_factor(55.0, 0.0, 0.0)


def test_phase_brackets_share_kernel_runs(monkeypatch):
    readings = iter([50.0, 60.0, 110.0, 110.0])
    monkeypatch.setattr(calibration, "calibrate",
                        lambda n, repeats: next(readings))
    phase = Phase(cal_ref_ms=55.0, cal_n=1)
    for _ in range(3):
        with phase.unit() as unit:
            pass
        unit.raw_ns = 1_000_000  # pin the clock reading
    a, b, c = phase.units
    assert (a.pre_ms, a.post_ms) == (50.0, 60.0)
    assert (b.pre_ms, b.post_ms) == (60.0, 110.0)  # shares a's closing run
    assert (c.pre_ms, c.post_ms) == (110.0, 110.0)
    assert a.corrected_ns == pytest.approx(1_000_000)
    assert c.corrected_ns == pytest.approx(500_000)
    assert phase.cal_ms == [50.0, 60.0, 110.0, 110.0]


# -- span self time --------------------------------------------------------------

def _span(name, start, end, parent, trace="t"):
    return [name, start, end, parent, trace]


def test_self_time_nested_children():
    recorded = [
        _span("e2e.chunk", 0, 100, -1),
        _span("eventlog.produce", 10, 30, 0),
        _span("streaming.run_coordinated", 40, 90, 0),
        _span("store.apply", 50, 70, 2),
    ]
    assert spans.self_times(recorded) == [30, 20, 30, 20]


def test_self_time_overlapping_and_overhanging_children():
    recorded = [
        _span("root", 0, 100, -1),
        _span("a", 10, 50, 0),
        _span("b", 40, 70, 0),    # overlaps a: union is [10, 70)
        _span("c", 90, 130, 0),   # sticks out: clipped to [90, 100)
    ]
    assert spans.self_times(recorded)[0] == 100 - 60 - 10


def test_layer_table_scopes_and_correction():
    recorded = [
        _span("e2e.tick", 0, 100, -1, "tick-0"),
        _span("eventlog.produce", 0, 20, 0, "tick-0"),
        _span("e2e.frame", 50, 100, 0, "tick-0"),      # nested scope
        _span("store.lookup", 50, 60, 2, "tick-0"),
        _span("e2e.frame", 200, 240, -1, "frame-0"),   # root scope
        _span("render.compose", 205, 235, 4, "frame-0"),
    ]
    tick = spans.layer_table(recorded, "e2e.tick")
    assert tick["total_ns"] == 100 and tick["roots"] == 1
    assert tick["names"] == {"eventlog.produce": 20, "e2e.frame": 40,
                             "store.lookup": 10}
    assert tick["residual_ns"] == 30
    frame = spans.layer_table(recorded, "e2e.frame",
                              {"tick-0": 1.0, "frame-0": 0.5})
    assert frame["roots"] == 2
    assert frame["total_ns"] == 50 + 40 * 0.5
    assert frame["layers"] == {"store": 10, "render": 15}


def test_recorder_records_parent_and_trace_id():
    rec = spans.SpanRecorder()
    rec.trace_id = "chunk-0"
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    (outer, inner) = rec.spans
    assert outer[spans.PARENT] == -1 and inner[spans.PARENT] == 0
    assert inner[spans.TRACE] == "chunk-0"
    assert outer[spans.START] <= inner[spans.START] <= inner[spans.END] \
        <= outer[spans.END]


# -- independence from the program under test -----------------------------------

@pytest.mark.parametrize("module", ["calibration", "oracle", "inputs",
                                    "spans"])
def test_module_never_imports_repro(module):
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, "
            f"{str(ROOT / 'src')!r}]; import {module}; "
            "bad = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
            "assert not bad, bad")
    subprocess.run([sys.executable, "-c", code], check=True)


# -- the oracle --------------------------------------------------------------------

def test_oracle_window_means_latest_and_missing_rows():
    oracle = Oracle(["a", "b"])
    codes = [0, 0, 1, 0, 1]
    ts = [1.0, 12.0, 3.0, 8.0, 4.0]
    values = [2.0, 10.0, 5.0, 4.0, 7.0]
    oracle.expect_window_means(codes, ts, values, 10.0)
    # a: [0,10) -> (2+4)/2 at ts 10, [10,20) -> 10 at ts 20; b: 6 at ts 10
    contents = {"'a'": [(20.0, 10.0), (10.0, 3.0)], "'b'": [(10.0, 6.0)]}
    assert oracle.missing_rows(contents) == 0
    assert oracle.lookup_ok(0, [(20.0, 10.0)])
    assert not oracle.lookup_ok(0, [(10.0, 3.0)])
    assert not oracle.lookup_ok(1, [])
    assert oracle.latest_table_consistent()
    dropped = {"'a'": [(20.0, 10.0)], "'b'": [(10.0, 6.0)]}
    assert oracle.missing_rows(dropped) == 1
    wrong = {"'a'": [(20.0, 10.0), (10.0, 3.5)], "'b'": [(10.0, 6.0)]}
    assert oracle.missing_rows(wrong) == 2  # one missing, one never sent


def test_oracle_dashboard_aggregates():
    oracle = Oracle(["a", "b"])
    oracle.expect_rows([0, 1, 0, 1], [5.0, 65.0, 70.0, 130.0],
                       [1.0, 2.0, 3.0, 4.0])
    assert oracle.group_mean() == {"a": 2.0, "b": 3.0}
    assert oracle.group_mean(start=60.0, end=120.0) == {"a": 3.0, "b": 2.0}
    assert oracle.tumbling_mean(60.0, codes_in=(0,)) == {
        ("a", 0.0): 1.0, ("a", 60.0): 3.0}
    assert oracle.same_aggregate({"a": 1.0}, {"a": 1.0 + 1e-12})
    assert not oracle.same_aggregate({"a": 1.0}, {"a": 1.1})
    assert not oracle.same_aggregate({"a": 1.0}, {"a": 1.0, "b": 2.0})


# -- determinism, and the contract with BENCHMARK.json ----------------------------

def _smoke_pass(workload, seed, traced=False):
    import inputs
    import run
    import workloads
    from pipeline import World

    cfg = run.load_config(workload, smoke=True, seconds=None)
    cfg["cal_n"] = 50  # the ruler's length is irrelevant here
    data = inputs.generate(workload, seed, cfg)
    rec = spans.SpanRecorder() if traced else spans.NullRecorder()
    return cfg, rec, workloads.run_pass(data, cfg, World(data, cfg, rec))


def test_same_seed_same_oracle_digest_and_operation_counts():
    _cfg, _rec, first = _smoke_pass("ward-live", seed=7)
    _cfg, _rec, again = _smoke_pass("ward-live", seed=7)
    _cfg, _rec, other = _smoke_pass("ward-live", seed=8)
    assert first.oracle.digest() == again.oracle.digest()
    assert first.ops_attempted == again.ops_attempted > 0
    assert first.ops_failed == again.ops_failed == 0
    assert first.oracle.digest() != other.oracle.digest()


@pytest.mark.parametrize("workload", ["ward-backfill", "ward-live"])
def test_every_metric_of_benchmark_json_is_produced(workload):
    import metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg, _rec, untraced = _smoke_pass(workload, seed=3)
    _cfg, rec, traced = _smoke_pass(workload, seed=3, traced=True)
    assert untraced.ops_failed == traced.ops_failed == 0
    guard = cfg["percentile"]
    timed = metrics.end_to_end(untraced, guard)
    assert {m["name"] for m in spec["end_to_end"]} == {
        *timed, "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value in timed.values())
    layers = metrics.per_layer(untraced, traced, rec.spans, guard)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    # the driver refuses a time that reads the same on every run
    assert all(layers[m["name"]] > 0 for m in spec["per_layer"]
               if m["unit"] in ("us", "ms"))
    # the accounting closes: what no span claims stays under 5 %
    for scope in ("chunk", "tick", "frame"):
        assert layers[f"{scope}.residual_pct"] < 5.0
