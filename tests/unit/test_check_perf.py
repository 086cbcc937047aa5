"""``tools/check_perf.py``'s parallel scaling gate reads lane overlap
from per-lane item counts: the keyed-window workload clears its floor,
and a one-key stream at parallelism 4 fails it (tier-1; the gate's own
bench at a small size, one repeat).  Its log gate holds ``send`` and
``poll`` each to the same run's no-op loop: a poll that builds a record
per row fails, and a faster ``send`` alone does not move ``poll``'s
verdict."""

import importlib.util
from pathlib import Path

from repro.streaming import Element

ROOT = Path(__file__).resolve().parents[2]


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        "check_perf", ROOT / "tools" / "check_perf.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    import bench_p4_parallel
    return gate, bench_p4_parallel


def test_the_keyed_workload_clears_the_overlap_floor(monkeypatch):
    gate, bench = _load(monkeypatch)
    results = bench.run_experiment(bench._elements(4000), repeats=1)
    par = results["parallel"]
    assert sum(par["lane_items_p4"]) == sum(par["lane_items_p1"])
    assert par["lane_overlap_p1"] == 1.0
    assert gate.check_lane_overlap(results, "now")


def test_a_one_key_job_fails_the_overlap_floor(monkeypatch):
    gate, bench = _load(monkeypatch)
    elements = [Element(value=10.0, timestamp=i * 0.01, key=0)
                for i in range(2000)]
    results = bench.run_experiment(elements, repeats=1)
    par = results["parallel"]
    assert sorted(par["lane_items_p4"]) == [0, 0, 0, 8000]
    assert par["lane_overlap_p4"] == 1.0
    assert not gate.check_parallel_speedup(results)


#: the committed baseline's A2c row (µs per row)
LOG_ROW = {"noop_us_per_row": 0.390, "send_us_per_row": 1.982,
           "poll_us_per_row": 0.598}


def test_the_log_gate_reads_poll_against_the_no_op(monkeypatch):
    gate, _ = _load(monkeypatch)
    assert gate.check_log_path({"log": dict(LOG_ROW)}, "committed")
    # a consumer that builds a frozen record per polled row: ~2.8x send
    record_per_row = dict(LOG_ROW, poll_us_per_row=2.8 * 1.982)
    assert not gate.check_log_path({"log": record_per_row}, "now")
    # the slowest poll of six A2c runs, under sends from 4x faster to
    # 1.8x slower than committed: the verdict is poll's alone
    slow_poll = dict(LOG_ROW, poll_us_per_row=2.09 * 0.390)
    for send in (0.5, 1.982, 3.5):
        row = dict(slow_poll, send_us_per_row=send)
        assert gate.check_log_path({"log": row}, "now")
        assert not gate.check_log_path(
            {"log": dict(record_per_row, send_us_per_row=send)}, "now")
