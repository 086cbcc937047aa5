"""``tools/check_perf.py``'s parallel scaling gate reads lane overlap
from per-lane item counts: the keyed-window workload clears its floor,
and a one-key stream at parallelism 4 fails it (tier-1; the gate's own
bench at a small size, one repeat)."""

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
