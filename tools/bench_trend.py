"""Print the end-to-end medians' deltas between consecutive PRs.

    python tools/bench_trend.py

reads ``benchmarks/e2e_trend.jsonl`` — one hand-written line per PR
(``{"pr", "sha", "source", "medians": {workload: {metric: median}}}``,
taken from that PR's pairs in ``docs/PERFORMANCE.md``).
"""

import json
from pathlib import Path

TREND = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e_trend.jsonl"

if __name__ == "__main__":
    rows = [json.loads(line) for line in TREND.read_text().splitlines()
            if line.strip()]
    for prev, cur in zip(rows, rows[1:]):
        print(f"PR {prev['pr']} ({prev['sha']}) -> PR {cur['pr']} ({cur['sha']})")
        for workload, metrics in cur["medians"].items():
            for name, value in metrics.items():
                base = prev["medians"].get(workload, {}).get(name)
                if base:
                    print(f"  {workload:<17} {name:<24} {base:>10.4g} -> "
                          f"{value:>10.4g}  {100 * (value / base - 1):+6.1f} %")
