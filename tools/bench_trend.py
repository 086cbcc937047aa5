"""Print the end-to-end medians' deltas between consecutive PRs.

    python tools/bench_trend.py

reads ``benchmarks/e2e_trend.jsonl`` — one hand-written line per PR
(``{"pr", "sha", "source", "medians": {workload: {metric: median}}}``,
taken from that PR's pairs in ``docs/PERFORMANCE.md``).  A line's
``sha`` is its parent's plus ``+``, because a commit cannot name itself;
where git history has the child, the child is printed instead.
"""

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREND = ROOT / "benchmarks" / "e2e_trend.jsonl"


def resolve(sha: str) -> str:
    """``"<parent>+"`` -> the parent's child on the way to HEAD, when
    this checkout has it; anything else (or no git) as written."""
    if not sha.endswith("+"):
        return sha
    try:
        children = subprocess.run(
            ["git", "log", "--ancestry-path", "--reverse", "--format=%h",
             f"{sha[:-1]}..HEAD"],
            cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return sha
    return children[0] if children else sha


if __name__ == "__main__":
    rows = [json.loads(line) for line in TREND.read_text().splitlines()
            if line.strip()]
    for prev, cur in zip(rows, rows[1:]):
        print(f"PR {prev['pr']} ({resolve(prev['sha'])}) -> "
              f"PR {cur['pr']} ({resolve(cur['sha'])})")
        for workload, metrics in cur["medians"].items():
            for name, value in metrics.items():
                base = prev["medians"].get(workload, {}).get(name)
                if base:
                    print(f"  {workload:<17} {name:<24} {base:>10.4g} -> "
                          f"{value:>10.4g}  {100 * (value / base - 1):+6.1f} %")
