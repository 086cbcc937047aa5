"""A dashboard query costs the same Python lines at 20 cells or 5 000.

Every dashboard panel is one ``AnalyticalStore.tumbling`` or
``group_by`` call, and its rows, windows and answer cells are numpy
columns end to end.  This counts the Python line events
(``sys.settrace``; C functions and numpy kernels run no Python lines)
of one query.  An answer built by a comprehension over its cells shows
up here as a line per cell; built in C, the count must read the same at
20 cells and at 5 000:

- ``tumbling`` over the same 20-key set at 1 window and at 250, in the
  dense ``code * n_windows + window`` branch, and at 20 windows and at
  250 in the ``np.unique`` branch, whose window indices span too many
  windows for an exact int64 composite;
- ``group_by`` with no key set over stores of 20 and 5 000 keys.

It is deterministic, so it must also read the same under two hash
seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.store import AnalyticalStore
from repro.streaming.element import Element

query, size = sys.argv[1], int(sys.argv[2])
store = AnalyticalStore()
keys = [f"k{i:04d}" for i in range(20)]
if query == "group_by":
    rows = [Element(float(i), float(i), f"k{i:04d}") for i in range(size)]
elif query == "dense":
    # 20 keys x size windows of 60 s, one row per cell
    rows = [Element(1.0, w * 60.0 + 1.0, k)
            for w in range(size) for k in keys]
else:
    # windows 2**45 apart at size 1, 2**41 apart at 250: more than
    # 2**53 / 20 windows between the first and the last
    step = 2.0 ** 45 if size == 1 else 2.0 ** 41
    rows = [Element(1.0, (w if size > 1 else i) * step, k)
            for w in range(size) for i, k in enumerate(keys)]
store.append_epoch(1, rows)
if query == "group_by":
    run = lambda: store.group_by("mean")
elif query == "dense":
    run = lambda: store.tumbling(60.0, "mean", keys=keys)
else:
    run = lambda: store.tumbling(1.0, "mean", keys=keys)
cells = len(run())
lines = 0


def count(frame, event, arg):
    global lines
    if event == "line":
        lines += 1
    return count


sys.settrace(count)
run()
sys.settrace(None)
print(cells, lines)
"""


def _lines(hash_seed, query, size):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE, query, str(size)],
                         env=env, capture_output=True, text=True, check=True)
    cells, lines = map(int, out.stdout.split()[-2:])
    return cells, lines


@pytest.mark.parametrize("query, sizes", [
    ("dense", (1, 250)), ("unique", (1, 250)), ("group_by", (20, 5000))])
def test_a_query_runs_the_same_lines_at_20_cells_or_5000(query, sizes):
    got = {(seed, size): _lines(seed, query, size)
           for seed in ("0", "1") for size in sizes}
    assert sorted({cells for cells, _ in got.values()}) == [20, 5000], got
    assert len({lines for _, lines in got.values()}) == 1, got
