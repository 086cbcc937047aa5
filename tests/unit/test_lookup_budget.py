"""A frame's point lookup costs the same behind one sorted run or eight.

An overlay frame reads ``latest(key)`` for each anchor it draws, while
ingest keeps flushing memtables into sorted runs.  This counts the
Python function calls (``sys.setprofile`` ``call`` events; C functions
are not counted) of one ``TieredStore.latest(key)`` for a key that has
versions in the memtable and in every run of its shard.  A lookup that
scans each run shows up here as one more call per run; the newest-row
index answers without visiting a run, so the count must read the same
with 1 run and with 8.  It is deterministic, so it must also read the
same under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.store import TieredStore
from repro.streaming.element import Element

runs = int(sys.argv[1])
store = TieredStore(num_shards=1)
shard = store.hot.shards[0]
ts = 0.0


def epoch(i):
    global ts
    rows = []
    for key in ("k", "other", ("t", i % 3)):
        ts += 1.0
        rows.append(Element(value=f"{key}@{ts}", timestamp=ts, key=key))
    store.apply_epoch(i, rows)


for i in range(1, runs + 1):
    epoch(i)
    shard.flush()  # a run per epoch, none merged
epoch(runs + 1)  # and a memtable
assert shard.stats()["runs"] == runs
assert store.latest("k") == [(ts - 2.0, f"k@{ts - 2.0}")]
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
store.latest("k")
sys.setprofile(None)
print(calls)
"""


def _calls(hash_seed, runs):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE, str(runs)], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def test_a_point_lookup_costs_the_same_behind_one_run_or_eight():
    counts = {(seed, runs): _calls(seed, runs)
              for seed in ("0", "1") for runs in (1, 8)}
    assert len(set(counts.values())) == 1, counts
