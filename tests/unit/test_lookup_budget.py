"""A frame's point lookup costs the same behind one epoch or eight.

An overlay frame reads ``latest(key)`` for each anchor it draws, while
ingest keeps appending epochs to the hot tier's log.  This counts the
Python function calls (``sys.setprofile`` ``call`` events; C functions
are not counted) of one ``TieredStore.latest(key)`` for a key that has
a version in every epoch applied.  A lookup that visits each epoch, or
each version, shows up here as one more call per epoch; the newest-
version index answers without reading the log, so the count must read
the same after 1 epoch and after 8.  It is deterministic, so it must
also read the same under two hash seeds.
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

epochs = int(sys.argv[1])
store = TieredStore()
ts = 0.0


def epoch(i):
    global ts
    rows = []
    for key in ("k", "other", ("t", i % 3)):
        ts += 1.0
        rows.append(Element(value=f"{key}@{ts}", timestamp=ts, key=key))
    store.install_epoch(store.stage_epoch(i, rows))


for i in range(1, epochs + 1):
    epoch(i)
assert store.hot.rows == 3 * epochs
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


def _calls(hash_seed, epochs):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE, str(epochs)], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def test_a_point_lookup_costs_the_same_behind_one_epoch_or_eight():
    counts = {(seed, epochs): _calls(seed, epochs)
              for seed in ("0", "1") for epochs in (1, 8)}
    assert len(set(counts.values())) == 1, counts
