"""Applying an epoch to the serving store costs what the epoch holds,
not what the store holds.

Every committed epoch, a 20-row ``ward-live`` tick as much as a chunk,
is staged and installed into both tiers.  This counts the Python
function calls (``sys.setprofile`` ``call`` events; C functions are not
counted) of staging and installing one 20-row epoch, handed over as the
batch a transactional sink seals, once into a store holding only the
epoch's ten keys (32 rows) and once into a store holding 100 000 rows
over 20 000 keys, among them every key of the epoch.  The epoch's keys
are stored beforehand in both, so the hot tier's key memo answers
alike, and neither store's columns grow during the counted epoch (a
column doubles when full, a cost spread over the rows that filled
it).  A merge with a key's resident versions, a flush or a compaction
pass shows up here as calls that only the full store pays; finding each
key's newest row and comparing it with the resident one does not, so
the two counts must be equal.  They are deterministic, so they must
also read the same under two hash seeds.

The epoch's values come as a float64 column, as a source-encoded batch
carries them, or as a list of Python ``int``s, as an operator's output
may.  Both cost the same pinned count: the default metric converts a
column of Python numbers in one pass, not with one Python call a row
(``int`` values read 40 calls while it did).
"""

import os
import subprocess
import sys
from pathlib import Path

#: what staging and installing the 20-row epoch measured when pinned
CALL_BUDGET = 20

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import math
import sys
import numpy as np
from repro.store import TieredStore
from repro.streaming.batch import RecordBatch

KEYS = 20_000


def batch(keys, codes, stamps, values):
    return RecordBatch(np.asarray(stamps, np.float64), values,
                       key_codes=np.asarray(codes, np.int64), key_dict=keys)


store = TieredStore()
# ten keys, two rows each: some newer than the resident version, some
# older, one NaN
keys = [f"k{j * 997 % KEYS}" for j in range(10)]
epoch = 1
if sys.argv[1] == "full":
    for base in range(0, 100_000, 2_000):
        store.install_epoch(store.stage_epoch(epoch, batch(
            [f"k{(base + j) % KEYS}" for j in range(2_000)],
            range(2_000), [float(base + j) for j in range(2_000)],
            list(range(2_000)))))
        epoch += 1
    assert store.hot.rows == 100_000
    assert len(store.hot.table) == KEYS
else:
    # 30 rows, then 1 twice: the columns double to 60 rows, room for 20
    # more, and the per-epoch zone map to 4 epochs, room for one more
    for n in (30, 1, 1):
        store.install_epoch(store.stage_epoch(epoch, batch(
            keys, [j % 10 for j in range(n)], [50_000.0] * n,
            list(range(n)))))
        epoch += 1
codes = [j % 10 for j in range(20)]
stamps = [50_000.0 if j % 3 else 200_000.0 + j for j in range(20)]
stamps[7] = math.nan
values = list(range(20))
if sys.argv[2] == "float":
    values = np.asarray(values, np.float64)
rows = batch(keys, codes, stamps, values)
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
applied = store.install_epoch(store.stage_epoch(epoch, rows))
sys.setprofile(None)
assert applied == 20
print(calls)
"""


def _calls(hash_seed, size, values):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE, size, values],
                         env=env, capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def test_an_epoch_costs_the_same_calls_on_an_empty_store_and_a_full_one():
    counts = {(seed, size, values): _calls(seed, size, values)
              for seed in ("0", "1") for size in ("empty", "full")
              for values in ("float", "int")}
    assert set(counts.values()) == {CALL_BUDGET}, counts
