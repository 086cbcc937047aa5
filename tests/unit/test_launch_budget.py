"""A tick job's fixed path has a call budget.

``ward-live`` runs one supervised micro-batch job per 200-row tick, so
what a job pays before and after its rows — build, validate, compile,
checkpoint zero, the final cut, the epoch apply — is most of a tick.
This counts the Python function calls (``sys.setprofile`` ``call``
events; C functions are not counted) of one supervised 20-row tick job
with a ``StoreSink`` attached, the second on one store, its batch built
before the profiled region.  The count must not grow: a graph library
back in validation or a second re-encode of the tick's canonical batch
shows up here at once.  It is deterministic, so it must also read the
same under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

#: what the fixed path measured when this budget was set (the
#: networkx-based validation and two re-encodes of the batch read 509)
CALL_BUDGET = 333

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.store import StoreSink, TieredStore
from repro.streaming import JobBuilder, run_coordinated
from repro.streaming.batch import RecordBatch
from repro.streaming.coordinator import CheckpointStore

store, checkpoints = TieredStore(), CheckpointStore()


def tick(i, batch):
    builder = JobBuilder(f"tick:{i}")
    builder.source("events", lambda: [batch]).sink("store")
    job = builder.build()
    sink = StoreSink(store, sink_name="store", consumer_name="live")
    return run_coordinated(job, None, parallelism=1, source_batch=1024,
                           interval_cycles=8, store=checkpoints,
                           on_coordinator=sink.attach)


def rows(i):
    return RecordBatch.from_columns(
        [float(20 * i + r) for r in range(20)], [float(r) for r in range(20)],
        [f"k{r % 7}" for r in range(20)])


tick(0, rows(0))  # imports and first-touch caches stay out of the count
batch = rows(1)
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
report = tick(1, batch)
sys.setprofile(None)
assert len(report.sink_values["store"]) == 20
print(calls)
"""


def _calls(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def test_a_tick_job_stays_within_its_call_budget_under_two_hash_seeds():
    counts = {seed: _calls(seed) for seed in ("0", "1")}
    assert counts["0"] == counts["1"], counts
    assert counts["0"] <= CALL_BUDGET, counts
