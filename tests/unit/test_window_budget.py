"""A windowed job has a call budget.

``ward-backfill``'s job is a keyed tumbling ``mean`` over vitals behind
``with_watermarks``, a ``map`` to the window's value and the sink, run
supervised with the benchmark's ``source_batch`` (1 024) and checkpoint
interval (8 cycles).  This counts the Python function calls
(``sys.setprofile`` ``call`` events; C functions are not counted) of
that job over 20 000 float rows of 200 keys, ten windows each, read
from a columnar split as the log connector delivers them.

Batched, the kernel pays per group and per fired window, not per row:
each ``(key, window)`` group extends its accumulator in one step, one
firing leaves as one batch of columns, so the ``map`` behind it runs
its columnar kernel (one call of the user function a fired row) and
the sink stages the batch.  What is left a fired row is that function,
the aggregate's result, the ``WindowResult`` and the accumulator's
``init``.  A per-Element emit, a Python-level ``Window`` hash or a call
per group back on the path shows up here at once: the parent of this
kernel counted 56 234.  The counts are deterministic, so they must also
read the same under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

#: Python calls of the whole run, launch and checkpoints included
CALLS = 16_525
ROWS = 20_000
FIRED = 2_000

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.streaming import JobBuilder, TumblingWindows
from repro.streaming.batch import RecordBatch
from repro.streaming.supervisor import run_coordinated

ROWS = int(sys.argv[1])
batch = RecordBatch.from_columns(
    [i * 0.005 for i in range(ROWS)],
    [float(i % 37) * 0.5 for i in range(ROWS)],
    [f"bed-{i % 200}:hr" for i in range(ROWS)])
builder = JobBuilder("budget")
(builder.source("s", split_factory=lambda index, n: [batch])
        .with_watermarks(2.0)
        .window(TumblingWindows(10.0), "mean")
        .map(lambda result: result.value)
        .sink("out"))
job = builder.build()
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
report = run_coordinated(job, source_batch=1024, interval_cycles=8)
sys.setprofile(None)
print(len(report.sink_values["out"]), calls)
"""


def _calls(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE, str(ROWS)],
                         env=env, capture_output=True, text=True, check=True)
    fired, calls = map(int, out.stdout.split()[-2:])
    return fired, calls


def test_a_windowed_job_pays_per_group_and_fired_window():
    counts = {seed: _calls(seed) for seed in ("0", "1")}
    assert set(counts.values()) == {(FIRED, CALLS)}, counts
