"""A produced row has a call budget.

Every row of every workload enters the log through a plain (untraced,
non-idempotent) ``Producer.send``, so its per-row Python calls are the
log's floor.  This counts the Python function calls (``sys.setprofile``
``call`` events; C functions are not counted) of 1 000 plain sends of
float rows whose keys the producer has sent before, over eight
partitions, on a topic with one replica and on one with two.  A key
seen before is one memo read for its partition and its row size, so a
row costs ``send`` itself and one ``append_row`` per in-sync replica:
a partition hash, a modulo or a pricing call back on the path shows up
here at once (pricing each row with ``record_size`` read one more call
a row).  The counts are deterministic, so they must also read the same
under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

#: Python calls a row: ``send`` plus one ``append_row`` per replica
CALLS_PER_ROW = {1: 2, 2: 3}
ROWS = 1_000

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.eventlog import LogCluster, Producer, TopicConfig

ROWS = int(sys.argv[2])
cluster = LogCluster(num_brokers=3)
cluster.create_topic(TopicConfig("t", partitions=8,
                                 replication=int(sys.argv[1])))
producer = Producer(cluster)
send = producer.send
keys = [f"bed-{i % 97}:hr" for i in range(ROWS)]
for key in keys[:97]:
    send("t", 0.5, key, 0.0)
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
for i, key in enumerate(keys):
    send("t", i * 0.25, key, i * 0.01)
sys.setprofile(None)
assert producer.sent == 97 + ROWS
print(calls)
"""


def _calls(hash_seed, replication):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(replication), str(ROWS)],
        env=env, capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


@pytest.mark.parametrize("replication", sorted(CALLS_PER_ROW))
def test_a_row_of_a_key_seen_before_costs_send_and_its_appends(replication):
    counts = {seed: _calls(seed, replication) for seed in ("0", "1")}
    assert set(counts.values()) == {CALLS_PER_ROW[replication] * ROWS}, \
        counts
