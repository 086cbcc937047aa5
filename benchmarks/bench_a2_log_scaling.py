"""Ablation A2: event-log partitioning and consumer-group scaling.

The "velocity" leg of the 3Vs needs horizontal scaling: more partitions
let more consumers drain a topic in parallel.  We measure drain work per
member as the group grows, replication write amplification, and failover
data safety — the substrate guarantees every experiment above relies on.

Run as a script it times the log's per-row path on its own — one
``Producer.send`` against the same loop calling a no-op, and a
``Consumer.poll`` / ``poll_columns`` drain of what was sent — and merges
the row into ``BENCH_streaming.json`` under ``"log"``.
``tools/check_perf.py`` gates the two same-run ratios (``send`` and
``poll``, each over the no-op); the microseconds themselves are this
box's and are not gated.
"""

import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.eventlog import (
    Consumer,
    ConsumerGroup,
    LogCluster,
    Producer,
    TopicConfig,
)
from repro.util.rng import make_rng

import benchlib
from tableprint import print_table

RECORDS = 20_000
PARTITIONS = 8
GROUP_SIZES = [1, 2, 4, 8]
LOG_PATH_ROWS = 200_000
LOG_PATH_REPEATS = 3


def _loaded_cluster(replication=2):
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig("events", partitions=PARTITIONS,
                                     replication=replication))
    producer = Producer(cluster)
    rng = make_rng(72)
    for i in range(RECORDS):
        producer.send("events", {"i": i, "v": float(rng.random())},
                      key=f"k{i % 997}")
    return cluster


def run_experiment():
    rows = []
    cluster = _loaded_cluster()
    for size in GROUP_SIZES:
        group = ConsumerGroup(cluster, "events", f"g{size}")
        for m in range(size):
            group.join(f"m{m}")
        start = time.perf_counter()
        consumed_per_member = []
        for m in range(size):
            consumer = group.member(f"m{m}")
            count = 0
            while True:
                batch = consumer.poll(max_records=2048)
                if not batch:
                    break
                count += len(batch)
            consumed_per_member.append(count)
        elapsed = time.perf_counter() - start
        total = sum(consumed_per_member)
        rows.append([size, total, max(consumed_per_member),
                     min(consumed_per_member),
                     total / elapsed / 1e6])
    return rows


def run_failover():
    cluster = _loaded_cluster(replication=2)
    end_before = sum(cluster.end_offset("events", p)
                     for p in range(PARTITIONS))
    cluster.fail_broker(0)
    end_after = sum(cluster.end_offset("events", p)
                    for p in range(PARTITIONS))
    return end_before, end_after


def _timed(loop, rows):
    """µs per row of one ``loop()``.  Survivors are frozen first, as the
    end-to-end benchmark does before each unit: a full collection
    walking earlier repeats' logs is not the path's cost."""
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        loop()
        return (time.perf_counter() - started) / rows * 1e6
    finally:
        gc.unfreeze()


def run_log_path(rows=LOG_PATH_ROWS, repeats=LOG_PATH_REPEATS):
    """The per-row log path on its own: keyed float rows through a plain
    (untraced, non-idempotent) producer, then drained by ``poll`` and by
    ``poll_columns``.  Medians over ``repeats`` fresh clusters."""

    def noop(topic, value, key=None, timestamp=None):
        pass

    def caller(call):
        def loop():
            for i in range(rows):
                call("rows", i * 0.25, key=f"bed-{i % 997}:hr",
                     timestamp=i * 0.01)
        return loop

    def drain(fetch):
        def loop():
            while fetch(4096):
                pass
        return loop

    samples = {"noop": [], "send": [], "poll": [], "poll_columns": []}
    for _ in range(repeats):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig("rows", partitions=PARTITIONS))
        producer = Producer(cluster)
        samples["noop"].append(_timed(caller(noop), rows))
        samples["send"].append(_timed(caller(producer.send), rows))
        assert producer.sent == rows
        for name in ("poll", "poll_columns"):
            consumer = Consumer(cluster, "rows")
            samples[name].append(
                _timed(drain(getattr(consumer, name)), rows))
            assert consumer.consumed == rows
    log = {f"{name}_us_per_row": statistics.median(values)
           for name, values in samples.items()}
    log["send_over_noop"] = log["send_us_per_row"] / log["noop_us_per_row"]
    log["poll_over_noop"] = log["poll_us_per_row"] / log["noop_us_per_row"]
    return {"config": {"rows": rows, "repeats": repeats,
                       "partitions": PARTITIONS},
            "log": log}


def report_log_path(results):
    log = results["log"]
    print_table(
        f"A2c  the log's per-row path ({results['config']['rows']} keyed "
        "float rows, plain producer)",
        ["call", "us/row", "ratio"],
        [["no-op, same loop and arguments", log["noop_us_per_row"], ""],
         ["Producer.send", log["send_us_per_row"],
          f"{log['send_over_noop']:.1f}x no-op"],
         ["Consumer.poll", log["poll_us_per_row"],
          f"{log['poll_over_noop']:.1f}x no-op"],
         ["Consumer.poll_columns", log["poll_columns_us_per_row"], ""]],
        note="gates (tools/check_perf.py): send <= 10x no-op, "
             "poll <= 3x no-op")


def bench_a2_log_path(benchmark):
    """pytest-benchmark entry: fewer rows, same shape."""
    results = benchmark.pedantic(lambda: run_log_path(20_000, repeats=1),
                                 rounds=1, iterations=1)
    report_log_path(results)
    assert results["log"]["poll_columns_us_per_row"] \
        < results["log"]["poll_us_per_row"]


def bench_a2_group_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "A2a ablation: consumer-group scaling over 8 partitions",
        ["members", "records drained", "max/member", "min/member",
         "Mrec/s"],
        rows,
        note="work per member shrinks ~1/n up to the partition count")
    for row in rows:
        assert row[1] == RECORDS  # nothing lost, nothing duplicated
    max_per_member = [r[2] for r in rows]
    # Per-member load drops as the group grows (range assignment).
    assert max_per_member[-1] < max_per_member[0] / (len(GROUP_SIZES) - 1)


def bench_a2_failover_safety(benchmark):
    before, after = benchmark.pedantic(run_failover, rounds=1,
                                       iterations=1)
    print_table(
        "A2b ablation: broker failover data safety (acks=all, rf=2)",
        ["records before failure", "records after failover"],
        [[before, after]],
        note="synchronous ISR replication: leader loss costs zero "
             "acknowledged records")
    assert before == RECORDS
    assert after == before


def bench_a2_produce_throughput(benchmark):
    """Micro-benchmark: keyed produce path."""
    cluster = LogCluster(3)
    cluster.create_topic(TopicConfig("t", partitions=8, replication=2))
    producer = Producer(cluster)
    counter = iter(range(10**9))

    def produce_batch():
        for _ in range(1000):
            i = next(counter)
            producer.send("t", {"i": i}, key=f"k{i % 97}")

    benchmark(produce_batch)


def main() -> None:
    args = benchlib.bench_parser(
        __doc__, events_default=LOG_PATH_ROWS).parse_args()
    results = run_log_path(args.events)
    report_log_path(results)
    benchlib.merge_section(args.out, "log", results)


if __name__ == "__main__":
    main()
