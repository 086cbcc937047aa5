"""P8: tiered serving store — point-lookup latency under columnar ingest.

The paper's serving split (Sec 4.1): AR overlays need millisecond
"latest state for this key" reads while dashboards keep appending
committed history.  This bench builds the log-structured hot tier to
**>= 1M distinct keys** (memtable + size-tiered sorted runs, exactly the
state a long-running deployment accumulates), then measures point
lookups *interleaved with sustained columnar ingest* into the
analytical tier — every lookup timed individually so the tail is real,
not an average hiding compaction stalls.

That store is compacted and its keys are uniform: one version per
key, nothing in the memtable.  A second, small store takes the other
shape a deployment has — **Zipf keys, lookups landing on keys whose
memtable list holds hundreds of versions** — because a lookup whose
cost grows with a key's version count is invisible on the first.

A third store holds every key's versions spread over the memtable
and six sorted runs — **read amplification**: the lookups land on keys
whose newest version may sit in any of them, the shape a key written
steadily between flushes has.  Reported only, beside the uniform-key
row; no gate reads it.

A fourth store is a dashboard's: **the ward-backfill panel shape**, a
tumbling mean over one ward's 200 keys of a 50 000-row, ~1 000-key
analytical tier, and a ``group_by`` mean over a ~20 000-row time range
of it, each query timed individually.  Reported only; no gate reads it.

The write side gets one row as well, **epoch apply**: what applying an
epoch costs per row for one 20 000-row Zipf epoch and for 1 000 epochs
of 20 rows, each handed over once as the batch the transactional sink
sealed (``StoreSink.on_checkpoint_committed``) and once as a plain
Element list (``StoreSink.stage`` / ``apply``; the store encodes it at
its boundary).  The columnar hand-off exists to make the first cheaper
than the second.

Reported: per-phase build throughput, hot-tier structure (runs,
compactions), what the hot tier holds per stored row (see
:func:`_hot_bytes_per_row`), lookup p50/p99/max, concurrent analytical
ingest rate, the read-amplification lookup p50/p99 with the run count
behind them, the hot-key lookup p50/p99 with the version count behind
them, the dashboard query p50s with the rows and cells behind them, and
the epoch-apply cost per row for both hand-offs at both epoch sizes.
The committed gate (``tools/check_store.py``) holds the uniform-key p99
under ``P99_FLOOR_US`` — ~10x the measured value on the reference
container, so a structural regression (e.g. lookups degrading to
full-run scans) trips it and box noise does not — and the hot-key p50
under ``HOT_KEY_RATIO_CEILING`` times the uniform-key p50 of the same
run, and the batch hand-off of an epoch at or under the list hand-off
of the same epoch, at both sizes (a ratio within one run, no absolute
floor).

Results merge into ``BENCH_streaming.json`` under the ``"store"`` key.
"""

import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.store import HotShard, HotStore, StoreSink, TieredStore, key_repr
from repro.streaming.batch import RecordBatch
from repro.streaming.element import Element
from repro.streaming.txn_sink import TransactionalSink

import benchlib
from tableprint import print_table

SEED = 8
N_KEYS = 1_000_000
BUILD_EPOCH_ROWS = 100_000
INGEST_BATCHES = 25
INGEST_ROWS = 8_000
LOOKUPS_PER_BATCH = 400
NUM_SHARDS = 16
MEMTABLE_LIMIT = 10_000

#: gate floor for the lookup tail, microseconds (see module docstring)
P99_FLOOR_US = 400.0

HOT_KEYS = 2_000
HOT_ZIPF_A = 1.3
HOT_MEMTABLE_LIMIT = 16_384
#: 17 epochs fill a memtable: three flushed runs, then 15 000 resident rows
HOT_EPOCHS = 66
HOT_EPOCH_ROWS = 1_000
HOT_LOOKUPS = 10_000
#: gate ceiling: hot-key lookup p50 over uniform-key lookup p50, same
#: run.  A tail read sits under 1x; sorting every memtable version of
#: the key per lookup sat near 10x.
HOT_KEY_RATIO_CEILING = 3.0

AMP_KEYS = 2_000
#: epochs writing every key once, each flushed: 15 leave three merged
#: runs of four epochs and three runs of one
AMP_EPOCHS = 15
AMP_LOOKUPS = 10_000

DASH_ROWS = 50_000
DASH_KEYS = 1_000
#: one ward: 40 patients x 5 vitals
DASH_PANEL_KEYS = 200
#: the store's rows sit on 10 s window ends over this many seconds
DASH_SECONDS = 1_040
DASH_WINDOW_S = 60.0
DASH_GROUP_ROWS = 20_000
DASH_QUERIES = 200

APPLY_KEYS = 20_000
#: (label, epochs, rows per epoch): one chunk-sized epoch, many tick-sized
APPLY_SHAPES = (("big", 1, 20_000), ("small", 1_000, 20))
APPLY_REPEATS = 3


def _build_hot(store: TieredStore, rng) -> dict:
    """Populate the hot tier to N_KEYS distinct keys through committed
    epochs, flushing and compacting as a live deployment would."""
    started = time.perf_counter()
    epoch = 0
    hot = store.hot
    for base in range(0, N_KEYS, BUILD_EPOCH_ROWS):
        epoch += 1
        per_shard = {}
        for i in range(base, base + BUILD_EPOCH_ROWS):
            key = f"k-{i:07d}"
            row = (key_repr(key), float(i % 10_000),
                   float(rng.uniform(0, 1)))
            sid = hot.shard_for(key).shard_id
            per_shard.setdefault(sid, []).append(row)
        for sid, rows in per_shard.items():
            hot.shards[sid].apply_epoch(epoch, rows)
        hot.maintain()
    elapsed = time.perf_counter() - started
    return {"build_s": round(elapsed, 2),
            "build_rows_per_s": round(N_KEYS / elapsed),
            "epochs": epoch}


def _hot_bytes_per_row() -> float:
    """Bytes ``tracemalloc`` traces per stored row of one shard of the
    1M-key store: keys, values, memtable, runs and indexes.

    The shard is built alone, from its share of the same keys in its
    share of each build epoch (tracing the whole build took ten times
    its untraced time on a 2-core box), flushed and compacted as the
    build does it.  It draws its values from its own generator, so the other rows'
    draws hold.
    """
    rng = np.random.default_rng(SEED)
    keys = N_KEYS // NUM_SHARDS
    epoch_rows = BUILD_EPOCH_ROWS // NUM_SHARDS
    tracemalloc.start()
    try:
        shard = HotShard(0, memtable_limit=MEMTABLE_LIMIT)
        for epoch, base in enumerate(range(0, keys, epoch_rows), 1):
            shard.apply_epoch(epoch, [
                (key_repr(f"k-{i:07d}"), float(i % 10_000),
                 float(rng.uniform(0, 1)))
                for i in range(base, min(base + epoch_rows, keys))])
            shard.maintain()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round(held / shard.rows, 1)


def _measure(store: TieredStore, rng) -> dict:
    """Interleave columnar epoch appends with individually timed point
    lookups against the >= 1M-key hot tier."""
    latencies = []
    epoch = 1_000
    ingest_rows = 0
    ingest_s = 0.0
    targets = rng.integers(0, N_KEYS, size=INGEST_BATCHES * LOOKUPS_PER_BATCH)
    t = 0
    for _ in range(INGEST_BATCHES):
        epoch += 1
        # an epoch arrives as the batch the transactional sink sealed
        batch = RecordBatch.from_elements(
            [Element(value=float(rng.uniform(0, 1)), timestamp=float(i),
                     key=f"k-{int(rng.integers(N_KEYS)):07d}")
             for i in range(INGEST_ROWS)])
        started = time.perf_counter()
        store.analytical.append_epoch(epoch, batch)
        # keep the consolidation cost honest: dashboards read back
        store.analytical.count(start=0.0)
        ingest_s += time.perf_counter() - started
        ingest_rows += INGEST_ROWS
        for _ in range(LOOKUPS_PER_BATCH):
            key = f"k-{targets[t]:07d}"
            t += 1
            t0 = time.perf_counter_ns()
            value = store.point(key)
            latencies.append(time.perf_counter_ns() - t0)
            assert value is not None
    lat_us = np.asarray(latencies, dtype=np.float64) / 1_000.0
    return {
        "lookups": len(latencies),
        "lookup_p50_us": round(float(np.percentile(lat_us, 50)), 1),
        "lookup_p99_us": round(float(np.percentile(lat_us, 99)), 1),
        "lookup_max_us": round(float(lat_us.max()), 1),
        "ingest_rows": ingest_rows,
        "ingest_rows_per_s": round(ingest_rows / ingest_s),
    }


def _zipf_keys(rng, n: int) -> list[str]:
    ranks = np.minimum(rng.zipf(HOT_ZIPF_A, size=n), HOT_KEYS)
    return [f"hot-{rank:04d}" for rank in ranks.tolist()]


def _measure_hot_keys(rng) -> dict:
    """Zipf writes into one hot shard, then individually timed Zipf
    lookups: most land on a key with hundreds of memtable versions
    above a few flushed runs."""
    hot = HotStore(num_shards=1, memtable_limit=HOT_MEMTABLE_LIMIT)
    shard = hot.shards[0]
    #: key -> versions applied since the shard last flushed
    resident = Counter()
    ts = 0.0
    for epoch in range(1, HOT_EPOCHS + 1):
        rows = []
        for key in _zipf_keys(rng, HOT_EPOCH_ROWS):
            ts += 1.0
            rows.append((key_repr(key), ts, float(rng.uniform(0, 1))))
        shard.apply_epoch(epoch, rows)
        resident.update(kr for kr, _ts, _value in rows)
        hot.maintain()
        if not shard.stats()["memtable_rows"]:
            resident.clear()
    written = set(hot.contents())
    latencies, versions = [], []
    for key in _zipf_keys(rng, HOT_LOOKUPS):
        if key_repr(key) not in written:
            continue  # a tail rank the writes never drew
        t0 = time.perf_counter_ns()
        value = hot.point(key)
        latencies.append(time.perf_counter_ns() - t0)
        assert value is not None
        versions.append(resident[key_repr(key)])
    lat_us = np.asarray(latencies, dtype=np.float64) / 1_000.0
    stats = shard.stats()
    return {
        "hot_key_lookups": len(latencies),
        "hot_key_lookup_p50_us": round(float(np.percentile(lat_us, 50)), 1),
        "hot_key_lookup_p99_us": round(float(np.percentile(lat_us, 99)), 1),
        "hot_key_memtable_versions_p50": int(np.percentile(versions, 50)),
        "hot_key_memtable_rows": stats["memtable_rows"],
        "hot_key_runs": stats["runs"],
    }


def _measure_read_amp(rng) -> dict:
    """Every key written once per epoch, each epoch flushed into a run
    (compaction merging them as it would), then one more epoch over
    half the keys left in the memtable; individually timed lookups of
    those keys, whose versions span the memtable and every run."""
    hot = HotStore(num_shards=1, memtable_limit=AMP_KEYS)
    shard = hot.shards[0]
    keys = [f"amp-{i:04d}" for i in range(AMP_KEYS)]
    ts = 0.0
    for epoch in range(1, AMP_EPOCHS + 2):
        written = keys if epoch <= AMP_EPOCHS else keys[::2]
        rows = []
        for i in rng.permutation(len(written)).tolist():
            ts += 1.0
            rows.append((key_repr(written[i]), ts,
                         float(rng.uniform(0, 1))))
        shard.apply_epoch(epoch, rows)
        hot.maintain()
    stats = shard.stats()
    assert stats["memtable_rows"] == len(keys[::2])
    latencies = []
    for i in rng.integers(0, len(keys) // 2, size=AMP_LOOKUPS).tolist():
        key = keys[2 * i]
        t0 = time.perf_counter_ns()
        value = hot.point(key)
        latencies.append(time.perf_counter_ns() - t0)
        assert value is not None
    lat_us = np.asarray(latencies, dtype=np.float64) / 1_000.0
    return {
        "amp_lookups": len(latencies),
        "amp_lookup_p50_us": round(float(np.percentile(lat_us, 50)), 1),
        "amp_lookup_p99_us": round(float(np.percentile(lat_us, 99)), 1),
        "amp_runs": stats["runs"],
    }


def _measure_dashboard(rng) -> dict:
    """A backfilled analytical tier (rows on 10 s window ends, appended
    in ts order, one epoch per 10 s), then individually timed dashboard
    queries: a tumbling mean over one ward's keys across the whole
    history, and a group_by mean over a time range of ~20 000 rows."""
    store = TieredStore()
    keys = [f"w-{i:04d}" for i in range(DASH_KEYS)]
    ts = np.sort(rng.integers(1, DASH_SECONDS // 10 + 1, DASH_ROWS)) * 10.0
    codes = rng.integers(0, DASH_KEYS, DASH_ROWS).tolist()
    values = rng.normal(75.0, 12.0, DASH_ROWS).tolist()
    epochs = np.flatnonzero(np.diff(ts, prepend=-1.0)).tolist() + [DASH_ROWS]
    for epoch, (lo, hi) in enumerate(zip(epochs, epochs[1:]), start=1):
        store.analytical.append_epoch(epoch, [
            Element(values[i], float(ts[i]), keys[codes[i]])
            for i in range(lo, hi)])
    panel = keys[:DASH_PANEL_KEYS]
    start = float(ts[DASH_ROWS - DASH_GROUP_ROWS])
    queries = {
        "tumbling": lambda: store.analytical.tumbling(
            DASH_WINDOW_S, "mean", keys=panel),
        "group_by": lambda: store.analytical.group_by("mean", start=start)}
    out = {"dash_rows": DASH_ROWS, "dash_keys": DASH_KEYS}
    for name, query in queries.items():
        latencies = []
        for _ in range(DASH_QUERIES):
            t0 = time.perf_counter_ns()
            cells = query()
            latencies.append(time.perf_counter_ns() - t0)
        out[f"dash_{name}_cells"] = len(cells)
        out[f"dash_{name}_us_p50"] = round(
            float(np.percentile(latencies, 50)) / 1_000.0, 1)
    out["dash_tumbling_rows"] = store.analytical.count(keys=panel)
    out["dash_group_by_rows"] = store.analytical.count(start=start)
    return out


def _apply_epochs(epochs: list[list[Element]], as_batch: bool) -> float:
    """Seconds spent applying ``epochs``, committed one by one into a
    fresh store.  ``as_batch``: the commit listener is handed the
    transactional sink that sealed each epoch; otherwise each epoch's
    Element list is staged and applied as it is."""
    feeder = ("bench", 0)
    txn = TransactionalSink("out", (feeder,))
    sink = StoreSink(TieredStore())
    spent = 0
    for cid, elements in enumerate(epochs, start=1):
        if as_batch:
            txn.deliver(RecordBatch.from_elements(elements), feeder)
            txn.on_barrier(feeder, cid)
            txn.commit(cid)
        t0 = time.perf_counter_ns()
        applied = (sink.on_checkpoint_committed(cid, txn) if as_batch
                   else sink.apply(cid, sink.stage(cid, elements)))
        spent += time.perf_counter_ns() - t0
        assert applied == len(elements)
    return spent / 1e9


def _measure_epoch_apply(rng) -> dict:
    """Per-row cost of the epoch apply for both hand-offs, best of
    ``APPLY_REPEATS`` each, alternating so drift hits both alike."""
    out = {}
    for label, n_epochs, n_rows in APPLY_SHAPES:
        ts = 0.0
        epochs = []
        for _ in range(n_epochs):
            ranks = np.minimum(rng.zipf(HOT_ZIPF_A, size=n_rows),
                               APPLY_KEYS).tolist()
            values = rng.uniform(0, 1, size=n_rows).tolist()
            rows = []
            for rank, value in zip(ranks, values):
                ts += 1.0
                rows.append(Element(value, ts, f"s-{rank:05d}"))
            epochs.append(rows)
        best = {True: float("inf"), False: float("inf")}
        for _ in range(APPLY_REPEATS):
            for as_batch in (True, False):
                best[as_batch] = min(best[as_batch],
                                     _apply_epochs(epochs, as_batch))
        total = n_epochs * n_rows
        batch_us = best[True] / total * 1e6
        list_us = best[False] / total * 1e6
        out[f"apply_{label}_batch_us_per_row"] = round(batch_us, 3)
        out[f"apply_{label}_list_us_per_row"] = round(list_us, 3)
        out[f"apply_{label}_batch_over_list"] = round(batch_us / list_us, 3)
    return out


def run_experiment() -> dict:
    rng = np.random.default_rng(SEED)
    store = TieredStore(num_shards=NUM_SHARDS,
                        memtable_limit=MEMTABLE_LIMIT,
                        metric_fn=lambda v: float(v))
    build = _build_hot(store, rng)
    build["hot_bytes_per_row"] = _hot_bytes_per_row()
    assert store.hot.rows >= N_KEYS
    measure = _measure(store, rng)
    hot_keys = _measure_hot_keys(rng)
    hot_keys["hot_key_p50_ratio"] = round(
        hot_keys["hot_key_lookup_p50_us"] / measure["lookup_p50_us"], 2)
    epoch_apply = _measure_epoch_apply(rng)
    read_amp = _measure_read_amp(rng)
    dashboard = _measure_dashboard(rng)  # last: the other rows' draws hold
    hot_stats = store.hot.stats()
    results = {
        "config": {"keys": N_KEYS, "num_shards": NUM_SHARDS,
                   "memtable_limit": MEMTABLE_LIMIT,
                   "ingest_batches": INGEST_BATCHES,
                   "ingest_rows_per_batch": INGEST_ROWS,
                   "p99_floor_us": P99_FLOOR_US,
                   "hot_keys": HOT_KEYS, "hot_zipf_a": HOT_ZIPF_A,
                   "hot_memtable_limit": HOT_MEMTABLE_LIMIT,
                   "amp_keys": AMP_KEYS, "amp_epochs": AMP_EPOCHS,
                   "hot_key_ratio_ceiling": HOT_KEY_RATIO_CEILING,
                   "apply_keys": APPLY_KEYS,
                   "apply_shapes": [list(shape) for shape in APPLY_SHAPES],
                   "apply_repeats": APPLY_REPEATS,
                   "dash_window_s": DASH_WINDOW_S,
                   "dash_panel_keys": DASH_PANEL_KEYS,
                   "dash_queries": DASH_QUERIES},
        "store": {**build, **measure, **read_amp, **hot_keys,
                  **epoch_apply, **dashboard,
                  "hot_rows": store.hot.rows,
                  "runs": int(sum(s["runs"]
                                  for s in hot_stats["shards"])),
                  "compactions": int(sum(s["compactions"]
                                         for s in hot_stats["shards"])),
                  "analytical_rows": store.analytical.rows},
    }
    return results


def report(results: dict) -> None:
    s = results["store"]
    print_table(
        f"P8  tiered serving store ({results['config']['keys']:,} keys, "
        f"{s['ingest_rows']:,} rows concurrent columnar ingest)",
        ["metric", "value"],
        [["hot build rows/s", f"{s['build_rows_per_s']:,}"],
         ["sorted runs (all shards)", str(s["runs"])],
         ["compactions", str(s["compactions"])],
         ["hot tier traced bytes per stored row",
          f"{s['hot_bytes_per_row']} B"],
         ["point lookup p50", f"{s['lookup_p50_us']} us"],
         ["point lookup p99", f"{s['lookup_p99_us']} us"],
         ["point lookup max", f"{s['lookup_max_us']} us"],
         ["point lookup p50 / p99, key in the memtable and "
          f"{s['amp_runs']} runs",
          f"{s['amp_lookup_p50_us']} / {s['amp_lookup_p99_us']} us"],
         ["hot-key lookup p50 (Zipf, "
          f"{s['hot_key_memtable_versions_p50']} memtable versions "
          "behind the median lookup)", f"{s['hot_key_lookup_p50_us']} us"],
         ["hot-key lookup p99", f"{s['hot_key_lookup_p99_us']} us"],
         ["hot-key p50 / uniform-key p50", f"{s['hot_key_p50_ratio']}x"],
         *([f"epoch apply, {epochs:,} x {rows:,} rows: sealed batch / "
            "Element list",
            f"{s[f'apply_{label}_batch_us_per_row']} / "
            f"{s[f'apply_{label}_list_us_per_row']} us/row = "
            f"{s[f'apply_{label}_batch_over_list']}x"]
           for label, epochs, rows in APPLY_SHAPES),
         *([f"dashboard {name}: {s[f'dash_{name}_rows']:,} of "
            f"{s['dash_rows']:,} rows -> {s[f'dash_{name}_cells']:,} cells",
            f"p50 {s[f'dash_{name}_us_p50']} us"]
           for name in ("tumbling", "group_by")),
         ["columnar ingest rows/s", f"{s['ingest_rows_per_s']:,}"],
         ["analytical rows", f"{s['analytical_rows']:,}"]],
        note=f"gate: tools/check_store.py holds p99 < "
             f"{P99_FLOOR_US:.0f} us with lookups interleaved into "
             f"live ingest, hot-key p50 <= {HOT_KEY_RATIO_CEILING}x "
             "the uniform-key p50, and the sealed-batch epoch apply <= "
             "the Element-list one at both sizes")


def main() -> None:
    args = benchlib.bench_parser(__doc__).parse_args()
    results = run_experiment()
    report(results)
    benchlib.merge_section(args.out, "store", results)


if __name__ == "__main__":
    main()
