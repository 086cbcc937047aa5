"""P9: geo-distributed placement — overlay latency, diurnal scale, MTTR.

Three measurements over the canonical :func:`repro.simnet.region_topology`
(two edge zones + one core, WiFi access / LTE fallback / WAN backhaul):

1. **Overlay-update latency, edge vs all-cloud.**  An AR overlay update
   is a device round trip to its serving tier: upload a pose+feature
   payload, run the recognition/annotation compute, download the
   overlay.  With *edge placement* the serving tier is the zone's edge
   server over the WiFi access link; *all-cloud* serves every session
   from the core over its cheapest path (the LTE fallback beats
   WiFi+WAN backhaul).  Both placements price the same nominal route
   (propagation + store-and-forward per hop) plus load-scaled compute.

2. **A million-session diurnal day.**  Sessions arrive on a diurnal
   curve (quiet nights, an evening peak); each session's tier
   utilization follows the curve, inflating compute by 1/(1-rho).  The
   whole day is vectorized numpy — a row per session — so the bench
   holds 1M sessions in a few hundred MB and runs in seconds.  The
   gated statistic is the p99 overlay-update latency per placement:
   the paper's timeliness argument is exactly that the access-network
   RTT, not the datacenter, dominates the AR tail.

3. **Failover MTTR.**  A live :func:`repro.geo.GeoDeployment` run
   (simnet heartbeats, mirrored log, checkpointed job) loses its
   primary region mid-stream; reported are the detection-to-recovery
   time and the replay volume vs a full restart of the replica.

Results merge into ``BENCH_streaming.json`` under the ``"geo"`` key;
``tools/check_geo.py`` gates the edge-vs-cloud p99 advantage and the
failover replay bound.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import benchlib
from tableprint import print_table

from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.geo import GeoDeployment
from repro.simnet import (
    FailureInjector,
    RegionFailureEvent,
    Simulator,
    Topology,
    region_topology,
)
from repro.streaming import JobBuilder, parallel_log_source
from repro.streaming.placement import placement_from_topology
from repro.streaming.windows import TumblingWindows
from repro.util.rng import make_rng

N_SESSIONS = 1_000_000
PAYLOAD_BYTES = 2_048.0      # pose + feature descriptors up
RESPONSE_BYTES = 16_384.0    # rendered overlay delta down
COMPUTE_CYCLES = 2e6         # recognition + annotation lookup
PEAK_RHO_EDGE = 0.70         # evening-peak utilization, edge tier
PEAK_RHO_CORE = 0.45         # core absorbs the same peak with headroom
JITTER_STD_S = 0.002
#: committed floor: edge placement must beat all-cloud on overlay p99
#: by at least this factor (tools/check_geo.py)
MIN_EDGE_P99_ADVANTAGE = 2.0

# -- failover MTTR scenario (mirrors tests/property/test_geo_chaos.py) --
TOPIC = "geo.events"
N_RECORDS = 240
KEYS = 8
PINS = {TOPIC: "edge-a", "by_key": "edge-a",
        "window_sum": "edge-a", "out": "edge-a"}


def _nominal_one_way(topo: Topology, src: str, dst: str,
                     size_bytes: float) -> float:
    """Deterministic store-and-forward time along the current route:
    per hop, propagation latency plus serialization at link bandwidth."""
    total = 0.0
    path = topo.route(src, dst)
    for a, b in zip(path, path[1:]):
        spec = topo.link(a, b).spec
        total += spec.latency_s + size_bytes / spec.bandwidth_bps
    return total


def _base_rtt(topo: Topology, device: str, tier: str) -> float:
    return (_nominal_one_way(topo, device, tier, PAYLOAD_BYTES)
            + _nominal_one_way(topo, tier, device, RESPONSE_BYTES))


def _diurnal_weights(hours: int = 24) -> np.ndarray:
    """Arrival mass per hour: quiet early morning, evening peak."""
    h = np.arange(hours)
    curve = 1.0 + 0.9 * np.sin((h - 9.0) * 2.0 * np.pi / 24.0)
    return curve / curve.sum()


def run_latency_experiment(n_sessions: int = N_SESSIONS) -> dict:
    rng = np.random.default_rng(29)
    topo = region_topology(make_rng(11))
    devices = sorted(s.name for s in topo.nodes(role="device"))
    edge_of = {d: f"{topo.region_of(d)}-edge" for d in devices}

    weights = _diurnal_weights()
    hour = rng.choice(len(weights), size=n_sessions, p=weights)
    load = weights / weights.max()          # 0..1 diurnal load factor
    dev_idx = rng.integers(0, len(devices), size=n_sessions)
    jitter = {
        "edge": np.abs(rng.normal(0.0, JITTER_STD_S, size=n_sessions)),
        "cloud": np.abs(rng.normal(0.0, JITTER_STD_S, size=n_sessions)),
    }

    base = {
        "edge": np.array([_base_rtt(topo, d, edge_of[d])
                          for d in devices]),
        "cloud": np.array([_base_rtt(topo, d, "core")
                           for d in devices]),
    }
    hz = {"edge": topo.node("edge-a-edge").cpu_hz,
          "cloud": topo.node("core").cpu_hz}
    peak = {"edge": PEAK_RHO_EDGE, "cloud": PEAK_RHO_CORE}

    stats: dict[str, float] = {}
    for placement in ("edge", "cloud"):
        rho = peak[placement] * load[hour]
        latency = (base[placement][dev_idx]
                   + COMPUTE_CYCLES / (hz[placement] * (1.0 - rho))
                   + jitter[placement])
        stats[f"{placement}_p50_ms"] = float(
            np.percentile(latency, 50) * 1e3)
        stats[f"{placement}_p99_ms"] = float(
            np.percentile(latency, 99) * 1e3)
    stats["p99_edge_advantage"] = (stats["cloud_p99_ms"]
                                   / stats["edge_p99_ms"])
    return stats


def _build_job(cluster: LogCluster):
    builder = JobBuilder("p9-geo")
    factory, splits = parallel_log_source(cluster, TOPIC)
    (builder.source(TOPIC, splits=splits, split_factory=factory)
            .key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(20.0), "sum",
                    value_fn=lambda v: v["v"], name="window_sum")
            .sink("out"))
    for node, region in PINS.items():
        builder.pin_region(node, region)
    builder.declare_cross_region(TOPIC, "by_key")
    return builder.build()


def run_failover_experiment() -> dict:
    primary = LogCluster(num_brokers=1)
    standby = LogCluster(num_brokers=1)
    primary.create_topic(TopicConfig(name=TOPIC, partitions=4))
    producer = Producer(primary, idempotent=True)
    for i in range(N_RECORDS):
        producer.send(TOPIC, {"k": i % KEYS, "v": float(i)},
                      key=f"k-{i % KEYS}", timestamp=float(i))
    topo = region_topology(make_rng(11))
    sim = Simulator()
    FailureInjector(sim, topo).schedule_region(
        RegionFailureEvent("edge-a", down_at=4.0, up_at=1e9))
    deployment = GeoDeployment(
        _build_job,
        primary_cluster=primary, standby_cluster=standby, topic=TOPIC,
        placement=placement_from_topology(topo, dict(PINS),
                                          default_region="core"),
        source_batch=8, interval_cycles=2,
        region_timeout_s=2.0, topology=topo, simulator=sim,
        observer="core")
    report = deployment.run()
    failover = report.failover
    assert failover is not None, "region loss was not detected"
    assert failover.replayed < failover.full_restart_equiv, (
        "failover replayed as much as a full restart")
    return {
        "mttr_s": failover.mttr_s,
        "replayed": failover.replayed,
        "full_restart_equiv": failover.full_restart_equiv,
        "replay_fraction": (failover.replayed
                            / failover.full_restart_equiv),
        "records": N_RECORDS,
        "mirror_pumped": report.mirror_pumped,
    }


def run_experiment(n_sessions: int = N_SESSIONS) -> dict:
    latency = run_latency_experiment(n_sessions)
    failover = run_failover_experiment()
    return {
        "config": {"n_sessions": n_sessions,
                   "payload_bytes": PAYLOAD_BYTES,
                   "response_bytes": RESPONSE_BYTES,
                   "compute_cycles": COMPUTE_CYCLES,
                   "peak_rho_edge": PEAK_RHO_EDGE,
                   "peak_rho_core": PEAK_RHO_CORE,
                   "failover_records": N_RECORDS},
        "geo": {**latency, **{f"failover_{k}": v
                              for k, v in failover.items()}},
    }


def report(results: dict) -> None:
    geo = results["geo"]
    print_table(
        f"P9  geo placement ({results['config']['n_sessions']:,} "
        "diurnal sessions, overlay-update round trip)",
        ["placement", "p50 ms", "p99 ms"],
        [["edge zone", geo["edge_p50_ms"], geo["edge_p99_ms"]],
         ["all-cloud", geo["cloud_p50_ms"], geo["cloud_p99_ms"]]],
        note=f"edge p99 advantage {geo['p99_edge_advantage']:.1f}x "
             f"(floor {MIN_EDGE_P99_ADVANTAGE:.1f}x, "
             "tools/check_geo.py)")
    print_table(
        "P9  region failover (whole edge-region loss, live deployment)",
        ["metric", "value"],
        [["MTTR (sim s)", geo["failover_mttr_s"]],
         ["records replayed", geo["failover_replayed"]],
         ["full-restart equivalent", geo["failover_full_restart_equiv"]],
         ["replay fraction", geo["failover_replay_fraction"]]],
        note="exactly-once across the failover is asserted by the geo "
             "chaos suite (make geo)")


def bench_p9_geo(benchmark):
    """pytest-benchmark entry: smaller session count, same invariants."""
    results = benchmark.pedantic(lambda: run_experiment(100_000),
                                 rounds=1, iterations=1)
    report(results)
    assert (results["geo"]["p99_edge_advantage"]
            >= MIN_EDGE_P99_ADVANTAGE)


def main() -> None:
    parser = benchlib.bench_parser(__doc__)
    parser.add_argument("--sessions", type=int, default=N_SESSIONS)
    args = parser.parse_args()
    results = run_experiment(args.sessions)
    report(results)
    benchlib.merge_section(args.out, "geo", results)


if __name__ == "__main__":
    main()
