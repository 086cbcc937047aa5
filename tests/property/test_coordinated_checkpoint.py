"""Barrier-alignment edge cases for coordinated checkpoints.

The barrier protocol must hold in the degenerate corners: splits with no
data, channels that carry only watermarks, faults landing while an
alignment is mid-flight, and checkpoints that outlive the plan shape
they were taken at (rescale restore) — and the one rewind,
``restore(checkpoint, region)``, must leave the same executor whether
it is asked for the whole plan or for every region in turn.  These are
tier-1: each case is a
small pinned scenario, not a seeded sweep (those live in
``test_coordinated_chaos.py``).
"""

import pytest

from repro.chaos import (
    SITE_FETCH,
    SITE_OPERATOR,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
    two_region_job,
)
from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.streaming import (
    CheckpointCoordinator,
    CheckpointStore,
    Element,
    JobBuilder,
    ParallelExecutor,
)
from repro.streaming.connectors import log_source, parallel_log_source
from repro.streaming.coordinator import failover_region_of
from repro.streaming.windows import TumblingWindows
from repro.util.errors import CheckpointError


def _keyed_job(elements, name="edge", window_s=10.0):
    builder = JobBuilder(name)
    (builder.source("events", elements, splits=4)
            .with_watermarks(5.0, name="wm")
            .key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(window_s), "sum",
                    value_fn=lambda v: v["v"], name="win")
            .sink("out"))
    return builder.build()


def _events(n=60, keys=4):
    return [Element(value={"k": i % keys, "v": float(i)}, timestamp=i * 0.5)
            for i in range(n)]


class TestEmptySplits:
    def test_source_with_empty_splits_still_checkpoints(self):
        # 4 splits, data only in split 0: the other splits' channels
        # carry nothing but barriers, yet alignment must complete
        def factory(split, num_splits):
            if split != 0:
                return []
            return _events(40)

        def build():
            builder = JobBuilder("empty-splits")
            (builder.source("events", split_factory=factory, splits=4)
                    .with_watermarks(5.0, name="wm")
                    .key_by(lambda v: v["k"], name="by_key")
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="win")
                    .sink("out"))
            return builder.build()

        golden = fault_free_sinks(build, parallelism=2, source_batch=8)
        report = run_coordinated(build(), None, parallelism=2,
                                 source_batch=8, interval_cycles=1)
        assert report.sink_values == golden
        assert report.checkpoints >= 1

    def test_entirely_empty_source(self):
        job = _keyed_job([])
        report = run_coordinated(job, None, parallelism=2, source_batch=8)
        assert report.sink_values == {"out": []}
        # the final checkpoint still finalizes over empty channels
        assert report.checkpoints >= 1


class TestWatermarkOnlyChannels:
    def test_filter_that_drops_everything(self):
        # downstream of the filter, channels carry only watermarks and
        # barriers; alignment and 2PC pre-commit must still complete
        def build():
            builder = JobBuilder("wm-only")
            (builder.source("events", _events(40))
                    .with_watermarks(5.0, name="wm")
                    .filter(lambda v: False, name="drop_all")
                    .key_by(lambda v: v["k"], name="by_key")
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="win")
                    .sink("out"))
            return builder.build()

        report = run_coordinated(build(), None, parallelism=2,
                                 source_batch=8, interval_cycles=1)
        assert report.sink_values == {"out": []}
        assert report.checkpoints >= 1

    def test_one_starved_branch(self):
        # one branch filtered dry, the other alive — the live branch's
        # output must be unaffected by alignment against the dry one
        def build():
            builder = JobBuilder("starved-branch")
            (builder.source("events", _events(40))
                    .with_watermarks(5.0, name="wm")
                    .filter(lambda v: v["k"] == 99, name="dry")
                    .key_by(lambda v: v["k"], name="by_dry")
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="win_dry")
                    .sink("out_dry"))
            (builder.source("beats", _events(40))
                    .with_watermarks(5.0, name="wm_live")
                    .key_by(lambda v: v["k"], name="by_live")
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="win_live")
                    .sink("out_live"))
            return builder.build()

        golden = fault_free_sinks(build, parallelism=2, source_batch=8)
        report = run_coordinated(build(), None, parallelism=2,
                                 source_batch=8, interval_cycles=1)
        assert report.sink_values == golden
        assert report.sink_values["out_dry"] == []
        assert report.sink_values["out_live"]


class TestBarrierDuringFault:
    def test_mid_batch_crash_while_aligning(self):
        # interval_cycles=1 keeps a checkpoint permanently in flight, so
        # the mid-batch crash lands during an alignment; recovery must
        # stay exactly-once
        events = reference_events(seed=5, n=240)
        golden = fault_free_sinks(lambda: reference_job(events),
                                  parallelism=2, source_batch=16)
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=37,
                      target="window_sum"),
            FaultSpec("operator_crash", SITE_OPERATOR, at=60,
                      target="double[1]"),
        ), name="mid-align")
        injector = FaultInjector(plan)
        report = run_coordinated(reference_job(events), injector,
                                 parallelism=2, source_batch=16,
                                 interval_cycles=1)
        assert report.crashes == 2
        assert canonical_sinks(report.sink_values) == canonical_sinks(golden)

    def test_crash_during_snapshot(self):
        # the barrier-phase site: a subtask dies *while* snapshotting
        events = reference_events(seed=9, n=240)
        golden = fault_free_sinks(lambda: reference_job(events),
                                  parallelism=2, source_batch=16)
        plan = FaultPlan(specs=(
            FaultSpec("barrier_crash", "streaming.barrier", at=1,
                      target="window_sum"),
        ), name="snap-crash")
        injector = FaultInjector(plan)
        report = run_coordinated(reference_job(events), injector,
                                 parallelism=2, source_batch=16,
                                 interval_cycles=1)
        assert report.crashes == 1
        assert canonical_sinks(report.sink_values) == canonical_sinks(golden)


class TestCheckpointZeroReadsNothing:
    """Checkpoint zero is taken before the supervisor's first attempt,
    so it must not fetch: the first read of a log-backed source happens
    inside ``run()``, where a broker fault is a counted failure and not
    an exception out of the runner."""

    @staticmethod
    def _topic():
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig("events", partitions=2))
        producer = Producer(cluster)
        for element in reference_events(seed=2, n=120):
            producer.send("events", element.value,
                          key=str(element.value["k"]),
                          timestamp=element.timestamp)
        return cluster

    @staticmethod
    def _job(cluster, split_aware):
        if not split_aware:
            return reference_job(log_source(cluster, "events"))
        factory, n = parallel_log_source(cluster, "events")
        builder = JobBuilder("first-read")
        (builder.source("events", splits=n, split_factory=factory)
                .with_watermarks(5.0, name="wm")
                .key_by(lambda v: v["k"], name="by_key")
                .window(TumblingWindows(10.0), "sum",
                        value_fn=lambda v: v["v"], name="win")
                .sink("out"))
        return builder.build()

    @pytest.mark.parametrize("split_aware", (False, True),
                             ids=("log_source", "parallel_log_source"))
    @pytest.mark.parametrize("at", (0, 2))
    def test_broker_fault_on_first_read_is_recovered(self, at, split_aware):
        cluster = self._topic()
        golden = fault_free_sinks(lambda: self._job(cluster, split_aware))
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec("partition_unavailable", SITE_FETCH, at=at, count=2),
        ), name="first-read"))
        chaos_cluster = ChaosLogCluster(cluster, injector)
        report = run_coordinated(self._job(chaos_cluster, split_aware),
                                 injector, parallelism=1)
        assert report.broker_faults == 2
        assert canonical_sinks(report.sink_values) == canonical_sinks(golden)

    def test_checkpoint_before_first_pull_restarts_from_scratch(self):
        reads = []

        def source():
            reads.append(1)
            return _events(20)

        builder = JobBuilder("lazy")
        builder.source("events", source, splits=2).sink("out")
        executor = ParallelExecutor(builder.build(), 2)
        zero = executor.checkpoint()
        assert reads == []
        assert zero.source_positions == {"events": {0: 0, 1: 0}}
        want = [repr(e) for e in executor.run()["out"].elements]
        executor.restore(zero)
        assert [repr(e) for e in executor.run()["out"].elements] == want


class TestRescaleFromCoordinatedCheckpoint:
    def test_restore_finalized_checkpoint_at_other_parallelism(self):
        def canon(values):
            return sorted(values, key=repr)

        events = _events(120, keys=6)
        expected = canon(ParallelExecutor(
            _keyed_job(events), batch_mode=False).run()["out"].values)
        for old_p, new_p in ((2, 4), (2, 1), (4, 2)):
            donor = ParallelExecutor(_keyed_job(events), old_p)
            store = CheckpointStore()
            CheckpointCoordinator(donor, store=store, interval_cycles=1)
            donor.run(source_batch=8, max_cycles=4)
            snapshot = store.latest()
            assert snapshot is not None
            assert store.manifests[snapshot.checkpoint_id].status \
                == "finalized"
            survivor = ParallelExecutor(_keyed_job(events), new_p)
            survivor.restore(snapshot)
            survivor.run(source_batch=8)
            got = canon(survivor.sinks["out"].values)
            assert got == expected, (
                f"rescale {old_p}->{new_p} from coordinator checkpoint "
                f"{snapshot.checkpoint_id} diverged")


class TestOneRewind:
    """``restore(ckpt, region)`` over every region == ``restore(ckpt)``."""

    @staticmethod
    def _ahead_of_a_checkpoint(parallelism):
        executor = ParallelExecutor(
            two_region_job(reference_events(seed=1, n=160),
                           reference_events(seed=2, n=160)),
            parallelism)
        store = CheckpointStore()
        coordinator = CheckpointCoordinator(executor, store=store,
                                            interval_cycles=2)
        while store.latest() is None:
            executor.run(source_batch=16, max_cycles=1)
        snapshot = store.latest()
        executor.run(source_batch=16, max_cycles=1)  # past the cut
        return executor, coordinator, snapshot

    @staticmethod
    def _state(executor):
        # quiescent after a rewind: the aligned snapshot reads source
        # positions, keyed/scalar state, sink rows and routing state
        cut = executor.checkpoint()
        return (cut.source_positions, cut.keyed_state, cut.scalar_state,
                cut.sink_elements, cut.routing_state, cut.shed_state)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_region_by_region_equals_whole(self, parallelism):
        whole, whole_coord, snapshot = self._ahead_of_a_checkpoint(
            parallelism)
        ahead = whole.sources.positions()
        whole.restore(snapshot)
        assert whole.sources.positions() != ahead
        regional, regional_coord, same = self._ahead_of_a_checkpoint(
            parallelism)
        assert same.source_positions == snapshot.source_positions
        regions = {frozenset(failover_region_of(regional.graph, op))
                   for op in ("window_a", "window_b")}
        assert len(regions) == 2 and not frozenset.intersection(*regions)
        replayed = sum(regional.restore(same, set(region))
                       for region in sorted(regions, key=sorted))
        assert replayed == sum(
            pos - snapshot.source_positions[name][split]
            for name, splits in ahead.items()
            for split, pos in splits.items()) > 0
        assert self._state(regional) == self._state(whole)
        for executor, coordinator in ((whole, whole_coord),
                                      (regional, regional_coord)):
            while not executor.done:
                executor.run(source_batch=16, max_cycles=1)
            coordinator.savepoint()
        assert {n: s.values for n, s in regional.sinks.items()} \
            == {n: s.values for n, s in whole.sinks.items()}

    def test_a_region_refuses_to_rescale(self):
        donor, _, snapshot = self._ahead_of_a_checkpoint(2)
        wider = ParallelExecutor(donor.job, {"default": 2, "window_a": 4})
        region = set(failover_region_of(wider.graph, "window_a"))
        with pytest.raises(CheckpointError, match="matching parallelism"):
            wider.restore(snapshot, region)
        wider.restore(snapshot)  # the whole plan may
