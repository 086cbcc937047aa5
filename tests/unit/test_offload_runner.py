"""Resilient offload execution: timeouts, dropouts, breakers, fallback."""

import pytest

from repro.chaos import SITE_OFFLOAD, FaultInjector, FaultPlan, FaultSpec
from repro.offload import OffloadPlanner, OffloadRunner, vision_pipeline
from repro.offload.tasks import StageProfile
from repro.simnet.network import LINK_PRESETS
from repro.simnet.topology import NodeSpec, Topology
from repro.util.clock import SimClock
from repro.util.rng import RngRegistry


def _planner(seed=0):
    rngs = RngRegistry(seed)
    topology = Topology(rngs.get("net"))
    topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
    topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
    topology.add_node(NodeSpec("cloud", cpu_hz=64e9, role="cloud"))
    topology.add_link("device", "edge", LINK_PRESETS["wifi"])
    topology.add_link("edge", "cloud", LINK_PRESETS["wan"])
    return OffloadPlanner(topology, "device")


def _pipeline():
    return vision_pipeline(StageProfile(pixels=320 * 240, features=200,
                                        matches=80, ransac_iterations=50))


def _injector(*specs):
    return FaultInjector(FaultPlan(specs=tuple(specs)))


class TestOffloadRunner:
    def test_clean_frame_runs_remote_undegraded(self):
        runner = OffloadRunner(_planner(), clock=SimClock())
        result = runner.execute(_pipeline())
        assert result.tier == "edge"
        assert not result.degraded
        assert [a.ok for a in result.attempts] == [True]

    def test_timeout_retries_same_tier_then_succeeds(self):
        injector = _injector(
            FaultSpec("task_timeout", SITE_OFFLOAD, at=0, target="edge"))
        runner = OffloadRunner(_planner(), injector=injector,
                               clock=SimClock())
        result = runner.execute(_pipeline())
        assert result.timeouts == 1
        assert result.tier == "edge"  # the bounded retry recovered it
        assert not result.degraded
        assert [(a.tier, a.ok) for a in result.attempts] == [
            ("edge", False), ("edge", True)]

    def test_persistent_timeouts_degrade_to_local(self):
        injector = _injector(
            FaultSpec("task_timeout", SITE_OFFLOAD, at=0, count=50))
        runner = OffloadRunner(_planner(), injector=injector,
                               clock=SimClock())
        result = runner.execute(_pipeline())
        assert result.tier == "device"
        assert result.degraded
        assert result.outcome.is_local
        assert runner.degraded_frames == 1

    def test_dropout_excludes_tier_immediately(self):
        injector = _injector(
            FaultSpec("tier_dropout", SITE_OFFLOAD, at=0, target="edge"))
        runner = OffloadRunner(_planner(), injector=injector,
                               clock=SimClock())
        result = runner.execute(_pipeline())
        assert result.dropouts == 1
        # One failed edge attempt, then the next-best plan (never edge).
        assert result.attempts[0].tier == "edge"
        assert all(a.tier != "edge" for a in result.attempts[1:])
        assert result.attempts[-1].ok

    def test_breaker_opens_after_repeated_failures(self):
        injector = _injector(
            FaultSpec("task_timeout", SITE_OFFLOAD, at=0, count=1000,
                      target="edge"))
        # the breaker opens after 3 failures and stays open for 30 s
        runner = OffloadRunner(_planner(), injector=injector,
                               clock=SimClock())
        for _ in range(3):
            runner.execute(_pipeline())
        assert runner.breaker("edge").state == "open"
        # With edge's breaker open it is not even attempted any more.
        result = runner.execute(_pipeline())
        assert all(a.tier != "edge" for a in result.attempts)

    def test_clock_advances_by_execution_time(self):
        clock = SimClock()
        runner = OffloadRunner(_planner(), clock=clock)
        result = runner.execute(_pipeline())
        assert clock.now == pytest.approx(result.outcome.latency_s)

    def test_deterministic_attempt_sequence(self):
        def run():
            injector = _injector(
                FaultSpec("task_timeout", SITE_OFFLOAD, at=0, count=2),
                FaultSpec("tier_dropout", SITE_OFFLOAD, at=3))
            runner = OffloadRunner(_planner(), injector=injector,
                                   clock=SimClock())
            attempts = []
            for _ in range(3):
                result = runner.execute(_pipeline())
                attempts.extend((a.tier, a.ok) for a in result.attempts)
            return attempts, injector.trace_tuples()

        assert run() == run()
