"""Unit tests: discrete-event kernel, queueing, failures."""

import pytest

from repro.simnet import (
    FailureEvent,
    FailureInjector,
    LinkSpec,
    NodeSpec,
    ProcessingQueue,
    QueuedTask,
    Simulator,
    Topology,
)
from repro.util.errors import ClockError, ConfigError, SimulationError
from repro.util.rng import make_rng


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("late"))
        sim.schedule_at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule_at(1.0, lambda: ran.append(1))
        handle.cancel()
        sim.run()
        assert ran == []
        assert sim.processed == 0

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.pending == 1
        assert sim.now == 5.0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        hits = []

        def chain():
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule_after(1.0, chain)

        sim.schedule_at(0.0, chain)
        sim.run()
        assert hits == [0.0, 1.0, 2.0]

    def test_schedule_every_repeats_until_bound(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_schedule_every_cancel_stops_series(self):
        sim = Simulator()
        ticks = []
        series = sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        sim.schedule_at(2.5, series.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_overdue_events_fire_at_now(self):
        # another owner of the shared clock ran past two queued events:
        # they fire in order at the current time, the clock stays put
        sim = Simulator()
        clock = sim.clock
        seen = []
        sim.schedule_at(20.0, lambda: seen.append(("loss", sim.now)))
        sim.schedule_at(20.5, lambda: seen.append(("heal", sim.now)))
        sim.schedule_at(30.0, lambda: seen.append(("later", sim.now)))
        clock.advance_to(21.0)
        assert sim.run(until=25.0) == 2
        assert seen == [("loss", 21.0), ("heal", 21.0)]
        assert sim.now == 25.0
        sim.run()
        assert seen[-1] == ("later", 30.0)
        with pytest.raises(ClockError):
            clock.advance_to(29.0)  # an explicit rewind still raises

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i), lambda: None)
        ran = sim.run(max_events=4)
        assert ran == 4
        assert sim.pending == 6


class TestProcessingQueue:
    def test_single_server_serializes(self):
        sim = Simulator()
        queue = ProcessingQueue(sim, cores=1)
        for i in range(3):
            queue.submit(QueuedTask(name=f"t{i}", service_time=2.0))
        sim.run()
        finished = [t.finished_at for t in queue.completed]
        assert finished == [2.0, 4.0, 6.0]

    def test_parallel_servers(self):
        sim = Simulator()
        queue = ProcessingQueue(sim, cores=3)
        for i in range(3):
            queue.submit(QueuedTask(name=f"t{i}", service_time=2.0))
        sim.run()
        assert all(t.finished_at == 2.0 for t in queue.completed)

    def test_wait_time_accounting(self):
        sim = Simulator()
        queue = ProcessingQueue(sim, cores=1)
        queue.submit(QueuedTask(name="a", service_time=3.0))
        queue.submit(QueuedTask(name="b", service_time=1.0))
        sim.run()
        b = next(t for t in queue.completed if t.name == "b")
        assert b.wait_time == 3.0
        assert b.sojourn_time == 4.0

    def test_on_done_callback(self):
        sim = Simulator()
        queue = ProcessingQueue(sim, cores=1)
        done = []
        queue.submit(QueuedTask(name="a", service_time=1.0,
                                on_done=lambda t: done.append(t.name)))
        sim.run()
        assert done == ["a"]

    def test_negative_service_rejected(self):
        sim = Simulator()
        queue = ProcessingQueue(sim)
        with pytest.raises(SimulationError):
            queue.submit(QueuedTask(name="bad", service_time=-1.0))


class TestFailureInjector:
    def _topology(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("n1", cpu_hz=1e9))
        return topology

    def test_scripted_outage(self):
        sim = Simulator()
        topology = self._topology()
        injector = FailureInjector(sim, topology)
        injector.schedule(FailureEvent(node="n1", down_at=1.0, up_at=2.0))
        sim.run(until=1.5)
        assert not topology.node("n1").up
        sim.run()
        assert topology.node("n1").up

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            FailureEvent(node="n1", down_at=2.0, up_at=1.0)
