"""Discrete-event simulation kernel.

A minimal but complete event scheduler: callbacks are scheduled at
absolute simulated times onto a priority queue; :meth:`Simulator.run`
pops them in (time, insertion-order) order and advances the shared
:class:`~repro.util.clock.SimClock`.  Every latency-sensitive experiment
(offloading, remote diagnosis, screening queues) runs on this kernel.

Insertion order breaks ties deterministically, so simulations are exactly
reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from ..util.clock import SimClock
from ..util.errors import SimulationError

__all__ = ["Simulator", "ScheduledEvent"]

Callback = Callable[[], Any]


@dataclass(order=True)
class ScheduledEvent:
    """An entry in the simulator's event queue."""

    time: float
    seq: int
    callback: Callback = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Its ``clock`` may be shared: a geo deployment hands it to the
    supervisor it drives."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._queue: list[ScheduledEvent] = []
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    def schedule_at(self, when: float, callback: Callback,
                    label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {when!r} before now={self.clock.now!r}"
            )
        event = ScheduledEvent(when, self._seq, callback, label)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay: float, callback: Callback,
                       label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    def schedule_every(self, interval: float, callback: Callback,
                       until: float | None = None) -> ScheduledEvent:
        """Schedule a repeating callback every ``interval`` seconds.

        The returned handle cancels the *whole* series when cancelled.
        ``until`` (absolute time) bounds the series; otherwise it repeats
        as long as the simulation keeps running.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")

        series = ScheduledEvent(self.clock.now + interval, self._seq,
                                callback)

        def fire() -> None:
            if series.cancelled:
                return
            callback()
            next_time = self.clock.now + interval
            if until is None or next_time <= until:
                inner = self.schedule_at(next_time, fire)
                # Propagate cancellation of the series to the queued event.
                series_children.append(inner)

        series_children: list[ScheduledEvent] = []
        first = self.schedule_after(interval, fire)
        series_children.append(first)

        original_cancel = series.cancel

        def cancel_all() -> None:
            original_cancel()
            for child in series_children:
                child.cancel()

        series.cancel = cancel_all  # type: ignore[method-assign]
        return series

    def step(self) -> bool:
        """Run the single next event; returns False when queue is empty.

        The clock may be shared with something else that moves it (a
        supervisor's run slice): an event whose time that already passed
        is overdue and fires now, instead of rewinding the clock."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(max(event.time, self.clock.now))
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue, optionally bounded by time and/or event count.

        Returns the number of events processed by this call.  When
        ``until`` is given, the clock is advanced to ``until`` at the end
        even if the queue drained earlier, so callers can rely on
        ``sim.now == until``.
        """
        ran = 0
        while self._queue:
            if max_events is not None and ran >= max_events:
                break
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                break
            self.step()
            ran += 1
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
        return ran
