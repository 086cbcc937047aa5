"""Multi-core FIFO processing queue on the discrete-event kernel.

Models a node executing tasks: ``cores`` tasks run concurrently; further
arrivals queue.  Used for the cloud tier under contention (Sec 4.1's
"fixed time cap" is only achievable while the cloud is not saturated —
the experiments show exactly that knee) and for the Figure-9 security
screening lanes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..util.errors import SimulationError
from .kernel import Simulator

__all__ = ["QueuedTask", "ProcessingQueue"]


@dataclass
class QueuedTask:
    """A unit of work with bookkeeping timestamps filled in by the queue."""

    name: str
    service_time: float
    on_done: Callable[["QueuedTask"], None] | None = None
    arrived_at: float = field(default=float("nan"))
    started_at: float = field(default=float("nan"))
    finished_at: float = field(default=float("nan"))

    @property
    def wait_time(self) -> float:
        return self.started_at - self.arrived_at

    @property
    def sojourn_time(self) -> float:
        """Total time in system (wait + service)."""
        return self.finished_at - self.arrived_at


class ProcessingQueue:
    """FIFO queue with ``cores`` parallel servers on a simulator."""

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "queue") -> None:
        if cores < 1:
            raise SimulationError("cores must be >= 1")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._waiting: deque[QueuedTask] = deque()
        self._busy = 0
        self.completed: list[QueuedTask] = []

    @property
    def depth(self) -> int:
        """Tasks waiting (excludes in-service)."""
        return len(self._waiting)

    def submit(self, task: QueuedTask) -> None:
        """Enqueue a task at the current simulated time."""
        if task.service_time < 0:
            raise SimulationError("service_time must be non-negative")
        task.arrived_at = self.sim.now
        self._waiting.append(task)
        self._try_start()

    def _try_start(self) -> None:
        while self._busy < self.cores and self._waiting:
            task = self._waiting.popleft()
            task.started_at = self.sim.now
            self._busy += 1
            self.sim.schedule_after(
                task.service_time,
                lambda t=task: self._finish(t),
                label=f"{self.name}:{task.name}",
            )

    def _finish(self, task: QueuedTask) -> None:
        task.finished_at = self.sim.now
        self._busy -= 1
        self.completed.append(task)
        if task.on_done is not None:
            task.on_done(task)
        self._try_start()
