"""Geo-distributed control plane: region health, session handoff,
whole-region failover.

The streaming engine, event log, and simnet each gained a region
dimension; this package is the controller that ties them together:

- :class:`RegionController` — a deadline failure detector over
  *regions* (reusing the engine's
  :class:`~repro.streaming.coordinator.HeartbeatMonitor`), fed from
  live simnet topology observations.
- :class:`GeoController` — a controller for the one
  :class:`~repro.streaming.supervisor.Supervisor`: pumps the
  cross-region log mirror, hands a session's operators off across a
  zone boundary, and fails the whole deployment over to a surviving
  region from the replicated log plus the newest finalized checkpoint
  the replica covers — reporting exactly how much replay that saved
  versus a cold restart.  :func:`GeoDeployment` builds a supervisor
  with one.
"""

from .controller import RegionController
from .deployment import (
    FailoverReport,
    GeoController,
    GeoDeployment,
    HandoffReport,
)

__all__ = [
    "RegionController",
    "GeoController",
    "GeoDeployment",
    "FailoverReport",
    "HandoffReport",
]
