"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so callers can catch a
single base type at API boundaries.  Subsystem-specific bases
(:class:`LogError`, :class:`StreamError`, ...) let tests assert on the
failing layer precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """Invalid configuration value or inconsistent parameter combination."""


class MetricsError(ReproError):
    """Metric misuse: e.g. one name registered as two different kinds."""


class ClockError(ReproError):
    """Attempt to move simulated time backwards or misuse the clock."""


class SimulationError(ReproError):
    """Discrete-event simulation kernel misuse (e.g. scheduling in past)."""


class NetworkError(SimulationError):
    """Simulated network failure: unreachable node, dropped message."""


class LogError(ReproError):
    """Base class for event-log (Kafka-like substrate) errors."""


class TopicNotFound(LogError):
    """Produce/consume addressed to a topic that does not exist."""


class TopicExists(LogError):
    """Topic creation collided with an existing topic."""


class PartitionNotFound(LogError):
    """Partition index out of range for the topic."""


class OffsetOutOfRange(LogError):
    """Consumer seeked to an offset outside the retained range."""


class BrokerDown(LogError):
    """Operation routed to a broker that is currently failed."""


class RetryExhausted(ReproError):
    """A retried call gave up: attempts or deadline budget ran out.

    ``last_error`` carries the final underlying failure (also chained as
    ``__cause__``), so callers can distinguish *why* the retries failed.
    """

    def __init__(self, message: str, last_error: Exception | None = None):
        super().__init__(message)
        self.last_error = last_error


class CircuitOpen(ReproError):
    """A circuit breaker refused the call without attempting it."""


class StreamError(ReproError):
    """Base class for streaming-engine errors."""


class JobGraphError(StreamError):
    """Malformed dataflow graph (cycle, missing source, type clash)."""


class CheckpointError(StreamError):
    """Checkpoint could not be taken or restored."""


class BackpressureOverflow(StreamError):
    """A bounded channel overflowed with backpressure disabled."""


class OperatorCrash(StreamError):
    """An operator died mid-processing (raised by fault injection).

    Subclassing :class:`StreamError` keeps injected crashes
    indistinguishable from organic operator failures to recovery code —
    the point of chaos testing is that the production path cannot tell.

    ``op_name`` (when known) names the physical subtask that died, e.g.
    ``"window_sum[1]"`` — regional recovery uses it to compute the
    failover region instead of restarting the whole job.
    """

    def __init__(self, message: str, op_name: str | None = None):
        super().__init__(message)
        self.op_name = op_name


class CoordinatorDown(StreamError):
    """The checkpoint coordinator died (injected or organic).

    Any in-progress checkpoint is abandoned; a rebuilt coordinator
    resumes from the last *finalized* manifest in the store.
    """


class DataFaultError(StreamError):
    """A record could not be processed: malformed value, garbage
    timestamp, or a deterministically-throwing UDF.

    Data faults are *non-transient*: retrying the same record yields the
    same failure, so retry layers (see ``util.retry``) gain nothing by
    retrying it, and per-operator error policies decide the record's
    fate instead (skip, dead-letter, or fail the job).
    """


class RestartsExhausted(StreamError):
    """A supervisor gave up restarting a job.

    Either the restart budget ran out, or flapping detection tripped:
    too many consecutive restarts without any forward progress, the
    signature of a permanently-poisoned job that recovery can only mask,
    never fix.  ``restarts`` counts the restarts consumed, ``reason``
    is ``"budget"`` or ``"flapping"``, and ``last_error`` is the failure
    that triggered the final, refused restart.
    """

    def __init__(self, message: str, *, restarts: int = 0,
                 reason: str = "budget",
                 last_error: Exception | None = None):
        super().__init__(message)
        self.restarts = restarts
        self.reason = reason
        self.last_error = last_error


class StoreError(ReproError):
    """Tiered serving store misuse (bad shard config, rewound apply)."""


class VisionError(ReproError):
    """Base class for computer-vision substrate errors."""


class CalibrationError(VisionError):
    """Camera intrinsics invalid or degenerate geometry."""


class TrackingLost(VisionError):
    """Tracker could not locate enough correspondences to estimate pose."""


class SensorError(ReproError):
    """Sensor model misuse (bad rates, unknown sensor id)."""


class SpatialIndexError(SensorError):
    """Query or insert outside the index bounds."""


class RenderError(ReproError):
    """Scene-graph or compositor misuse."""


class OffloadError(ReproError):
    """Offload planning failed (no feasible tier, unknown task)."""


class TaskTimeout(OffloadError):
    """A remotely placed task exceeded its time budget."""


class TierDropout(OffloadError):
    """The tier executing a task went away mid-task (edge/cloud loss)."""


class PrivacyError(ReproError):
    """Privacy-mechanism misuse (invalid epsilon, exhausted budget)."""


class BudgetExhausted(PrivacyError):
    """The differential-privacy budget accountant refused a query."""


class ContextError(ReproError):
    """Semantic-context subsystem errors."""


class MarkupError(ContextError):
    """ARML-like markup failed to parse or serialize."""


class InterpretationError(ContextError):
    """Analytics output could not be bound to AR content."""


class PipelineError(ReproError):
    """Core AR x BigData pipeline wiring or lifecycle error."""


class ChaosError(ReproError):
    """Fault-injection plan or harness misuse (not an injected fault),
    or a supervisor giving up past ``MAX_FAILURES`` (the last failure is
    its ``__cause__``)."""
