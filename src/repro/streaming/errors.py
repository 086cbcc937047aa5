"""Per-operator error policies, dead letters, and restart budgets.

The data plane is a fault domain: AR/big-data ingest is noisy mobile
sensor traffic, and a single malformed record or throwing UDF must not
take down an otherwise healthy job.  This module defines what happens
when an operator fails *on a record*:

- :data:`FAIL` — propagate the exception (the default; exactly the
  pre-policy behaviour, so jobs without declared policies are
  untouched);
- :data:`SKIP` — drop the record and continue;
- :func:`RETRY` — re-invoke the operator on the record up to ``n``
  more times, then fail;
- :data:`DEAD_LETTER` — divert the record (with operator, exception and
  fault provenance) to the job's dead-letter queue.

Policies are declared per *logical* operator on the
:class:`~repro.streaming.graph.JobBuilder` and enforced in one place:
the :class:`~repro.streaming.chain.ChainedOperator` every execution
subtask runs applies each member's policy, in both execution modes,
through the two guards here:

- :func:`guard_batch` wraps a batch kernel.  The hot path is a bare
  ``try``: a clean batch pays nothing.  Injected data faults (known
  row offsets from the chaos injector) partition the batch — clean
  slices keep the vectorized kernel, only poisoned rows fall back to
  per-item isolation.  A *genuine* mid-batch exception rolls the
  operator back to a pre-batch snapshot and replays the batch
  per-item, so exactly the poisoned records are isolated.
- :func:`guard_item` wraps one item in per-item execution mode.

Dead-lettered records become :class:`Element`\\ s wrapping a
:class:`DeadLetter` value, delivered to the reserved sink
:data:`DLQ_SINK`.  In coordinated runs that sink is a 2PC
:class:`~repro.streaming.txn_sink.TransactionalSink`, so committed DLQ
contents obey the same exactly-once guarantee as committed output:
under any crash schedule, ``committed sink + committed DLQ`` accounts
for every input record exactly once.

:class:`RestartBudget` is the supervisor-side complement: bounded
restart attempts with seeded backoff (``RetryPolicy``'s capped
exponential, on the budget's own jitter stream) on a
:class:`~repro.util.clock.SimClock`, plus flapping detection, so a
permanently-poisoned job escalates to
:class:`~repro.util.errors.RestartsExhausted` instead of crash-looping
forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..util.clock import SimClock
from ..util.errors import (
    BrokerDown,
    ChaosError,
    ConfigError,
    CoordinatorDown,
    DataFaultError,
    OperatorCrash,
    RestartsExhausted,
)
from ..util.retry import RetryPolicy
from ..util.rng import make_rng
from .batch import RecordBatch, decode_items, explode_items
from .element import Element, StreamItem, Watermark
from .operators import logical_name

__all__ = [
    "DEAD_LETTER",
    "DLQ_SINK",
    "FAIL",
    "RETRY",
    "SKIP",
    "DeadLetter",
    "ErrorPolicy",
    "RestartBudget",
    "dead_letter_element",
    "guard_batch",
    "guard_item",
]

#: Reserved name of the dead-letter sink an executor adds when any
#: operator declares a policy that can dead-letter.  User sinks may not
#: take this name.
DLQ_SINK = "__dlq__"

_KINDS = ("fail", "skip", "retry", "dead_letter")

#: Failures the policy machinery must never swallow: injected
#: infrastructure faults and harness errors are the *supervisor's*
#: problem, not a property of the record being processed.
_PASSTHROUGH = (OperatorCrash, CoordinatorDown, BrokerDown, ChaosError,
                KeyboardInterrupt, SystemExit)


@dataclass(frozen=True)
class ErrorPolicy:
    """What an operator does when processing a record raises.

    ``attempts`` is the number of *re*-invocations a ``retry`` policy
    makes after the first failure; once exhausted the record fails.
    Non-retry kinds take no attempts.
    """

    kind: str = "fail"
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown error-policy kind {self.kind!r}; "
                              f"expected one of {_KINDS}")
        if self.kind == "retry" and self.attempts < 1:
            raise ConfigError("RETRY needs attempts >= 1")
        if self.kind != "retry" and self.attempts != 0:
            raise ConfigError(
                f"policy kind {self.kind!r} takes no attempts")

    @property
    def can_dead_letter(self) -> bool:
        """Whether this policy can ever emit to the DLQ."""
        return self.kind == "dead_letter"


FAIL = ErrorPolicy("fail")
SKIP = ErrorPolicy("skip")
DEAD_LETTER = ErrorPolicy("dead_letter")


def RETRY(attempts: int) -> ErrorPolicy:
    """Retry the record ``attempts`` more times, then fail."""
    return ErrorPolicy("retry", attempts=attempts)


@dataclass(frozen=True)
class DeadLetter:
    """One dead-lettered record: the original element plus provenance.

    ``operator`` is the *logical* operator name (subtask suffixes
    stripped) so DLQ contents compare across execution modes and
    parallelisms.  ``error`` is the stringified exception — storing the
    exception object itself would break the bit-identical equality the
    chaos invariants assert on.  ``fault`` names the injected fault
    kind when chaos poisoned the record (``"udf_exception"``,
    ``"corrupt_value"``, ``"corrupt_timestamp"``) and ``"error"`` for
    organic UDF failures.
    """

    value: Any
    timestamp: float
    key: Any
    operator: str
    error_type: str
    error: str
    fault: str = "error"
    #: retries before the record was dead-lettered: always 0, since a
    #: retry ends in fail; kept so a dead letter's bytes stay the same
    attempts: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # a checkpoint pickles the instance dict: the field belongs in it
        object.__setattr__(self, "attempts", 0)


def dead_letter_element(element: Element, op_name: str,
                        exc: BaseException, fault: str = "error") -> Element:
    """Wrap a failed record for delivery to the DLQ sink."""
    letter = DeadLetter(
        value=element.value, timestamp=element.timestamp,
        key=element.key, operator=logical_name(op_name),
        error_type=type(exc).__name__, error=str(exc), fault=fault)
    return Element(letter, timestamp=element.timestamp, key=element.key)


# -- injected data corruption ------------------------------------------------

#: Oversized payload: a corrupt reading orders of magnitude past any
#: plausible sensor range — UDFs that validate ranges reject it, UDFs
#: that subscript it crash on the type change.
_OVERSIZED = "\xde\xad" * 2048


def corrupt_value(param: str | None) -> Any:
    """The replacement value for a ``corrupt_value`` fault."""
    if param == "nan":
        return float("nan")
    if param == "oversized":
        return _OVERSIZED
    return None  # "wrong_type" (default): value vanishes entirely


def corrupt_timestamp(param: str | None, timestamp: float) -> float:
    """The replacement timestamp for a ``corrupt_timestamp`` fault."""
    if param == "backwards":
        return timestamp - 1.0e6  # ancient: certain late-drop
    return float("nan")  # "garbage" (default)


def apply_corruption(element: Element, kind: str,
                     param: str | None) -> Element:
    """Poison one element in place of the original."""
    if kind == "corrupt_value":
        return element.with_value(corrupt_value(param))
    if kind == "corrupt_timestamp":
        return Element(element.value,
                       corrupt_timestamp(param, element.timestamp),
                       element.key)
    return element  # udf_exception leaves the record intact


# -- enforcement -------------------------------------------------------------


def _capture(op: Any) -> tuple[Any, int, int]:
    return op.capture(), op.processed, op.emitted


def _rollback(op: Any, state: tuple[Any, int, int]) -> None:
    captured, processed, emitted = state
    op.rollback(captured)
    op.processed = processed
    op.emitted = emitted


def guard_item(op: Any, item: StreamItem, policy: ErrorPolicy,
               dead_letters: list[Element],
               fault: tuple[str, str | None, str] | None = None,
               ) -> list[StreamItem]:
    """Process one item under ``policy``; the per-item isolation unit.

    ``fault`` is an injected data fault ``(kind, param, detail)`` for
    this record.  Failed attempts roll the operator back to a
    pre-attempt snapshot so a partially-applied ``process`` cannot
    leak state.
    """
    if not isinstance(item, Element):
        # Watermarks/markers carry no data to poison; progress handling
        # failing is an engine bug, not a data fault.
        return op.handle(item)
    element = item
    injected = fault is not None
    if injected:
        kind, param, _detail = fault
        element = apply_corruption(element, kind, param)
    if policy.kind == "fail" and not injected:
        return op.handle(element)
    state = _capture(op)
    try:
        if injected and kind == "udf_exception":
            raise DataFaultError(fault[2])
        return op.handle(element)
    except _PASSTHROUGH:
        raise
    except Exception as exc:
        _rollback(op, state)
        if policy.kind == "retry" and not (
                injected and kind == "udf_exception"):
            # a poisoned record refires on every retry: it fails at once
            for _ in range(policy.attempts):
                state = _capture(op)
                try:
                    return op.handle(element)
                except _PASSTHROUGH:
                    raise
                except Exception:
                    _rollback(op, state)
        if policy.kind == "skip":
            return []
        if policy.kind == "dead_letter":
            dead_letters.append(dead_letter_element(
                element, op.name, exc,
                fault=fault[0] if injected else "error"))
            return []
        raise


def _poison_segments(items: Iterable[StreamItem],
                     faults: dict[int, tuple[str, str | None, str]],
                     ) -> list[tuple[str, Any]]:
    """Partition a mixed item list at poisoned element offsets.

    Returns ``("run", [items...])`` segments safe for the batch kernel
    interleaved with ``("poison", element, fault)`` single records, in
    stream order — the validity-mask split that keeps clean slices on
    the vectorized path.  Batches are sliced zero-copy at the cuts;
    punctuated ones are exploded first, so offsets count rows only
    (watermarks weigh nothing here).
    """
    segments: list[tuple[str, Any]] = []
    run: list[StreamItem] = []
    offset = 0

    def _cut() -> None:
        nonlocal run
        if run:
            segments.append(("run", run))
            run = []

    for item in explode_items(items):
        if type(item) is RecordBatch:
            n = len(item)
            hits = sorted(k for k in faults if offset <= k < offset + n)
            if not hits:
                run.append(item)
            else:
                pos = 0
                for k in hits:
                    local = k - offset
                    if local > pos:
                        run.append(item.slice(pos, local))
                    _cut()
                    segments.append(
                        ("poison",
                         item.slice(local, local + 1).to_elements()[0],
                         faults[k]))
                    pos = local + 1
                if pos < n:
                    run.append(item.slice(pos, n))
            offset += n
        elif isinstance(item, Element):
            fault = faults.get(offset)
            if fault is None:
                run.append(item)
            else:
                _cut()
                segments.append(("poison", item, fault))
            offset += 1
        else:
            run.append(item)  # watermarks: weight 0 in fault counting
    _cut()
    return segments


def guard_batch(op: Any, items: list[StreamItem], policy: ErrorPolicy,
                process: Callable[[list[StreamItem]], list[StreamItem]],
                dead_letters: list[Element],
                faults: dict[int, tuple[str, str | None, str]] | None
                = None) -> list[StreamItem]:
    """Run one operator's batch under its error policy.

    ``faults`` maps element-weighted offsets within ``items`` to
    injected data faults; those rows are processed in per-item
    isolation while every clean slice keeps the batch kernel.  Without
    known faults the batch runs optimistically; a genuine exception
    rolls the operator back to the pre-batch snapshot and replays the
    batch per-item so only the failing records pay the policy.
    """
    if faults:
        out: list[StreamItem] = []
        for segment in _poison_segments(items, faults):
            if segment[0] == "run":
                out.extend(guard_batch(op, segment[1], policy, process,
                                       dead_letters))
            else:
                out.extend(guard_item(op, segment[1], policy,
                                      dead_letters, segment[2]))
        return out
    if policy.kind == "fail":
        return process(items)
    state = _capture(op)
    try:
        return process(items)
    except _PASSTHROUGH:
        raise
    except Exception:
        _rollback(op, state)
        out = []
        for item in decode_items(items):
            out.extend(guard_item(op, item, policy, dead_letters))
        return out


# -- bounded restarts --------------------------------------------------------


class RestartBudget:
    """Bounded, backed-off restarts with flapping detection.

    The :class:`~repro.streaming.supervisor.Supervisor` consults the
    budget on every failure: each restart consumes one attempt and
    sleeps a seeded, capped exponential backoff on the simulated clock.
    A restart that follows *no forward progress* (no new checkpoint
    since the previous failure) counts toward the flapping streak;
    ``flap_threshold`` consecutive no-progress restarts raise
    :class:`~repro.util.errors.RestartsExhausted` immediately — the
    job is permanently poisoned and further restarts only mask it.
    """

    def __init__(self, max_restarts: int = 16, *,
                 flap_threshold: int = 0, seed: int = 0) -> None:
        if max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if flap_threshold < 0:
            raise ConfigError("flap_threshold must be >= 0 (0 disables)")
        self.max_restarts = max_restarts
        #: the backoff formula (and its argument checks) is the retry
        #: layer's; the jitter stream below is the budget's own
        self.backoff = RetryPolicy(base_delay_s=0.25, max_delay_s=30.0)
        self.flap_threshold = flap_threshold
        #: the run's clock, bound by the supervisor (:meth:`bind_clock`)
        self.clock: SimClock | None = None
        self._rng = make_rng((int(seed), 0xB0D6E7))
        self.restarts = 0
        self.total_backoff_s = 0.0
        self._flap_streak = 0

    def bind_clock(self, clock: SimClock) -> None:
        """Late-bind the run's clock (supervisors own clock creation)."""
        if self.clock is None:
            self.clock = clock

    def on_failure(self, error: Exception, *,
                   made_progress: bool = True) -> float:
        """Account one failure; returns the backoff slept before the
        restart, or raises ``RestartsExhausted`` refusing it."""
        if made_progress:
            self._flap_streak = 0
        else:
            self._flap_streak += 1
        if self._flap_streak and self.flap_threshold \
                and self._flap_streak >= self.flap_threshold:
            raise RestartsExhausted(
                f"flapping: {self._flap_streak} consecutive restarts "
                f"without a new checkpoint (after {self.restarts} "
                f"restarts, {self.total_backoff_s:.3f}s backoff); "
                f"last error: {error!r}",
                restarts=self.restarts, reason="flapping",
                last_error=error)
        if self.restarts >= self.max_restarts:
            raise RestartsExhausted(
                f"restart budget exhausted: {self.restarts} restarts "
                f"consumed (max {self.max_restarts}, "
                f"{self.total_backoff_s:.3f}s total backoff); "
                f"last error: {error!r}",
                restarts=self.restarts, reason="budget",
                last_error=error)
        delay = self.backoff.delay(self.restarts + 1, self._rng)
        self.restarts += 1
        self.total_backoff_s += delay
        if self.clock is not None and delay > 0.0:
            self.clock.advance(delay)
        return delay
