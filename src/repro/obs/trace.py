"""Causal tracing spans on simulated time.

A :class:`Span` is one timed, attributed unit of work; spans form a tree
via ``parent_id`` within a ``trace_id``.  The :class:`Tracer` hands out
deterministic identifiers (``t-0000``/``s-00000`` counters, never
UUIDs), stamps spans from a :class:`~repro.util.clock.SimClock` (or any
injected ``timer``), and keeps an explicit active-span stack so nested
instrumentation parents correctly without thread-local magic.

Cross-process propagation mirrors W3C ``traceparent``: a span's context
serializes to ``"<trace_id>/<span_id>"`` and rides in event-log record
headers, so a consumer on the far side of a broker hop can parent its
spans to the producer's (see :mod:`repro.eventlog.producer`).

A tracer constructed with ``enabled=False`` returns a shared no-op span
from every call — instrumented code pays one method call and no
allocation, which is what keeps the disabled-path overhead at ~0%
(gated by ``tools/check_obs.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..util.clock import SimClock

__all__ = ["Span", "SpanEvent", "SpanContext", "Tracer", "NOOP_SPAN"]

#: (trace_id, span_id) — the portable identity of a span.
SpanContext = tuple[str, str]


class SpanEvent:
    """A point-in-time annotation inside a span."""

    __slots__ = ("name", "timestamp", "attrs")

    def __init__(self, name: str, timestamp: float,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.timestamp = timestamp
        self.attrs = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, t={self.timestamp:.6f})"


class Span:
    """One node of a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_time",
                 "end_time", "attrs", "events", "_tracer")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None,
                 name: str, start_time: float,
                 attrs: dict[str, Any] | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_time = start_time
        self.end_time: float | None = None
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.events: list[SpanEvent] = []
        self._tracer = tracer

    # -- identity -----------------------------------------------------------

    @property
    def context(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    @property
    def traceparent(self) -> str:
        """Header-safe serialized context (``"trace/span"``)."""
        return f"{self.trace_id}/{self.span_id}"

    # -- mutation -----------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def add_event(self, name: str, **attrs: Any) -> "Span":
        now = self._tracer.now() if self._tracer is not None else (
            self.end_time if self.end_time is not None else self.start_time)
        self.events.append(SpanEvent(name, now, attrs or None))
        return self

    def end(self, at: float | None = None) -> "Span":
        """Close the span (idempotent — the first end time wins)."""
        if self.end_time is None:
            if at is not None:
                self.end_time = float(at)
            elif self._tracer is not None:
                self.end_time = self._tracer.now()
            else:
                self.end_time = self.start_time
        return self

    # -- reads --------------------------------------------------------------

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    @property
    def is_recording(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_time is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start_time = 0.0
    end_time = 0.0
    attrs: dict[str, Any] = {}
    events: list[SpanEvent] = []
    duration = 0.0
    is_recording = False
    context: SpanContext = ("", "")
    traceparent = ""

    def set_attr(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **attrs: Any) -> "_NoopSpan":
        return self

    def end(self, at: float | None = None) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans with deterministic ids and simulated timestamps.

    clock    the time source for span start/end/event stamps; ``None``
             stamps everything at 0.0 (structure-only tracing)
    timer    overrides ``clock`` with an arbitrary ``() -> float``
             callable (e.g. ``time.perf_counter`` for wall profiling —
             opt-in only, it breaks run-to-run reproducibility)
    enabled  ``False`` turns every call into a no-op returning
             :data:`NOOP_SPAN`
    """

    def __init__(self, clock: SimClock | None = None, *,
                 enabled: bool = True, timer: Any = None) -> None:
        self.clock = clock
        self.timer = timer
        self.enabled = enabled
        #: every span ever started, in start order (open spans included)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_seq = 0
        self._span_seq = 0

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        if self.timer is not None:
            return float(self.timer())
        if self.clock is not None:
            return self.clock.now
        return 0.0

    # -- span lifecycle -----------------------------------------------------

    def start_span(self, name: str,
                   parent: "Span | SpanContext | None" = None,
                   attrs: dict[str, Any] | None = None) -> Span:
        """Open a span.  ``parent`` may be a :class:`Span`, a serialized
        :data:`SpanContext` from across a broker hop, or ``None`` — in
        which case the innermost active ``span()`` context is the parent
        (a brand-new trace when there is none)."""
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, _NoopSpan) or parent is None:
            trace_id, parent_id = self._next_trace_id(), None
        else:  # a remote SpanContext tuple
            trace_id, parent_id = parent
        span = Span(trace_id=trace_id, span_id=self._next_span_id(),
                    parent_id=parent_id, name=name, start_time=self.now(),
                    attrs=attrs, tracer=self)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child of the active span, make it the active parent,
        end it on exit."""
        s = self.start_span(name, attrs=attrs or None)
        if not s.is_recording:
            yield s
            return
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end()

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make an already-open span the active parent without ending it
        on exit (used by long-lived spans like the executor's job span)."""
        if not span.is_recording:
            yield span
            return
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @property
    def active(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- reads --------------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end_time is not None]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end_time is None]

    # -- propagation --------------------------------------------------------

    @staticmethod
    def parse_traceparent(value: str | None) -> SpanContext | None:
        """Inverse of :attr:`Span.traceparent`; ``None`` on garbage."""
        if not value:
            return None
        trace_id, sep, span_id = value.partition("/")
        if not sep or not trace_id or not span_id:
            return None
        return (trace_id, span_id)

    # -- ids ----------------------------------------------------------------

    def _next_trace_id(self) -> str:
        value = self._trace_seq
        self._trace_seq += 1
        return f"t-{value:04d}"

    def _next_span_id(self) -> str:
        value = self._span_seq
        self._span_seq += 1
        return f"s-{value:05d}"
