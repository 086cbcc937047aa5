"""Execution subtasks: every subtask runs one chain of operators.

Every execution subtask is a :class:`ChainedOperator`.  In batched mode
a maximal linear run of chainable operators (single input, single
output, no keyed state) is fused into one chain at
compile time; every other operator — and every operator in per-item
mode — runs as a chain of one, which is named after its operator, so
crash sites, fault traces and failover regions see the operator's own
name.  Fused items traverse the whole run in a single call instead of
one bounded channel hop per operator.

The chain is the one place the rules for a subtask's input are applied.
Each member's error policy and the chaos injector's data faults are
enforced per member, through
:func:`~repro.streaming.errors.guard_batch` /
:func:`~repro.streaming.errors.guard_item`, in :meth:`~ChainedOperator.
process_batch`, :meth:`~ChainedOperator.handle` and the
:meth:`~ChainedOperator.flush` cascade alike — so a record a member
emits at end of stream meets the same policy as any other.

A chain is broken by (see docs/ARCHITECTURE.md):

- **keyed state** — window and CEP operators are shuffle points;
- **fan-out / fan-in** — a node with multiple downstreams (or an
  operator fed by several upstreams) must stay a routing point.

Member operators keep their identity: the job graph still names them,
the executor checkpoints and restores them individually, and their
``processed``/``emitted`` counters keep working, so chaining is
invisible to everything except the channel structure.

Columnar execution composes transparently: ``process_batch`` pipes each
member's output list straight into the next member, so a
:class:`~repro.streaming.batch.RecordBatch` flows zero-copy through the
whole chain as long as every member has a columnar kernel — and the
first member without one simply decodes it via the per-item fallback in
:meth:`~repro.streaming.operators.Operator.process_batch`.  The same
hand-off decides what a *punctuated* batch (the watermark generator's
output) looks like to the next member: punctuation-aware members take it
whole, any other gets it exploded into fragments and loose watermarks
there.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..util.errors import StreamError
from .element import Element, StreamItem
from .errors import FAIL, ErrorPolicy, guard_batch, guard_item
from .operators import Operator

__all__ = ["ChainedOperator"]


class ChainedOperator(Operator):
    """A linear run of one or more operators executed as one subtask.

    The chain itself is stateless glue: member operators own all state
    and counters.  ``policies`` is aligned with ``operators`` (None: no
    policy declared).  Dead letters go to ``dead_letters``, which the
    owning executor drains to the DLQ sink after each call into the
    chain.  ``data_directives`` is the chaos injector's ``(member,
    items) -> {offset: fault}`` hook, called on each member's input, so
    fused and unfused runs poison the same records.
    """

    chainable = False  # chains are built once; never re-fused

    def __init__(self, operators: Sequence[Operator],
                 policies: Sequence[ErrorPolicy | None] | None = None,
                 dead_letters: list[Element] | None = None,
                 data_directives: Callable[..., Any] | None = None) -> None:
        if not operators:
            raise StreamError("a chain needs at least one operator")
        super().__init__(operators[0].name if len(operators) == 1 else
                         "chain(" + "+".join(op.name for op in operators)
                         + ")")
        self.operators = list(operators)
        self.policies = (list(policies) if policies is not None
                         else [None] * len(self.operators))
        self.dead_letters = [] if dead_letters is None else dead_letters
        self.data_directives = data_directives

    def handle(self, item: StreamItem) -> list[StreamItem]:
        pending: list[StreamItem] = [item]
        directives = self.data_directives
        for op, policy in zip(self.operators, self.policies):
            if not pending:
                break
            out: list[StreamItem] = []
            for it in pending:
                if policy is None and directives is None:
                    out.extend(op.handle(it))
                    continue
                faults = directives(op, (it,)) if directives else None
                out.extend(guard_item(op, it, policy or FAIL,
                                      self.dead_letters,
                                      faults.get(0) if faults else None))
            pending = out
        return pending

    def process(self, element):  # pragma: no cover - handle() is the entry
        raise StreamError(
            f"chain {self.name!r} dispatches via handle()/process_batch()"
        )

    def process_batch(self, items: list[StreamItem]) -> list[StreamItem]:
        return self._run(0, items)

    def _run(self, start: int, items: list[StreamItem]) -> list[StreamItem]:
        """``items`` through the members from ``start`` on, each under
        its policy and the data faults injected into its input."""
        pending = items
        directives = self.data_directives
        for i in range(start, len(self.operators)):
            if not pending:
                return []
            op, policy = self.operators[i], self.policies[i]
            if policy is None and directives is None:
                pending = op.process_batch(pending)
            else:
                pending = guard_batch(
                    op, pending, policy or FAIL, op.process_batch,
                    self.dead_letters,
                    directives(op, pending) if directives else None)
        return pending

    def flush(self) -> list[StreamItem]:
        """Flush members head-to-tail, cascading each member's pendings
        through the rest of the chain under the same policies — what the
        unfused executor does when it flushes each node and drains its
        downstream hops."""
        out: list[StreamItem] = []
        for i, op in enumerate(self.operators):
            out.extend(self._run(i + 1, op.flush()))
        return out
