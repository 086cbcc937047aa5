"""Operator chaining: fuse linear runs of operators into one node.

Flink-style task chaining for the single-threaded executor: a maximal
linear run of chainable operators (single input, single output, no
keyed state, no side-tagged edges) is fused into one
:class:`ChainedOperator` at executor build time.  Items then traverse
the whole run in a single call instead of one bounded channel hop per
operator — the per-hop deque traffic and drain bookkeeping disappear.

A chain is broken by (see docs/ARCHITECTURE.md):

- **keyed state** — reduce, window, CEP operators are shuffle points;
- **joins** — two side-tagged inputs need their own channels;
- **fan-out / fan-in** — a node with multiple downstreams (or an
  operator fed by several upstreams) must stay a routing point.

Member operators keep their identity: the job graph still names them,
the checkpoint coordinator snapshots/restores them individually, and
their ``processed``/``emitted`` counters keep working, so chaining is
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

from typing import Any, Iterable, Sequence

from ..util.errors import StreamError
from .element import StreamItem
from .errors import FAIL, guard_batch, guard_item
from .operators import Operator

__all__ = ["ChainedOperator"]


class ChainedOperator(Operator):
    """A fused linear run of operators executed as one node.

    The chain itself is stateless glue: member operators own all state
    and counters, and none of them keeps keyed state.  ``snapshot`` /
    ``restore`` delegate per member keyed by name (the executor
    checkpoints members directly through the job graph, but the chain
    stays self-contained for direct use and ``capture``).
    """

    chainable = False  # chains are built once; never re-fused
    #: per-member error policies (logical member name ->
    #: :class:`~repro.streaming.errors.ErrorPolicy`), set by the
    #: executor when the job declares any.  Fusion must not change what
    #: happens to a poisoned record, so the chain enforces each
    #: member's policy exactly where the unchained executor would.
    policies: dict[str, Any] | None = None
    #: shared dead-letter list the owning executor drains and routes to
    #: the DLQ sink after each call into the chain.
    dead_letters: list | None = None
    #: optional callable ``(member_op, items) -> {offset: fault}`` from
    #: the chaos injector — injected data faults are counted per
    #: *member* input so chained and unchained runs poison the same
    #: records.
    fault_source: Any = None

    def __init__(self, operators: Sequence[Operator]) -> None:
        if len(operators) < 2:
            raise StreamError("a chain needs at least two operators")
        super().__init__("chain(" + "+".join(op.name for op in operators)
                         + ")")
        self.operators = list(operators)

    @property
    def member_names(self) -> list[str]:
        """Member operator names in chain order (used by the parallel
        executor's per-subtask bookkeeping and the chaos injector's
        crash-site targeting)."""
        return [op.name for op in self.operators]

    def _member_policy(self, op: Operator) -> Any:
        if self.policies is None:
            return None
        name = op.name
        if name.endswith("]"):
            cut = name.rfind("[")
            if cut > 0:
                name = name[:cut]
        return self.policies.get(name)

    def _guarded(self) -> bool:
        return self.policies is not None or self.fault_source is not None

    def handle(self, item: StreamItem) -> list[StreamItem]:
        pending: list[StreamItem] = [item]
        guarded = self._guarded()
        for op in self.operators:
            if not pending:
                break
            nxt: list[StreamItem] = []
            if not guarded:
                for it in pending:
                    nxt.extend(op.handle(it))
            else:
                policy = self._member_policy(op) or FAIL
                source = self.fault_source
                for it in pending:
                    faults = (source(op, (it,))
                              if source is not None else None)
                    nxt.extend(guard_item(
                        op, it, policy, self.dead_letters,
                        faults.get(0) if faults else None))
            pending = nxt
        return pending

    def process(self, element):  # pragma: no cover - handle() is the entry
        raise StreamError(
            f"chain {self.name!r} dispatches via handle()/process_batch()"
        )

    def process_batch(self, items: Iterable[StreamItem]) -> list[StreamItem]:
        guarded = self._guarded()
        pending: list[StreamItem] | Iterable[StreamItem] = items
        for op in self.operators:
            if guarded:
                policy = self._member_policy(op) or FAIL
                pending = (list(pending)
                           if not isinstance(pending, list) else pending)
                faults = (self.fault_source(op, pending)
                          if self.fault_source is not None else None)
                pending = guard_batch(op, pending, policy,
                                      op.process_batch,
                                      self.dead_letters, faults)
            else:
                pending = op.process_batch(pending)
            if not pending:
                return []
        return list(pending)

    def flush(self) -> list[StreamItem]:
        """Flush members head-to-tail, cascading each member's pendings
        through the rest of the chain — equivalent to the unchained
        executor flushing each node and draining its downstream hops."""
        out: list[StreamItem] = []
        for i, op in enumerate(self.operators):
            pending: list[StreamItem] = op.flush()
            for later in self.operators[i + 1:]:
                if not pending:
                    break
                pending = later.process_batch(pending)
            out.extend(pending)
        return out

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Any:
        return {op.name: op.snapshot() for op in self.operators}

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        for op in self.operators:
            op.restore([s[op.name] for s in scalars], primary=primary,
                       exact=exact)
