"""The parallel executor: the loop that runs a compiled plan.

A :class:`ParallelExecutor` *has* a plan
(:func:`~repro.streaming.plan.compile_execution_graph`), a
:class:`~repro.streaming.sources.SourceReader` and
:class:`~repro.streaming.transport.Channels`; what is its own is the
operator clones (each subtask runs one
:class:`~repro.streaming.chain.ChainedOperator` of them, which applies
their error policies and data faults), emit routing (forward / hash /
rebalance / merge), dead-letter routing, the drain / barrier / snapshot
cycle, the run loop, and ``checkpoint`` / ``restore`` as orchestration
of the three.

Every sink is a 2PC :class:`~repro.streaming.txn_sink.TransactionalSink`.
With a checkpoint coordinator attached, its output becomes visible when
a checkpoint finalizes; with none, the run loop commits each sink's
open transaction at the end of every macro cycle and after the
end-of-input flush, so ``run`` returns with every delivered row visible.

Execution is single-threaded and deterministic: subtasks are
*modelled* concurrency, and nothing here reads a clock.  Each subtask
index is a worker lane; :meth:`ParallelExecutor.lane_items` counts the
items each lane processed, which is what the parallel benchmarks read
parallelism from.

Two execution modes share one semantics.  **Batched** (the default)
moves whole channel batches through :meth:`Operator.process_batch` as
columns (:class:`~repro.streaming.batch.RecordBatch`; Element lists
only where a source cannot be encoded), with linear runs of chainable
operators fused into one chain at compile time.
**Per-item** (``batch_mode=False``) is element-at-a-time dispatch, kept
as the semantic reference: batched execution is bit-identical to it
(same sink contents, same operator state and checkpoints, same
``processed``/``emitted`` counters).

Every checkpoint is a :class:`~repro.streaming.barrier.Cut` the executor
writes: in flight as barriers pass (``open_cut``), or in one pass when
quiescent (``checkpoint``).  Keyed state is stored **by key group**,
source progress **by split**, so a checkpoint taken at parallelism N
restores at parallelism M (*rescaling*): key groups and splits are
reassigned wholesale, scalar operator state merges conservatively
(watermarks regress to the minimum).  At unchanged parallelism a
restore is exact — the chaos suite's recovered-sinks-equal-fault-free
invariant holds bit-for-bit.

Parallelism 1 — the default, and what every single-instance job runs
at — compiles to all-forward edges.

Equivalence contract (property-tested): for key-aligned sources (same
key, same split — key-aligned routing) and allowed lateness covering
the watermark skew between subtasks (no late drops), sinks at any
parallelism are identical to the parallelism-1 plan *modulo cross-key
interleaving*; per-key subsequences are bit-identical.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any

import numpy as np

from ..util.errors import CheckpointError, ConfigError, JobGraphError
from .barrier import (
    BLOCKED,
    IGNORED,
    BarrierAligner,
    Cut,
    ParallelCheckpoint,
)
from .batch import RecordBatch, items_weight
from .chain import ChainedOperator
from .element import CheckpointBarrier, Element, StreamItem, Watermark
from .errors import DLQ_SINK
from .graph import JobGraph
from .join import IntervalJoinOperator
from .operators import Operator, subtask_name
from .plan import (
    FORWARD,
    HASH,
    MERGE,
    REBALANCE,
    PhysicalEdge,
    compile_execution_graph,
)
from . import shuffle
from .shuffle import (
    key_group_for,
    key_group_range,
    subtask_for_key_group,
    subtasks_for_keys,
)
from .sources import SourceReader
from .transport import Channel, Channels
from .txn_sink import TransactionalSink

__all__ = ["ParallelExecutor"]


class ParallelExecutor:
    """Runs a physical plan: N subtasks per operator, keyed shuffles,
    per-subtask checkpoints, deterministic single-threaded execution.

    The only executor: a single-instance job is this class at its
    default parallelism of 1.  ``restore`` is the only rewind: the whole
    plan — where it accepts checkpoints taken at a *different*
    parallelism (rescaling) — or one failover region of it.
    """

    def __init__(self, job: JobGraph,
                 parallelism: int | dict[str, int] = 1,
                 *, batch_mode: bool = True,
                 injector: Any = None,
                 tracer: Any = None, metrics: Any = None,
                 transactional_sinks: bool = True,
                 placement: Any = None) -> None:
        if not transactional_sinks:
            raise ConfigError("every sink is a 2PC TransactionalSink; "
                              "transactional_sinks=False is not supported")
        self.graph = compile_execution_graph(
            job, parallelism, chaining=batch_mode, placement=placement)
        self.job = job
        #: batched execution is columnar: sources encode splits as
        #: RecordBatches and shuffles/merges stay vectorized,
        #: bit-identical to the per-item reference (``batch_mode=False``)
        self.batch_mode = batch_mode
        self.injector = injector
        self.tracer = tracer
        self.metrics = metrics
        self.sources = SourceReader(job, self.graph, batch_mode=batch_mode,
                                    metrics=metrics)
        self.channels = Channels(self.graph, batch_mode=batch_mode,
                                 injector=injector, metrics=metrics)
        #: cross-region traffic accounting: packets that traversed an
        #: inter-region link and the modelled latency they paid
        self.cross_region_packets = 0
        self.cross_region_transfer_s = 0.0
        #: newest event timestamp delivered per sink (with the source
        #: frontier, the live watermark-lag gauge)
        self._sink_frontier: dict[str, float] = {}
        self._gauge_cache: dict[str, Any] | None = None
        self._checkpoint_seq = 0
        self._flushed = False
        self._job_span: Any = None
        self._obs_spans: dict[str, Any] = {}
        self._coordinator: Any = None
        #: the checkpoint being cut: opened by the coordinator's trigger,
        #: closed by its finalize or abandon
        self.cut: Cut | None = None
        self._stalled_now: set[tuple[str, int]] = set()
        self._build_physical_ops()
        #: one barrier aligner per subtask over its input channels
        self._aligners = {
            (name, idx): BarrierAligner(
                tuple((side, up, up_idx)
                      for side in self._sides(name)
                      for (up, up_idx) in self.channels.inputs.get(
                          (name, idx, side), ())))
            for name in self.graph.topo
            for idx in range(self.graph.nodes[name].parallelism)}
        #: out-edges by upstream node, and the round-robin cursors of
        #: the rebalance edges among them: (edge_idx, up_idx) -> cursor
        self._down: dict[str, list[tuple[int, PhysicalEdge]]] = {}
        for edge_idx, edge in enumerate(self.graph.edges):
            self._down.setdefault(edge.up, []).append((edge_idx, edge))
        self._rr: dict[tuple[int, int], int] = {}
        #: parallelism -> (key_dict, per-code subtask map) for the
        #: vectorized hash shuffle (single entry per width: bounded)
        self._hash_sub_cache: dict[int, tuple[list, np.ndarray]] = {}
        self.sinks = {s: TransactionalSink(s, self.graph.sink_feeders(s))
                      for s in job.sinks}
        # The nodes whose policies can dead-letter feed the reserved DLQ
        # sink, which stages dead letters through the same 2PC protocol
        # as regular output, so a crash can neither lose nor duplicate
        # them.
        policies = job.error_policies
        dlq_nodes = [name for name in self.graph.topo
                     if any(policies[m].can_dead_letter
                            for m in self.graph.nodes[name].members
                            if m in policies)]
        self._dlq_nodes = set(dlq_nodes)
        if job.needs_dead_letters:
            self.sinks[DLQ_SINK] = TransactionalSink(DLQ_SINK, tuple(
                (n, i) for n in dlq_nodes
                for i in range(self.graph.nodes[n].parallelism)))

    # -- the two public counters ---------------------------------------------

    @property
    def backpressure_events(self) -> int:
        return self.channels.backpressure_events

    @property
    def shed_elements(self) -> int:
        return self.sources.shed_elements

    # -- plan materialization ------------------------------------------------

    def _build_physical_ops(self) -> None:
        """Clone each logical operator once per subtask and chain each
        subtask's clones.

        Clones are independent instances (state deep-copied, functions
        shared) named ``op[i]`` (:func:`~repro.streaming.operators.
        subtask_name`) so injector crash sites, metrics and spans are
        subtask-scoped.  Every subtask runs one
        :class:`~repro.streaming.chain.ChainedOperator` of its node's
        members, which enforces their error policies and the injector's
        data faults; dead letters collect in one shared list.
        """
        policies = self.job.error_policies
        self._data_chaos = (self.injector is not None
                            and getattr(self.injector, "has_data_faults",
                                        False))
        directives = (self.injector.data_directives if self._data_chaos
                      else None)
        self._dead_letters: list[Element] = []
        self._ops: dict[str, list[ChainedOperator]] = {}
        self._clones: dict[str, list[Operator]] = {
            m: [] for m in self.job.operators
        }
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            member_policies = [policies.get(m) for m in node.members]
            subtasks: list[ChainedOperator] = []
            for i in range(node.parallelism):
                member_clones: list[Operator] = []
                for m in node.members:
                    clone = copy.deepcopy(self.job.operators[m])
                    clone.name = subtask_name(m, i)
                    self._clones[m].append(clone)
                    member_clones.append(clone)
                subtasks.append(ChainedOperator(
                    member_clones, member_policies, self._dead_letters,
                    directives))
            self._ops[name] = subtasks

    def _emit_dead_letters(self, name: str, idx: int) -> None:
        """Route dead letters collected while subtask (name, idx) was
        processing into the reserved DLQ sink, staged against this
        feeder's open epoch; the sink frontier gauge is left alone (a
        poisoned record's timestamp may be garbage)."""
        letters = self._dead_letters
        self.sinks[DLQ_SINK].deliver(list(letters), (name, idx))
        if self.metrics is not None:
            self.metrics.counter("sink.delivered",
                                 sink=DLQ_SINK).inc(len(letters))
        letters.clear()

    # -- checkpoint coordination ---------------------------------------------

    def attach_coordinator(self, coordinator: Any) -> None:
        """Wire a CheckpointCoordinator into the run loop: from now on
        sinks commit only when its checkpoints finalize, not at the end
        of every macro cycle."""
        self._coordinator = coordinator

    def open_cut(self, checkpoint_id: int) -> Cut:
        """Open checkpoint N's cut at the current source positions and
        shed state, then emit barrier N from every source subtask —
        including subtasks whose splits are empty or exhausted, so every
        downstream channel carries the marker and alignment can
        complete."""
        self.cut = Cut(checkpoint_id, self.graph, self.sources, self.sinks)
        barrier = CheckpointBarrier(checkpoint_id)
        for name in sorted(self.job.sources):
            self.sources.open(name)
            for idx in range(self.graph.source_parallelism[name]):
                self._emit(name, idx, [barrier])
                self._cut_rr(name, idx, checkpoint_id)
        return self.cut

    def _cut_for(self, checkpoint_id: int) -> Cut | None:
        """The open cut, if it is checkpoint ``checkpoint_id``'s: a
        record from an abandoned checkpoint's barriers, still finishing
        their journey, is dropped."""
        cut = self.cut
        if cut is None or cut.checkpoint_id != checkpoint_id:
            return None
        return cut

    def _cut_rr(self, up: str, up_idx: int, checkpoint_id: int) -> None:
        """A subtask forwarding its barrier freezes its round-robin
        cursors: they are part of checkpoint N's routing cut."""
        cut = self._cut_for(checkpoint_id)
        if cut is None:
            return
        for edge_idx, edge in self._down.get(up, ()):
            if edge.mode == REBALANCE:
                key = (edge_idx, up_idx)
                cut.rr[key] = self._rr.get(key, 0)

    def _sink_precommitted(self, sink_name: str,
                           checkpoint_id: int | None) -> None:
        """A 2PC sink's barrier alignment returned ``checkpoint_id``:
        phase 1 done, acked in the cut.  A pre-commit for a checkpoint
        nobody is cutting (barriers from an abandoned attempt, or from
        before a coordinator crash, finishing their journey) is aborted
        instead, so its elements fold back into the open transaction
        rather than being orphaned in a sealed one nobody will commit."""
        if checkpoint_id is None:
            return
        cut = self._cut_for(checkpoint_id)
        if cut is not None:
            cut.sink_acked.add(sink_name)
        else:
            self.sinks[sink_name].abort_pending(checkpoint_id)

    def drain_for_coordinator(self) -> int:
        """One macro drain (no source pull): lets the coordinator's
        savepoint flow its barriers through without reading input."""
        self.channels.release_held()
        return self._drain()

    def on_checkpoint_finalized(self, checkpoint_id: int,
                                duration_s: float) -> None:
        """Coordinator callback after the atomic manifest commit."""
        if self._job_span is not None:
            self._job_span.add_event("checkpoint.finalized",
                                     checkpoint_id=checkpoint_id,
                                     duration_s=duration_s)

    # -- sources -------------------------------------------------------------

    def _pull_sources(self, batch: int) -> int:
        pulled = 0
        sources = self.sources
        for name in sorted(self.job.sources):
            sources.open(name)
            for idx in range(self.graph.source_parallelism[name]):
                n, taken = sources.pull(name, idx, batch)
                pulled += n
                if taken:
                    self._emit(name, idx, taken)
        return pulled

    # -- emit routing --------------------------------------------------------

    def _charge_cross_region(self, edge: PhysicalEdge, packets: int) -> None:
        """Model ``packets`` packets traversing an inter-region link,
        each paying the link's one-way latency."""
        self.cross_region_packets += packets
        self.cross_region_transfer_s += packets * edge.link_cost_s

    def _emit(self, up: str, up_idx: int, items: list[StreamItem]) -> None:
        """Route one subtask's output batch down every out-edge."""
        if not items:
            return
        for edge_idx, edge in self._down.get(up, ()):
            if edge.mode == MERGE:
                if edge.cross_region:
                    self._charge_cross_region(edge, 1)
                self._deliver(edge.down, (up, up_idx), items)
                continue
            if edge.mode == FORWARD:
                if edge.cross_region:
                    self._charge_cross_region(edge, 1)
                self.channels.offer((edge.down, up_idx, edge.side),
                                    (up, up_idx), items)
                continue
            p_down = self.graph.nodes[edge.down].parallelism
            buckets: list[list[StreamItem]] = [[] for _ in range(p_down)]
            hashed = edge.mode == HASH  # else REBALANCE: round-robin
            g = shuffle.KEY_GROUPS
            cursor = self._rr.get((edge_idx, up_idx), 0)
            for item in items:
                if isinstance(item, (Watermark, CheckpointBarrier)):
                    # Progress markers fan out to every subtask.
                    for bucket in buckets:
                        bucket.append(item)
                elif type(item) is RecordBatch:
                    if hashed:
                        self._partition_batch(item, g, p_down, buckets)
                    elif p_down == 1:
                        buckets[0].append(item)
                    else:
                        self._scatter(
                            item, (cursor + np.arange(len(item))) % p_down,
                            buckets)
                    cursor += len(item)
                elif hashed:
                    kg = key_group_for(item.key, g)
                    buckets[subtask_for_key_group(kg, g, p_down)].append(item)
                else:
                    buckets[cursor % p_down].append(item)
                    cursor += 1
            if not hashed:
                self._rr[(edge_idx, up_idx)] = cursor
            if edge.cross_region:
                self._charge_cross_region(edge, sum(map(bool, buckets)))
            for j, bucket in enumerate(buckets):
                if bucket:
                    self.channels.offer((edge.down, j, edge.side),
                                        (up, up_idx), bucket)

    def _partition_batch(self, rb: RecordBatch, g: int, p: int,
                         buckets: list[list[StreamItem]]) -> None:
        """Hash-shuffle one columnar batch: one subtask lookup per
        *distinct* key in the batch's dictionary, then a vectorized
        gather/partition over the codes column.  Every bucket receives
        every watermark the batch carries, re-seated among its own rows
        — progress markers fan out.  Unkeyed rows fall back to
        per-element routing so the StreamError raises at exactly the
        position the per-item path would raise it."""
        codes = rb.key_codes
        kd = rb.key_dict
        cached = self._hash_sub_cache.get(p)
        if codes is not None and cached is not None and cached[0] is kd:
            sub = cached[1]  # cache hit implies the dict is None-free
        elif codes is None or any(k is None for k in kd):
            for item in rb.to_items():
                if type(item) is Watermark:
                    for bucket in buckets:
                        bucket.append(item)
                else:
                    kg = key_group_for(item.key, g)
                    buckets[subtask_for_key_group(kg, g, p)].append(item)
            return
        else:
            sub = np.asarray(subtasks_for_keys(kd, g, p), dtype=np.int64)
            self._hash_sub_cache[p] = (kd, sub)
        if p == 1:
            buckets[0].append(rb)
            return
        dest = sub[codes]
        if rb.wm_offsets is None:
            lo = int(dest.min())
            if lo == int(dest.max()):
                buckets[lo].append(rb)  # whole batch owned by one subtask
                return
        self._scatter(rb, dest, buckets)

    @staticmethod
    def _scatter(rb: RecordBatch, dest: np.ndarray,
                 buckets: list[list[StreamItem]]) -> None:
        """Cut a batch by destination subtask; every part keeps every
        watermark the batch carries."""
        for j in range(len(buckets)):
            part = rb.compress(dest == j)
            if part.weight:
                buckets[j].append(part)

    def _deliver(self, sink_name: str, feeder: tuple[str, int],
                 items: list[StreamItem]) -> None:
        """Merge a feeder's output into a 2PC sink: elements stage into
        the open transaction, barriers advance the sink's alignment and
        — once all feeders delivered — pre-commit (phase 1, acked in
        the cut)."""
        sink = self.sinks[sink_name]
        run: list[Element] = []
        delivered = 0
        frontier = float("-inf")
        for item in items:
            if type(item) is RecordBatch:
                # Rows stay columns: the sink seals them at pre-commit.
                if not len(item):
                    continue
                if run:
                    sink.deliver(run, feeder)
                    run = []
                if item.wm_offsets is not None:
                    item = item.with_punctuation(None, None)
                sink.deliver(item, feeder)
                delivered += len(item)
                # fmax: like the per-item max, a NaN never wins
                frontier = max(frontier,
                               float(np.fmax.reduce(item.timestamps)))
            elif isinstance(item, Element):
                run.append(item)
                delivered += 1
                frontier = max(frontier, item.timestamp)
            elif isinstance(item, CheckpointBarrier):
                if run:
                    sink.deliver(run, feeder)
                    run = []
                self._sink_precommitted(
                    sink_name, sink.on_barrier(feeder, item.checkpoint_id))
        if run:
            sink.deliver(run, feeder)
        if delivered:
            self._note_sink_delivery(sink_name, frontier)
            if self.metrics is not None:
                self.metrics.counter("sink.delivered",
                                     sink=sink_name).inc(delivered)

    def _note_sink_delivery(self, sink_name: str, ts: float) -> None:
        """Advance a sink's event-time frontier (feeds the live
        ``sink.watermark_lag_s`` gauge) to the newest delivered
        timestamp."""
        last = self._sink_frontier.get(sink_name)
        if last is None or ts > last:
            self._sink_frontier[sink_name] = ts

    # -- drain cycles --------------------------------------------------------

    def _process(self, name: str, idx: int, side: str | None,
                 items: list[StreamItem]) -> None:
        """Run subtask (name, idx)'s chain over ``items`` — through the
        injector's crash site — emit its output and route its dead
        letters."""
        chain = self._ops[name][idx]
        injector = self.injector
        if not self.batch_mode:
            for item in items:
                if injector is not None:
                    injector.before_item(chain)
                self._emit(name, idx, chain.handle(item, side))
        elif injector is None:
            self._emit(name, idx, chain.process_batch(items, side))
        else:
            self._emit(name, idx, injector.intercept_batch(
                chain, items, partial(chain.process_batch, side=side)))
        if self._dead_letters:
            self._emit_dead_letters(name, idx)

    def _drain(self) -> int:
        """Drain until nothing moves, then close the macro cycle;
        returns what the first pass moved."""
        moved = self._drain_cycle()
        while self._drain_cycle():
            pass
        self._tick_aligners()
        self.channels.advance()
        return moved

    def _drain_cycle(self) -> int:
        moved = 0
        metrics = self.metrics
        for name in self.graph.topo:
            sides = self._sides(name)
            for idx in range(self.graph.nodes[name].parallelism):
                if self._stalled_now and (name, idx) in self._stalled_now:
                    continue
                drained = 0
                for side in sides:
                    chans = self.channels.inputs.get((name, idx, side), {})
                    for sender in sorted(chans):
                        drained += self._drain_channel(
                            name, idx, side, sender, chans[sender])
                moved += drained
                if drained and metrics is not None:
                    metrics.summary(
                        "op.batch_size",
                        op=subtask_name(name, idx)).observe(drained)
        return moved

    # -- barriers and the cut -------------------------------------------------

    def _drain_channel(self, name: str, idx: int, side: str | None,
                       sender: tuple[str, int], channel: Channel) -> int:
        """Drain one channel under barrier rules: the items before each
        barrier are one segment, then the barrier runs its alignment /
        snapshot transition, and a barrier that blocks the channel ends
        the drain.  With no barrier queued the whole queue is one
        segment."""
        key = (name, idx, side)
        aligner = self._aligners[(name, idx)]
        pending = channel.queue
        if not pending or aligner.is_blocked((side, sender[0], sender[1])):
            return 0
        moved = 0
        while pending:
            barrier = None
            if CheckpointBarrier not in map(type, pending):
                segment = channel.take()
            else:
                segment = []
                while type(pending[0]) is not CheckpointBarrier:
                    segment.append(pending.popleft())
                barrier = pending.popleft()
            if segment:
                moved += (items_weight(segment) if self.batch_mode
                          else len(segment))
                items = self.channels.align(key, sender, segment)
                if items:
                    self._process(name, idx, side, items)
            if barrier is None:
                break
            moved += 1
            if self._on_channel_barrier(name, idx, side, sender, channel,
                                        barrier):
                break  # channel blocked until alignment ends
        return moved

    def _on_channel_barrier(self, name: str, idx: int, side: str | None,
                            sender: tuple[str, int], channel: Channel,
                            barrier: CheckpointBarrier) -> bool:
        """Consume one barrier marker; returns True when the channel is
        now blocked (stop draining it this pass)."""
        aligner = self._aligners[(name, idx)]
        result = aligner.on_barrier((side, sender[0], sender[1]),
                                    barrier.checkpoint_id)
        if result.action == IGNORED:
            return False
        cut = self._cut_for(result.checkpoint_id)
        # BLOCKED and COMPLETE both mark this channel's cut point.
        if cut is not None:
            cut.channel_wm.setdefault((name, idx, side), {})[sender] = \
                channel.watermark
        if result.action == BLOCKED:
            return True
        # COMPLETE, all channels aligned: snapshot, ack, forward
        if self.metrics is not None:
            self.metrics.summary(
                "checkpoint.alignment_cycles",
                op=subtask_name(name, idx),
            ).observe(aligner.last_alignment_cycles)
        self._pass_barrier(name, idx, result.checkpoint_id)
        return False

    def _pass_barrier(self, name: str, idx: int, checkpoint_id: int) -> None:
        """Barrier N passes one subtask: snapshot it into the cut, then
        forward the barrier.  The injector's barrier-phase crash site
        sits just before the state read — a subtask dying *during* its
        snapshot."""
        if self.injector is not None:
            self.injector.before_snapshot(self._ops[name][idx],
                                          subtask_name(name, idx),
                                          checkpoint_id)
        cut = self._cut_for(checkpoint_id)
        if cut is not None:
            self._read_state(name, idx, cut)
            for side in self._sides(name):
                if (name, idx, side) in self.channels.inputs:
                    cut.aligned_wm[(name, idx, side)] = \
                        self.channels.aligned((name, idx, side))
        self._emit(name, idx, [CheckpointBarrier(checkpoint_id)])
        if name in self._dlq_nodes and DLQ_SINK in self.sinks:
            # Dead-letter feeders also gate the DLQ's 2PC pre-commit:
            # this subtask's barrier closes its dead-letter epoch.
            self._sink_precommitted(
                DLQ_SINK,
                self.sinks[DLQ_SINK].on_barrier((name, idx), checkpoint_id))
        self._cut_rr(name, idx, checkpoint_id)

    def _sides(self, name: str) -> tuple[str | None, ...]:
        """The input sides of an execution node: a join has two."""
        join = isinstance(self._ops[name][0].operators[0],
                          IntervalJoinOperator)
        return ("left", "right") if join else (None,)

    def _read_state(self, name: str, idx: int, cut: Cut) -> None:
        """Write one subtask's state into ``cut`` and ack it there: the
        one state read of a barrier snapshot and a quiescent
        checkpoint."""
        members = self.graph.nodes[name].members
        for m in members:
            clone = self._clones[m][idx]
            state = clone.state
            if state is not None:
                cut.keyed.setdefault(m, {}).update(
                    state.snapshot_by_group(shuffle.KEY_GROUPS))
            cut.scalar[m][idx] = clone.snapshot()
        cut.acked.add((name, idx))
        if self._data_chaos:
            # This subtask's data-fault counters are exactly at its cut:
            # everything before it is processed, nothing after it is.
            # The checkpoint carries them so a restore rewinds fault
            # windows to the same records.
            counts = self.injector.data_counts()
            for m in members:
                clone = self._clones[m][idx]
                cut.data_counts[clone.name] = counts.get(clone.name, 0)

    def _tick_aligners(self) -> None:
        """Once per macro cycle: aligners still waiting count a pending
        cycle."""
        for aligner in self._aligners.values():
            aligner.on_cycle()

    # -- run loop ------------------------------------------------------------

    def run(self, source_batch: int = 256,
            max_cycles: int | None = None) -> dict[str, TransactionalSink]:
        """Run until sources are exhausted and channels drained (or for
        ``max_cycles`` macro cycles).  With no coordinator attached every
        delivered row is committed, so visible, when this returns."""
        if source_batch < 1:
            # 0 would pull nothing, forever: the loop only ends once
            # the sources are read to their end
            raise JobGraphError(
                f"source_batch must be >= 1, got {source_batch!r}")
        if max_cycles is not None and max_cycles < 1:
            # the loop checks its bound after a cycle, so 0 would run one
            raise JobGraphError(
                f"max_cycles must be >= 1, got {max_cycles!r}")
        if self.tracer is not None:
            self._ensure_spans()
            with self.tracer.activate(self._job_span):
                return self._run_loop(source_batch, max_cycles)
        return self._run_loop(source_batch, max_cycles)

    def _begin_cycle(self) -> None:
        """Macro-cycle prologue: release held channel batches, compute
        the stalled-subtask set, and beat heartbeats for everyone else
        (a stalled subtask is fail-silent: it neither drains nor beats,
        so only the failure detector notices)."""
        self.channels.release_held()
        injector = self.injector
        if injector is not None and getattr(injector, "has_stalls", False):
            self._stalled_now = {
                (name, idx)
                for name in self.graph.topo
                for idx in range(self.graph.nodes[name].parallelism)
                if injector.stall_check(self._ops[name][idx],
                                        subtask_name(name, idx))
            }
        elif self._stalled_now:
            self._stalled_now = set()
        if self._coordinator is not None:
            for name in self.graph.topo:
                for idx in range(self.graph.nodes[name].parallelism):
                    if (name, idx) not in self._stalled_now:
                        self._coordinator.monitor.beat(subtask_name(name, idx))

    def _run_loop(self, source_batch: int,
                  max_cycles: int | None) -> dict[str, TransactionalSink]:
        cycles = 0
        idle = 0
        coordinator = self._coordinator
        while True:
            self._begin_cycle()
            pulled = self._pull_sources(source_batch)
            if coordinator is not None:
                coordinator.on_cycle_start()
            moved = self._drain()
            if coordinator is None:
                # no checkpoint to commit with: the cycle's end commits
                for sink in self.sinks.values():
                    sink.commit_open()
            # gauges refresh every macro cycle: the autoscaler steers
            # a job while it runs
            if self.metrics is not None:
                self._publish_metrics()
            if coordinator is not None:
                coordinator.on_cycle_end()
            cycles += 1
            if self.sources.exhausted and not pulled and moved == 0:
                # Blocked, stalled or held items keep the loop alive:
                # barriers and fault windows resolve with more cycles.
                if not self.channels.pending():
                    break
                idle += 1
                if idle > 100_000:
                    raise CheckpointError(
                        "run loop made no progress for 100000 cycles; "
                        "items are permanently stuck in channels")
            else:
                idle = 0
            if max_cycles is not None and cycles >= max_cycles:
                break
        if self.sources.exhausted and not self.channels.pending():
            self._flush()
            if coordinator is None:
                for sink in self.sinks.values():
                    sink.commit_open()
            self._close_spans()
            self._publish_metrics()
        return self.sinks

    def _flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            for idx in range(node.parallelism):
                out = self._ops[name][idx].flush()
                self._emit(name, idx, out)
                if self._dead_letters:
                    self._emit_dead_letters(name, idx)
                if out:
                    while self._drain_cycle():
                        pass

    @property
    def done(self) -> bool:
        return self._flushed

    # -- counters / introspection ---------------------------------------------

    def logical_counters(self, operator: str) -> tuple[int, int]:
        """(processed, emitted) summed across an operator's subtasks."""
        clones = self._clones[operator]
        return (sum(c.processed for c in clones),
                sum(c.emitted for c in clones))

    def lane_items(self) -> list[int]:
        """Items processed per worker lane: ``processed`` summed over the
        operator clones at each subtask index (sources are not counted).
        The counts are checkpointed and the same in both execution
        modes, so ``sum / max`` is an exact, repeatable measure of how
        far the plan overlaps its work."""
        lanes = [0] * self.graph.max_parallelism()
        for clones in self._clones.values():
            for idx, clone in enumerate(clones):
                lanes[idx] += clone.processed
        return lanes

    def subtask_operators(self, operator: str) -> list[Operator]:
        """The per-subtask clones of one logical operator."""
        return list(self._clones[operator])

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self) -> ParallelCheckpoint:
        """Aligned snapshot of a quiescent executor — a cut taken in one
        pass, through the barrier snapshot's state read: keyed state by
        key group, sources by split, sink contents in full (so a restore
        into a *fresh* executor — the rescaling path — reproduces the
        run exactly)."""
        if self.channels.pending():
            raise CheckpointError("cannot checkpoint with items in flight; "
                                  "call run() or drain first")
        self._checkpoint_seq += 1
        cut = Cut(self._checkpoint_seq, self.graph, self.sources, self.sinks)
        for name in self.graph.topo:
            for idx in range(self.graph.nodes[name].parallelism):
                self._read_state(name, idx, cut)
        routing = self.channels.routing_snapshot()
        cut.channel_wm = routing["channel_wm"]
        cut.aligned_wm = routing["aligned_wm"]
        cut.rr = self._rr
        snapshot = cut.checkpoint({s: list(buf.batches)
                                   for s, buf in self.sinks.items()})
        if self.metrics is not None:
            self.metrics.counter("executor.checkpoints").inc()
        if self._job_span is not None:
            self._job_span.add_event("checkpoint",
                                     checkpoint_id=snapshot.checkpoint_id)
        return snapshot

    def restore(self, checkpoint: ParallelCheckpoint,
                region: set[str] | None = None) -> int:
        """Rewind to a snapshot: the whole plan, or only ``region``.

        ``region=None`` rewinds everything and accepts a snapshot taken
        at another parallelism (*rescaling*): key groups and splits are
        reassigned to the new subtask ranges and scalar state merges
        conservatively (see ``Operator.restore``).  At unchanged
        parallelism the restore is exact, routing state included.

        A ``region`` (an execution-node/source/sink set from
        :func:`~repro.streaming.coordinator.failover_region_of`) is
        partial recovery: every subtask, channel and position outside
        it is left untouched, and so are the data-fault counters and
        pending dead letters, which span regions.  It is a restart, not
        a rescale — the region must run at the snapshot's parallelism.

        Returns how many source elements the rewind will re-read, which
        for a region counts only its own sources — what makes partial
        recovery cheaper.
        """
        if checkpoint.num_key_groups != shuffle.KEY_GROUPS:
            raise CheckpointError(
                f"snapshot has {checkpoint.num_key_groups} key groups, "
                f"this plan {shuffle.KEY_GROUPS}; key-group counts are "
                "fixed for a job's lifetime")
        whole = region is None
        if region is None:
            region = {*self.graph.nodes, *self.job.sources, *self.sinks}
        for name in checkpoint.source_positions:
            if name not in self.job.sources:
                raise CheckpointError(
                    f"snapshot references unknown source {name!r}")
            if name in region and checkpoint.num_splits[name] \
                    != self.graph.source_splits[name]:
                raise CheckpointError(
                    f"source {name!r}: snapshot has "
                    f"{checkpoint.num_splits[name]} splits, this plan "
                    f"{self.graph.source_splits[name]}; pin "
                    "SourceSpec.splits to rescale")
        operators = [m for m in self.job.operators
                     if self.graph.rename[m] in region]
        for m in operators:
            if m not in checkpoint.scalar_state:
                raise CheckpointError(
                    f"snapshot missing operator {m!r}")
            if not whole and checkpoint.parallelism.get(m) \
                    != len(self._clones[m]):
                raise CheckpointError(
                    f"regional restore needs matching parallelism for "
                    f"{m!r}; restore the whole plan to rescale")
        # Routing state is exact only for the plan shape it was cut
        # from; a rescaled plan starts its watermarks and cursors over.
        routing = checkpoint.routing_state or {}
        if whole and not self.channels.same_shape(routing):
            routing = {}
        sources = [n for n in self.job.sources if n in region]
        replayed = self.sources.rewind(sources, checkpoint.source_positions)
        self.sources.apply_shed_state(checkpoint.shed_state, sources)
        for m in operators:
            clones = self._clones[m]
            exact = checkpoint.parallelism[m] == len(clones)
            groups = checkpoint.keyed_state.get(m, {})
            scalars = checkpoint.scalar_state[m]
            for i, clone in enumerate(clones):
                state = clone.state
                if state is not None:
                    state.restore_groups(
                        groups[kg] for kg in key_group_range(
                            shuffle.KEY_GROUPS, len(clones), i)
                        if kg in groups)
                clone.restore([scalars[i]] if exact else list(scalars),
                              primary=exact or i == 0, exact=exact)
        for name, buf in self.sinks.items():
            if name in region:  # truncates open transactions too
                buf.restore_elements(checkpoint.sink_elements.get(name, ()))
        self.channels.reset(region, routing)
        rebalanced = {self.graph.edge_id(edge): i
                      for i, edge in enumerate(self.graph.edges)
                      if edge.mode == REBALANCE and edge.up in region}
        self._rr = {
            **{k: v for k, v in self._rr.items()
               if k[0] not in rebalanced.values()},
            **{(rebalanced[e], i): v
               for (e, i), v in routing.get("rr", {}).items()
               if e in rebalanced}}
        if whole:
            if self._data_chaos:
                # Data-fault windows name records, not wall-clock
                # events: rewinding the counters makes replay re-poison
                # exactly the records the lost epoch poisoned, so
                # committed output stays identical to a crash-free run
                # under the same data faults.
                self.injector.restore_data_counts(checkpoint.data_counts)
            self._dead_letters.clear()
        self._flushed = False
        if self._coordinator is not None:
            self._coordinator.on_executor_restored()
        for (name, idx), aligner in self._aligners.items():
            if name in region:
                aligner.reset()
                if self._coordinator is not None:
                    self._coordinator.monitor.reset(subtask_name(name, idx))
        if self.metrics is not None:
            self.metrics.counter("executor.restores" if whole else
                                 "executor.regional_restores").inc()
        if self._job_span is not None:
            if whole:
                self._job_span.add_event(
                    "restore", checkpoint_id=checkpoint.checkpoint_id)
            else:
                self._job_span.add_event(
                    "restore.regional",
                    checkpoint_id=checkpoint.checkpoint_id,
                    region=",".join(sorted(region)))
        return replayed

    # -- observability ---------------------------------------------------------

    def _ensure_spans(self) -> None:
        """Job span -> logical operator spans -> per-subtask child spans
        (only when parallelism > 1), so a parallel trace nests physical
        structure under the logical graph the other suites assert on."""
        if self.tracer is None or self._job_span is not None:
            return
        self._job_span = self.tracer.start_span(
            f"job:{self.job.name}",
            attrs={"mode": "chained" if self.batch_mode else "per_item",
                   "max_parallelism": self.graph.max_parallelism()})
        for name in sorted(self.job.sources):
            span = self.tracer.start_span(
                f"source:{name}", parent=self._job_span,
                attrs={"parallelism":
                       self.graph.source_parallelism[name]})
            self._obs_spans[f"source:{name}"] = span
        for name in self.job.topological_operators():
            width = len(self._clones[name])
            span = self.tracer.start_span(
                f"op:{name}", parent=self._job_span,
                attrs={"parallelism": width})
            self._obs_spans[f"op:{name}"] = span
            if width > 1:
                for i in range(width):
                    self._obs_spans[f"op:{name}[{i}]"] = \
                        self.tracer.start_span(f"op:{name}[{i}]",
                                               parent=span,
                                               attrs={"subtask": i})
        for name in sorted(self.job.sinks):
            self._obs_spans[f"sink:{name}"] = self.tracer.start_span(
                f"sink:{name}", parent=self._job_span)

    def _close_spans(self) -> None:
        if self._job_span is None:
            return
        for name in self.job.sources:
            span = self._obs_spans[f"source:{name}"]
            span.set_attr("records", self.sources.records(name))
            span.end()
        for name in self.job.operators:
            width = len(self._clones[name])
            if width > 1:
                for i, clone in enumerate(self._clones[name]):
                    sub = self._obs_spans[f"op:{name}[{i}]"]
                    sub.set_attr("processed", clone.processed)
                    sub.set_attr("emitted", clone.emitted)
                    sub.end()
            processed, emitted = self.logical_counters(name)
            span = self._obs_spans[f"op:{name}"]
            span.set_attr("processed", processed)
            span.set_attr("emitted", emitted)
            span.end()
        for name, buf in self.sinks.items():
            span = self._obs_spans[f"sink:{name}"]
            span.set_attr("delivered", len(buf))
            span.end()
        self._job_span.set_attr("backpressure_events",
                                self.backpressure_events)
        self._job_span.end()

    def _publish_metrics(self) -> None:
        """Publish executor/operator/sink gauges.  Called every macro
        cycle (live refresh) and at end-of-run; handles are cached so
        the per-cycle cost is attribute sets, not label rendering."""
        if self.metrics is None:
            return
        cache = self._gauge_cache
        if cache is None:
            m = self.metrics
            cache = self._gauge_cache = {
                "backpressure": m.gauge("executor.backpressure_events"),
                "shed": m.gauge("executor.shed_elements"),
                "ops": [
                    (m.gauge("op.processed", op=name),
                     m.gauge("op.emitted", op=name),
                     [(clone, m.gauge("subtask.processed", op=clone.name))
                      for clone in self._clones[name]])
                    for name in self.job.operators
                ],
                "sinks": [
                    (name, buf, m.gauge("sink.size", sink=name),
                     m.gauge("sink.watermark_lag_s", sink=name))
                    for name, buf in self.sinks.items()
                ],
            }
        cache["backpressure"].set(self.backpressure_events)
        cache["shed"].set(self.shed_elements)
        for g_processed, g_emitted, clones in cache["ops"]:
            processed = emitted = 0
            for clone, g_sub in clones:
                g_sub.set(clone.processed)
                processed += clone.processed
                emitted += clone.emitted
            g_processed.set(processed)
            g_emitted.set(emitted)
        frontier = self.sources.frontier
        for name, buf, g_size, g_lag in cache["sinks"]:
            g_size.set(len(buf))
            last = self._sink_frontier.get(name)
            if last is not None and frontier > float("-inf"):
                g_lag.set(max(0.0, frontier - last))
