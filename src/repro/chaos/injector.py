"""The fault injector: counted hooks + the chaos log-cluster wrapper.

:class:`FaultInjector` owns a :class:`~repro.chaos.plan.FaultPlan` and a
set of monotonically increasing occurrence counters, one per (site,
identity).  Production code passes through the hooks; when a counter
enters a scheduled spec's window the injector fires — raising the
injected failure or returning a corruption directive — and records a
:class:`~repro.chaos.plan.FaultEvent` in ``trace``.  Counters live for
the injector's lifetime (not per run), so a crash-and-restore replay
does not re-trigger the same fault: the schedule moves strictly
forward, exactly like real time does.

Injected failures reuse the production exception types
(:class:`BrokerDown`, :class:`OperatorCrash`, :class:`TaskTimeout`,
:class:`TierDropout`) so recovery code cannot special-case chaos.

:class:`ChaosLogCluster` wraps a :class:`~repro.eventlog.broker.LogCluster`
and threads the data plane through the injector: append unavailability
windows, torn appends (applied but unacknowledged), real broker
outages with leader failover, and duplicate delivery on fetch.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Mapping

from ..eventlog.broker import LogCluster
from ..eventlog.record import Record
from ..streaming.batch import RecordBatch, items_weight, take_prefix
from ..streaming.element import Element, StreamItem
from ..streaming.operators import Operator, logical_name
from ..util.errors import (
    BrokerDown,
    CoordinatorDown,
    OperatorCrash,
    TaskTimeout,
    TierDropout,
)
from .plan import (
    SITE_APPEND,
    SITE_BARRIER,
    SITE_CHANNEL,
    SITE_CHECKPOINT,
    SITE_COORDINATOR,
    SITE_DATA,
    SITE_FETCH,
    SITE_OFFLOAD,
    SITE_OPERATOR,
    SITE_RESCALE,
    SITE_STALL,
    SITE_STORE,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)

__all__ = ["FaultInjector", "ChaosLogCluster"]


class FaultInjector:
    """Executes a fault plan against counted injection sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.trace: list[FaultEvent] = []
        self._counts: dict[tuple[str, str | None], int] = {}
        self._armed: list[FaultSpec] = list(plan.specs)
        #: broker_down specs progress through pending -> failed -> done
        self._broker_stage: dict[int, str] = {
            i: "pending" for i, s in enumerate(plan.specs)
            if s.kind == "broker_down"
        }
        #: cheap feature flags the executor checks on the hot path so
        #: plans without channel/stall faults pay nothing per batch
        self.has_channel_faults = any(
            s.site == SITE_CHANNEL for s in plan.specs)
        self.has_stalls = any(
            s.kind == "subtask_stall" for s in plan.specs)
        self.has_data_faults = any(
            s.site == SITE_DATA for s in plan.specs)
        #: stall specs that already logged their window-entry event
        self._stalls_fired: set[int] = set()

    # -- bookkeeping ---------------------------------------------------------

    def count(self, site: str, identity: str | None = None) -> int:
        """Current occurrence count for a (site, identity) counter."""
        return self._counts.get((site, identity), 0)

    def trace_tuples(self) -> list[tuple]:
        """The fired-fault trace in comparable form (for reproducibility
        assertions: same seed, same trace)."""
        return [e.as_tuple() for e in self.trace]

    def _fire(self, spec: FaultSpec, identity: str, occurrence: int,
              detail: str = "") -> None:
        self.trace.append(FaultEvent(kind=spec.kind, site=spec.site,
                                     identity=identity,
                                     occurrence=occurrence, detail=detail))
        if spec.one_shot():
            self._armed.remove(spec)

    def _advance(self, site: str,
                 idents: Iterable[str | None]) -> dict[str | None, int]:
        """Increment every identity counter for one site call; returns
        the pre-increment occurrence indices."""
        before: dict[str | None, int] = {}
        for ident in idents:
            key = (site, ident)
            before[ident] = self._counts.get(key, 0)
            self._counts[key] = before[ident] + 1
        return before

    def _matching(self, site: str, kind: str,
                  before: dict[str | None, int]) -> FaultSpec | None:
        """First armed window spec of ``kind`` whose target counter sits
        inside [at, end) for this call."""
        for spec in self._armed:
            if spec.site != site or spec.kind != kind:
                continue
            if spec.target not in before:
                continue
            occurrence = before[spec.target]
            if spec.at <= occurrence < spec.end:
                return spec
        return None

    # -- streaming operator site --------------------------------------------

    @staticmethod
    def _member_names(op: Operator) -> set[str]:
        """The identities a spec may target to hit ``op``: its name and
        its members' (an execution subtask is a chain of one or more),
        each also by its logical name — a spec targeting a logical
        operator matches any of its subtask clones, ``"name[i]"`` pins
        one (the occurrence counters stay per clone either way: they key
        on the physical ``op.name``)."""
        names = {op.name, *(m.name for m in getattr(op, "operators", ()))}
        return names | {logical_name(name) for name in names}

    def _crash_candidates(self, idents: set[str],
                          below: int) -> list[FaultSpec]:
        return [s for s in self._armed
                if s.site == SITE_OPERATOR and s.kind == "operator_crash"
                and (s.target is None or s.target in idents)
                and s.at < below]

    def intercept_batch(self, op: Operator, items: Iterable[StreamItem],
                        process: Callable[[list[StreamItem]],
                                          list[StreamItem]],
                        ) -> list[StreamItem]:
        """Run ``process`` over a batch, possibly crashing mid-batch.

        The occurrence counter is per execution node and counts stream
        items *entering* the node (chain targets count items entering
        the chain).  A crash scheduled at index ``at`` processes the
        prefix for real — mutating operator state — then raises
        :class:`OperatorCrash`; the partial outputs are lost in flight,
        exactly like a process dying between state update and emit.
        """
        items = list(items)
        total = items_weight(items)
        key = (SITE_OPERATOR, op.name)
        c = self._counts.get(key, 0)
        candidates = self._crash_candidates(self._member_names(op),
                                            below=c + total)
        if candidates:
            spec = min(candidates, key=lambda s: s.at)
            k = max(0, spec.at - c)
            self._counts[key] = c + k
            if k:
                process(take_prefix(items, k))  # partial progress; lost
            self._fire(spec, identity=op.name, occurrence=max(c, spec.at),
                       detail=f"mid-batch k={k}/{total}")
            raise OperatorCrash(
                f"injected crash in {op.name!r} at item index "
                f"{max(c, spec.at)}", op_name=op.name)
        self._counts[key] = c + total
        return process(items)

    def before_item(self, op: Operator) -> None:
        """Per-item twin of :meth:`intercept_batch`: called before each
        item is dispatched in per-item execution mode."""
        key = (SITE_OPERATOR, op.name)
        c = self._counts.get(key, 0)
        candidates = self._crash_candidates(self._member_names(op),
                                            below=c + 1)
        if candidates:
            spec = min(candidates, key=lambda s: s.at)
            self._fire(spec, identity=op.name, occurrence=c,
                       detail="per-item")
            raise OperatorCrash(
                f"injected crash in {op.name!r} at item index {c}",
                op_name=op.name)
        self._counts[key] = c + 1

    # -- data-fault site -----------------------------------------------------

    def data_directives(self, op: Operator, items: Iterable[StreamItem],
                        ) -> dict[int, tuple[str, Any, str]] | None:
        """Hook on each batch of items entering one (member) operator.

        Returns ``{element offset within this call: (kind, param,
        detail)}`` for records a :data:`~repro.chaos.plan.SITE_DATA`
        spec poisons, or ``None`` for a clean batch.  The counter is per
        physical operator clone and counts *elements* (a columnar batch
        advances it by its row count; watermarks and markers weigh
        nothing), so per-item and batched execution poison the same
        records.  Chains call this once per member, so
        a fault targeting a fused operator lands on that member's input
        exactly as it would unfused.

        Unlike crash counters, data counters rewind with checkpoints
        (see :meth:`data_counts` / :meth:`restore_data_counts`): a fault
        window names *records*, not wall-clock occurrences, so replay
        after a crash must re-poison the same records — that is what
        keeps committed output identical to a crash-free run under the
        same data faults.
        """
        key = (SITE_DATA, op.name)
        c = self._counts.get(key, 0)
        total = 0
        for item in items:
            if type(item) is RecordBatch:
                total += len(item)
            elif isinstance(item, Element):
                total += 1
        self._counts[key] = c + total
        if total == 0:
            return None
        idents = self._member_names(op)
        directives: dict[int, tuple[str, Any, str]] = {}
        for spec in self._armed:
            if spec.site != SITE_DATA:
                continue
            if spec.target is not None and spec.target not in idents:
                continue
            lo = max(spec.at, c)
            hi = min(spec.end, c + total)
            for occurrence in range(lo, hi):
                local = occurrence - c
                if local in directives:
                    continue
                detail = (f"injected {spec.kind} in {op.name!r} at "
                          f"element {occurrence}")
                directives[local] = (spec.kind, spec.param, detail)
                self._fire(spec, identity=op.name,
                           occurrence=occurrence, detail=detail)
        return directives or None

    def data_counts(self) -> dict[str, int]:
        """The data-site counters, for inclusion in a checkpoint."""
        return {ident: count
                for (site, ident), count in self._counts.items()
                if site == SITE_DATA and ident is not None}

    def restore_data_counts(self, counts: dict[str, int]) -> None:
        """Rewind the data-site counters to a checkpoint's cut."""
        for key in [k for k in self._counts if k[0] == SITE_DATA]:
            del self._counts[key]
        for ident, count in counts.items():
            self._counts[(SITE_DATA, ident)] = count

    # -- checkpoint-storage site ---------------------------------------------

    def after_finalize(self, store: Any, checkpoint_id: int) -> None:
        """Hook after the coordinator's atomic commit of a checkpoint.
        A ``checkpoint_corruption`` spec silently damages the *stored*
        checkpoint — payload or manifest per ``param`` — leaving
        detection to the store's verification at restore time."""
        before = self._advance(SITE_CHECKPOINT, (None,))
        spec = self._matching(SITE_CHECKPOINT, "checkpoint_corruption",
                              before)
        if spec is not None:
            mode = spec.param if spec.param is not None else "payload"
            self._fire(spec, identity="store",
                       occurrence=before[spec.target],
                       detail=f"checkpoint {checkpoint_id} {mode}")
            store.corrupt(checkpoint_id, str(mode))

    # -- checkpoint-protocol sites -------------------------------------------

    def on_channel_offer(self, down: str, idx: int, up: str,
                         up_idx: int) -> dict[str, Any]:
        """Hook on each batch offered onto a physical channel.  Returns
        network-fault directives for the executor to apply:

        ``reorder``    reverse the batch before enqueueing
        ``duplicate``  re-deliver the last *n* items after the batch
        ``hold``       withhold the batch for *n* drain cycles (delay
                       and partition are both modelled as holds —
                       a partition is just a longer outage window)
        """
        before = self._advance(SITE_CHANNEL, (
            None, down, f"{up}->{down}", f"{down}[{idx}]<-{up}[{up_idx}]"))
        directives: dict[str, Any] = {}
        spec = self._matching(SITE_CHANNEL, "channel_reorder", before)
        if spec is not None:
            self._fire(spec, identity=spec.target or "*",
                       occurrence=before[spec.target],
                       detail=f"reorder {up}[{up_idx}]->{down}[{idx}]")
            directives["reorder"] = True
        spec = self._matching(SITE_CHANNEL, "channel_duplicate", before)
        if spec is not None:
            depth = spec.param if spec.param is not None else 1
            self._fire(spec, identity=spec.target or "*",
                       occurrence=before[spec.target],
                       detail=f"dup {depth} {up}[{up_idx}]->{down}[{idx}]")
            directives["duplicate"] = depth
        for kind, stretch in (("channel_delay", 1), ("channel_partition", 2)):
            spec = self._matching(SITE_CHANNEL, kind, before)
            if spec is not None:
                cycles = (spec.param if spec.param is not None
                          else 1) * stretch
                self._fire(spec, identity=spec.target or "*",
                           occurrence=before[spec.target],
                           detail=f"hold {cycles} "
                                  f"{up}[{up_idx}]->{down}[{idx}]")
                directives["hold"] = max(directives.get("hold", 0), cycles)
        return directives

    def stall_check(self, op: Operator, subtask: str) -> bool:
        """Hook once per macro cycle per subtask: is it fail-silent
        right now?  A stalled subtask neither drains its channels nor
        heartbeats, so only the coordinator's failure detector — not the
        data plane — can notice it."""
        idents = self._member_names(op) | {subtask,
                                           logical_name(subtask)}
        before = self._advance(SITE_STALL, [None, *sorted(idents)])
        spec = self._matching(SITE_STALL, "subtask_stall", before)
        if spec is None:
            return False
        marker = self.plan.specs.index(spec)
        if marker not in self._stalls_fired:
            self._stalls_fired.add(marker)
            self._fire(spec, identity=subtask,
                       occurrence=before[spec.target],
                       detail=f"stall window x{spec.count}")
        return True

    def before_snapshot(self, op: Operator, subtask: str,
                        checkpoint_id: int) -> None:
        """Hook before a subtask snapshots on barrier passage.  The
        occurrence counter counts snapshots taken per subtask; a
        ``barrier_crash`` kills the subtask at the worst possible
        moment — mid-checkpoint, after alignment."""
        idents = self._member_names(op) | {subtask,
                                           logical_name(subtask)}
        before = self._advance(SITE_BARRIER, [None, *sorted(idents)])
        spec = self._matching(SITE_BARRIER, "barrier_crash", before)
        if spec is not None:
            self._fire(spec, identity=subtask,
                       occurrence=before[spec.target],
                       detail=f"checkpoint {checkpoint_id}")
            raise OperatorCrash(
                f"injected crash in {subtask!r} while snapshotting "
                f"checkpoint {checkpoint_id}", op_name=subtask)

    def before_finalize(self, checkpoint_id: int) -> None:
        """Hook before the coordinator finalizes a checkpoint.  A
        ``coordinator_crash`` here abandons the pending checkpoint:
        the store never flips the manifest, sinks abort their sealed
        transactions, and a rebuilt coordinator resumes from the last
        finalized checkpoint."""
        before = self._advance(SITE_COORDINATOR, (None,))
        spec = self._matching(SITE_COORDINATOR, "coordinator_crash", before)
        if spec is not None:
            self._fire(spec, identity="coordinator",
                       occurrence=before[spec.target],
                       detail=f"checkpoint {checkpoint_id}")
            raise CoordinatorDown(
                f"injected coordinator crash before finalizing "
                f"checkpoint {checkpoint_id}")

    def before_rescale(self, phase: str) -> None:
        """Hook at each phase entry of a supervisor reshape — a live
        rescale, handoff or failover (see
        :data:`~repro.chaos.plan.RESCALE_PHASES`).  The counters are per
        phase plus a global one, so a plan can kill the supervisor "on
        the second savepoint" or "on any third phase entry".  A
        ``rescale_crash`` raises :class:`OperatorCrash` with
        ``op_name=None`` — the supervisor recovers the *old* executor
        from the last finalized checkpoint and the reshape retries, the
        same way a real control plane restarts after dying mid-scale."""
        before = self._advance(SITE_RESCALE, (None, phase))
        spec = self._matching(SITE_RESCALE, "rescale_crash", before)
        if spec is not None:
            self._fire(spec, identity=f"rescale:{phase}",
                       occurrence=before[spec.target],
                       detail=f"phase {phase}")
            raise OperatorCrash(
                f"injected supervisor crash during rescale phase "
                f"{phase!r}", op_name=None)

    def before_store_phase(self, phase: str) -> None:
        """Hook at each phase of a serving-store epoch apply (see
        :data:`~repro.chaos.plan.STORE_PHASES`).  Counters run per phase
        plus a global one, so a plan can
        kill the store "on the second apply" or "during any compaction".
        A ``store_crash`` raises :class:`OperatorCrash` with
        ``op_name=None`` — the harness restores the whole job from the
        last finalized checkpoint, and because the store only installs
        an epoch atomically (stage off to the side, swap in one step),
        the re-driven commit stream applies exactly the missing delta."""
        before = self._advance(SITE_STORE, (None, phase))
        spec = self._matching(SITE_STORE, "store_crash", before)
        if spec is not None:
            self._fire(spec, identity=f"store:{phase}",
                       occurrence=before[spec.target],
                       detail=f"phase {phase}")
            raise OperatorCrash(
                f"injected store crash during {phase!r}", op_name=None)

    # -- eventlog sites ------------------------------------------------------

    @staticmethod
    def _log_idents(topic: str, partition: int) -> tuple[str | None, ...]:
        return (None, topic, f"{topic}[{partition}]")

    def before_append(self, cluster: LogCluster, topic: str,
                      partition: int) -> dict[str, Any]:
        """Hook before an append attempt.  May fail/recover brokers,
        raise :class:`BrokerDown` (unavailability window), or direct the
        caller to tear the append (apply it, then lose the ack)."""
        before = self._advance(SITE_APPEND, self._log_idents(topic,
                                                             partition))
        self._run_broker_events(cluster, before)
        window = self._matching(SITE_APPEND, "partition_unavailable", before)
        if window is not None:
            self._fire(window, identity=window.target or "*",
                       occurrence=before[window.target],
                       detail=f"append {topic}[{partition}]")
            raise BrokerDown(
                f"injected: {topic}[{partition}] unavailable for appends")
        directives: dict[str, Any] = {}
        for spec in list(self._armed):
            if (spec.site == SITE_APPEND and spec.kind == "torn_append"
                    and spec.target in before
                    and before[spec.target] >= spec.at):
                self._fire(spec, identity=spec.target or "*",
                           occurrence=before[spec.target],
                           detail=f"torn {topic}[{partition}]")
                directives["torn"] = True
                break
        return directives

    def _run_broker_events(self, cluster: LogCluster,
                           before: dict[str | None, int]) -> None:
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != "broker_down" or spec.target not in before:
                continue
            stage = self._broker_stage[i]
            occurrence = before[spec.target]
            if stage == "pending" and occurrence >= spec.at:
                cluster.fail_broker(spec.param)
                self._broker_stage[i] = "failed"
                self.trace.append(FaultEvent(
                    kind="broker_down", site=SITE_APPEND,
                    identity=f"broker:{spec.param}", occurrence=occurrence,
                    detail="fail"))
                stage = "failed"
            if stage == "failed" and occurrence >= spec.end:
                cluster.recover_broker(spec.param)
                self._broker_stage[i] = "done"
                self.trace.append(FaultEvent(
                    kind="broker_down", site=SITE_APPEND,
                    identity=f"broker:{spec.param}", occurrence=occurrence,
                    detail="recover"))

    def finish_broker_events(self, cluster: LogCluster) -> None:
        """Recover every broker still failed by an outage spec — the
        chaos analogue of 'the ops team eventually shows up'.  Call when
        the workload that advances the append counter has ended."""
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "broker_down" and \
                    self._broker_stage.get(i) == "failed":
                cluster.recover_broker(spec.param)
                self._broker_stage[i] = "done"
                self.trace.append(FaultEvent(
                    kind="broker_down", site=SITE_APPEND,
                    identity=f"broker:{spec.param}",
                    occurrence=self.count(SITE_APPEND), detail="recover"))

    def before_fetch(self, topic: str, partition: int) -> int:
        """Hook before a fetch.  May raise :class:`BrokerDown` or return
        a rewind depth to re-serve already-delivered records (duplicate
        delivery, the at-least-once failure mode consumers must absorb)."""
        before = self._advance(SITE_FETCH, self._log_idents(topic,
                                                            partition))
        window = self._matching(SITE_FETCH, "partition_unavailable", before)
        if window is not None:
            self._fire(window, identity=window.target or "*",
                       occurrence=before[window.target],
                       detail=f"fetch {topic}[{partition}]")
            raise BrokerDown(
                f"injected: {topic}[{partition}] unavailable for fetch")
        dup = self._matching(SITE_FETCH, "duplicate_delivery", before)
        if dup is not None:
            rewind = dup.param if dup.param is not None else 1
            self._fire(dup, identity=dup.target or "*",
                       occurrence=before[dup.target],
                       detail=f"rewind {rewind} on {topic}[{partition}]")
            return rewind
        return 0

    # -- offload site --------------------------------------------------------

    def before_offload(self, pipeline: str, tier: str) -> None:
        """Hook before executing a remotely-placed task attempt."""
        before = self._advance(SITE_OFFLOAD, (None, pipeline, tier))
        timeout = self._matching(SITE_OFFLOAD, "task_timeout", before)
        if timeout is not None:
            self._fire(timeout, identity=timeout.target or "*",
                       occurrence=before[timeout.target],
                       detail=f"{pipeline}@{tier}")
            raise TaskTimeout(
                f"injected: task {pipeline!r} timed out on {tier!r}")
        dropout = self._matching(SITE_OFFLOAD, "tier_dropout", before)
        if dropout is not None:
            self._fire(dropout, identity=dropout.target or "*",
                       occurrence=before[dropout.target],
                       detail=f"{pipeline}@{tier}")
            raise TierDropout(
                f"injected: tier {tier!r} dropped mid-task {pipeline!r}")


class ChaosLogCluster:
    """A :class:`LogCluster` proxy that routes the data plane through a
    :class:`FaultInjector`.

    Producers and consumers take it anywhere a cluster is expected
    (attribute access delegates), so the production retry/idempotence
    machinery is exercised unmodified.

    Every ``append*`` / ``read*`` method of :class:`LogCluster` must be
    defined here: ``__getattr__`` forwards whatever is not, and a
    forwarded data-plane call is one no fault plan can reach
    (``tests/unit/test_source_lint.py`` checks the names).
    """

    def __init__(self, cluster: LogCluster, injector: FaultInjector) -> None:
        self._cluster = cluster
        self._injector = injector

    @property
    def cluster(self) -> LogCluster:
        return self._cluster

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cluster, name)

    def _after_append(self, directives: dict[str, Any], topic: str,
                      partition: int, offset: int) -> int:
        if directives.get("torn"):
            # The record is durably appended, but the acknowledgement is
            # lost — the ambiguous failure idempotent retry exists for.
            raise BrokerDown(
                f"injected: ack lost for {topic}[{partition}]@{offset} "
                "(append applied)")
        return offset

    def append_row(self, topic: str, partition: int, value: Any,
                   key: str | None, timestamp: float,
                   headers: Mapping[str, str] | None) -> int:
        directives = self._injector.before_append(self._cluster, topic,
                                                  partition)
        offset = self._cluster.append_row(topic, partition, value, key,
                                          timestamp, headers)
        return self._after_append(directives, topic, partition, offset)

    def appenders(self, topic: str) -> tuple[tuple[Callable[..., int]], ...]:
        """One writer per partition, each a whole :meth:`append_row` —
        faults, broker events and leader lookup included — so a
        producer's resolved writers reach every fault a plain
        ``append_row`` would, and stay valid whatever the faults do."""
        return tuple((partial(self.append_row, topic, p),)
                     for p in range(self._cluster.partition_count(topic)))

    def append(self, topic: str, partition: int, record: Record) -> int:
        directives = self._injector.before_append(self._cluster, topic,
                                                  partition)
        offset = self._cluster.append(topic, partition, record)
        return self._after_append(directives, topic, partition, offset)

    def append_idempotent(self, topic: str, partition: int, record: Record,
                          producer_id: int, sequence: int,
                          epoch: int = 0) -> int:
        directives = self._injector.before_append(self._cluster, topic,
                                                  partition)
        offset = self._cluster.append_idempotent(
            topic, partition, record, producer_id, sequence, epoch=epoch)
        return self._after_append(directives, topic, partition, offset)

    def _fetch_offset(self, topic: str, partition: int, offset: int) -> int:
        """Run the fetch-side faults; returns where to read from (a
        duplicate-delivery rewind moves it back)."""
        rewind = self._injector.before_fetch(topic, partition)
        if rewind:
            offset = max(0, offset - rewind)
        return offset

    def read(self, topic: str, partition: int, offset: int,
             max_records: int = 512):
        offset = self._fetch_offset(topic, partition, offset)
        return self._cluster.read(topic, partition, offset, max_records)

    def read_columns(self, topic: str, partition: int, offset: int,
                     max_records: int = 512, headers: bool = False):
        offset = self._fetch_offset(topic, partition, offset)
        return self._cluster.read_columns(topic, partition, offset,
                                          max_records, headers)

    def settle(self) -> None:
        """Finish any in-flight broker outages (recover failed brokers)."""
        self._injector.finish_broker_events(self._cluster)
