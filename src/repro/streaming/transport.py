"""Transport: the bounded channels between subtasks.

Every non-sink edge of the physical plan becomes one :class:`Channel`
per (receiver subtask, sender subtask): a FIFO with the sender's
last watermark and the sequence numbers of the reliable-transport
protocol.  :class:`Channels` builds them from the plan and is the only
code that queues, counts, sequences, aligns and resets what is in
flight.

A channel never drops an item.  ``backpressure_events`` counts, per
*item* in both execution modes (a batch weighs its rows plus the
watermarks it carries), what arrived over :data:`CHANNEL_CAPACITY`;
past ten times that the offer raises :class:`~repro.util.errors.BackpressureOverflow`
— the memory bound.  Chaining removes the channels between fused
operators, so a chained run observes backpressure only at chain
boundaries.  Nothing is shed: a job that cannot keep up is rescaled by
the autoscaler, or fails at the memory bound.

A subtask's input is the union of every channel into it, whichever
upstream node sends on it.  Multi-channel inputs align watermarks per
channel (the minimum across channels is forwarded — Flink's watermark
valve), so a keyed subtask never advances event time past its slowest
upstream.

Channels are *reliable transport over an unreliable network*: with a
fault injector that carries channel faults every offer becomes a
sequence-numbered packet, and the receiver reassembles in order,
dropping replays — so delay, partition, duplication and reordering are
all masked (TCP-style) while the protocol underneath genuinely
experiences them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable

import numpy as np

from ..util.errors import BackpressureOverflow
from .batch import (
    RecordBatch,
    decode_items,
    explode_items,
    items_weight,
    take_prefix,
)
from .element import StreamItem, Watermark
from .plan import FORWARD, MERGE, ExecutionGraph

__all__ = ["CHANNEL_CAPACITY", "Channel", "Channels"]

#: items one channel holds before an offer counts backpressure (ten
#: times this raises); read at call time, so a test can rebind it
CHANNEL_CAPACITY = 10_000

#: (receiver node, receiver subtask) — one subtask input
InputKey = tuple[str, int]
#: (sender node, sender subtask)
Sender = tuple[str, int]


@dataclass(slots=True)
class Channel:
    """One bounded FIFO from a sender subtask into a receiver input."""

    queue: deque
    #: newest watermark this sender delivered (alignment input)
    watermark: float = float("-inf")
    #: reliable transport: packets sent / delivered in order so far
    send_seq: int = 0
    recv_seq: int = 0
    #: packets that arrived ahead of ``recv_seq``: seq -> items
    ooo: dict[int, list] | None = None

    def take(self) -> deque:
        """Everything queued, leaving the channel empty."""
        pending, self.queue = self.queue, deque()
        return pending


class Channels:
    """Every channel of one physical plan."""

    def __init__(self, graph: ExecutionGraph, *, batch_mode: bool,
                 injector: Any = None, metrics: Any = None) -> None:
        self._graph = graph
        self.batch_mode = batch_mode
        self.injector = injector
        self.metrics = metrics
        self.backpressure_events = 0
        #: macro cycles elapsed — the clock faulted packets are held on
        self._cycle = 0
        #: in-flight faulted packets: (release_cycle, key, sender, seq, items)
        self._on_hold: list[tuple[int, InputKey, Sender, int, list]] = []
        self._inputs: dict[InputKey, dict[Sender, Channel]] = {}
        #: subtask input -> its channels by sender, for reading
        self.inputs = MappingProxyType(self._inputs)
        #: input -> last aligned watermark delivered
        self._aligned: dict[InputKey, float] = {}
        for edge in graph.edges:
            if edge.mode == MERGE:
                continue
            p_up = graph.width(edge.up)
            for j in range(graph.width(edge.down)):
                key = (edge.down, j)
                senders = self._inputs.setdefault(key, {})
                self._aligned.setdefault(key, float("-inf"))
                # forward: one sender; hash / rebalance: every upstream
                # subtask connects
                for i in ((j,) if edge.mode == FORWARD else range(p_up)):
                    senders[(edge.up, i)] = Channel(deque())

    def aligned(self, key: InputKey) -> float:
        """The last aligned watermark delivered into one input."""
        return self._aligned[key]

    # -- offering ------------------------------------------------------------

    def offer(self, key: InputKey, sender: Sender,
              items: list[StreamItem]) -> None:
        """Batch offer with per-item backpressure accounting, per
        physical channel: the O(1) arithmetic of what one append at a
        time would count."""
        injector = self.injector
        if injector is not None and getattr(injector, "has_channel_faults",
                                            False):
            items = self._apply_faults(key, sender, items)
            if not items:
                return
        queue = self._inputs[key][sender].queue
        batched = self.batch_mode
        occupancy = items_weight(queue) if batched else len(queue)
        n = items_weight(items) if batched else len(items)
        capacity = CHANNEL_CAPACITY
        node = key[0]
        if occupancy + n <= capacity:
            queue.extend(items)
            return
        if occupancy + n > capacity * 10:
            i0 = capacity * 10 - occupancy
            queue.extend(decode_items(take_prefix(items, i0))
                         if batched else items[:i0])
            events = (i0 + 1) - max(0, min(i0 + 1, capacity - occupancy))
            self.backpressure_events += events
            if self.metrics is not None:
                self.metrics.counter("channel.backpressure",
                                     node=node).inc(events)
            raise BackpressureOverflow(
                f"channel into {node!r} exceeded 10x capacity; "
                "the job cannot keep up"
            )
        events = n - max(0, min(n, capacity - occupancy))
        self.backpressure_events += events
        if self.metrics is not None and events:
            self.metrics.counter("channel.backpressure",
                                 node=node).inc(events)
        queue.extend(items)

    def _apply_faults(self, key: InputKey, sender: Sender,
                      items: list[StreamItem]) -> list[StreamItem]:
        """Thread one offer through the injector's network-fault site.

        Delay/partition hold the packet for N cycles (head-of-line:
        later packets wait in the reassembly buffer); reorder delivers
        it one cycle late so its successors arrive first; duplicate
        re-delivers the same packet, which the receiver discards by
        sequence number.
        """
        directives = self.injector.on_channel_offer(
            key[0], key[1], sender[0], sender[1])
        channel = self._inputs[key][sender]
        seq = channel.send_seq
        channel.send_seq = seq + 1
        hold = directives.get("hold", 0)
        if directives.get("reorder"):
            hold = max(hold, 1)
        if directives.get("duplicate"):
            self._on_hold.append((self._cycle + 1, key, sender, seq,
                               list(items)))
        if hold:
            self._on_hold.append((self._cycle + hold, key, sender, seq,
                               list(items)))
            if self.metrics is not None:
                self.metrics.counter("channel.held",
                                     node=key[0]).inc(len(items))
            return []
        return self._receive(channel, seq, items)

    @staticmethod
    def _receive(channel: Channel, seq: int,
                 items: list[StreamItem]) -> list[StreamItem]:
        """Receiver-side reassembly: returns the in-order run now
        deliverable (empty while waiting on an earlier packet)."""
        expect = channel.recv_seq
        if seq < expect:
            return []  # replayed packet: already delivered
        if seq > expect:
            if channel.ooo is None:
                channel.ooo = {}
            channel.ooo.setdefault(seq, list(items))
            return []
        out = list(items)
        expect += 1
        buffered = channel.ooo
        while buffered and expect in buffered:
            out.extend(buffered.pop(expect))
            expect += 1
        channel.recv_seq = expect
        return out

    def release_held(self) -> None:
        """Deliver held (delayed/duplicated/partitioned) packets whose
        release cycle has come, through reassembly onto the channel."""
        due = [h for h in self._on_hold if h[0] <= self._cycle]
        if not due:
            return
        self._on_hold = [h for h in self._on_hold if h[0] > self._cycle]
        for _release, key, sender, seq, items in due:
            channel = self._inputs[key][sender]
            delivered = self._receive(channel, seq, items)
            if delivered:
                channel.queue.extend(delivered)

    def advance(self) -> None:
        """One macro cycle has passed."""
        self._cycle += 1

    # -- watermark alignment -------------------------------------------------

    def align(self, key: InputKey, sender: Sender,
              pending: Iterable[StreamItem]) -> list[StreamItem]:
        """Replace raw channel watermarks with aligned ones: a subtask's
        event time is the minimum over all its input channels, and an
        aligned watermark is delivered only when that minimum advances."""
        senders = self._inputs[key]
        channel = senders[sender]
        out: list[StreamItem] = []
        if len(senders) > 1:
            # The minimum over several channels moves with every one of
            # them: watermarks must be loose to be replaced one by one.
            pending = explode_items(pending)
        for item in pending:
            if type(item) is RecordBatch:
                if item.wm_offsets is not None:
                    item = self._align_punctuation(key, channel, item)
                if item.weight:
                    out.append(item)
            elif isinstance(item, Watermark):
                if item.timestamp > channel.watermark:
                    channel.watermark = item.timestamp
                    aligned = min(c.watermark for c in senders.values())
                    if aligned > self._aligned[key]:
                        self._aligned[key] = aligned
                        out.append(Watermark(aligned))
            else:
                out.append(item)
        return out

    def _align_punctuation(self, key: InputKey, channel: Channel,
                           rb: RecordBatch) -> RecordBatch:
        """:meth:`align` for the watermarks riding inside a batch on a
        subtask's *only* input channel, where the aligned watermark is
        the channel's own: keep the strictly advancing ones."""
        values = rb.wm_values
        seen = max(channel.watermark, self._aligned[key])
        advancing = values > np.maximum.accumulate(
            np.concatenate(([seen], values[:-1])))
        channel.watermark = max(channel.watermark, float(values.max()))
        kept = values[advancing]
        if len(kept):
            self._aligned[key] = float(kept[-1])
        if len(kept) == len(values):
            return rb
        return rb.with_punctuation(rb.wm_offsets[advancing], kept)

    # -- checkpoint / restore ------------------------------------------------

    def pending(self) -> bool:
        """Anything in flight: queued, held by a fault window, or
        waiting in a reassembly buffer."""
        return bool(self._on_hold) or any(
            channel.queue or channel.ooo
            for senders in self._inputs.values()
            for channel in senders.values())

    def routing_snapshot(self) -> dict[str, Any]:
        """Channel and aligned watermarks under this plan's node names
        (a checkpoint stores them through
        :meth:`~repro.streaming.plan.ExecutionGraph.routing_state`)."""
        return {
            "channel_wm": {key: {sender: channel.watermark
                                 for sender, channel in senders.items()}
                           for key, senders in self._inputs.items()},
            "aligned_wm": dict(self._aligned),
        }

    def same_shape(self, routing: dict[str, Any]) -> bool:
        """Whether a checkpoint's ``routing`` was cut from a plan with
        exactly these channels, chained or not (routing state is exact
        only for its own shape)."""
        saved = routing.get("channel_wm", {})
        mine = self._graph.routing_state(rr={}, **self.routing_snapshot())
        return (saved.keys() == mine["channel_wm"].keys()
                and all(saved[key].keys() == senders.keys()
                        for key, senders in mine["channel_wm"].items()))

    def reset(self, region: set[str], routing: dict[str, Any]) -> None:
        """Forget everything in flight into ``region`` — queued, held
        and buffered packets are data the rewind regenerates — and set
        its watermarks to a checkpoint's ``routing`` (absent: event
        time starts over)."""
        channel_wm = routing.get("channel_wm", {})
        aligned_wm = routing.get("aligned_wm", {})
        graph = self._graph
        for key, senders in self._inputs.items():
            if key[0] not in region:
                continue
            name = graph.input_id(key)
            saved = channel_wm.get(name, {})
            for sender in senders:
                senders[sender] = Channel(
                    deque(), saved.get(graph.sender_id(sender),
                                       float("-inf")))
            self._aligned[key] = aligned_wm.get(name, float("-inf"))
        self._on_hold = [h for h in self._on_hold if h[1][0] not in region]
