"""Unit tests: the executor's two collaborators on their own.

What the seam makes checkable without an executor: ``Channels``
reassembles faulted packets once and in order and ``reset`` forgets
exactly one region's in-flight data; ``SourceReader.rewind`` reports
what it will read again and a rewound reader reads it again.
"""

import pytest

from repro.streaming import (
    Channels,
    Element,
    JobBuilder,
    ParallelExecutor,
    SourceReader,
    compile_execution_graph,
)
from repro.streaming.batch import decode_items

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}


class _Network:
    """The injector's channel-fault site, scripted: one directive dict
    per offer, in offer order (no directive once the script runs out)."""

    has_channel_faults = True

    def __init__(self, *directives):
        self.script = list(directives)

    def on_channel_offer(self, down, idx, up, up_idx):
        return self.script.pop(0) if self.script else {}


def _two_region_plan():
    """``a -> ma -> out_a`` and ``b -> mb -> out_b``: two regions."""
    builder = JobBuilder("two")
    builder.source("a", []).map(lambda v: v, name="ma").sink("out_a")
    builder.source("b", []).map(lambda v: v, name="mb").sink("out_b")
    return compile_execution_graph(builder.build())


def _channels(*directives, batch_mode=False):
    return Channels(_two_region_plan(), batch_mode=batch_mode,
                    injector=_Network(*directives))


KEY_A, FROM_A = ("ma", 0, None), ("a", 0)
KEY_B, FROM_B = ("mb", 0, None), ("b", 0)


def _packet(i):
    return [Element(float(i), float(i))]


def _delivered(channels, key, sender, cycles):
    """Everything the receiver takes off one channel over ``cycles``."""
    out = []
    for _ in range(cycles):
        channels.release_held()
        out.extend(channels.inputs[key][sender].take())
        channels.advance()
    return [e.value for e in out]


class TestReassembly:
    @pytest.mark.parametrize("directives", (
        [{"hold": 2}],                           # delayed: head-of-line
        [{"duplicate": True}, {"duplicate": True}],
        [{"reorder": True}],                     # successors arrive first
        [{"hold": 3, "duplicate": True}, {"reorder": True}, {"hold": 1}],
    ), ids=("hold", "duplicate", "reorder", "mixed"))
    def test_each_packet_arrives_once_and_in_order(self, directives):
        channels = _channels(*directives)
        for i in range(5):
            channels.offer(KEY_A, FROM_A, _packet(i))
        assert _delivered(channels, KEY_A, FROM_A, cycles=6) \
            == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not channels.pending()

    def test_a_held_packet_holds_its_successors_and_counts_as_pending(self):
        channels = _channels({"hold": 2})
        for i in range(3):
            channels.offer(KEY_A, FROM_A, _packet(i))
        assert channels.pending()
        assert _delivered(channels, KEY_A, FROM_A, cycles=2) == []
        assert channels.pending()
        assert _delivered(channels, KEY_A, FROM_A, cycles=1) \
            == [0.0, 1.0, 2.0]


class TestReset:
    def test_reset_forgets_exactly_the_regions_in_flight_packets(self):
        # per region: packet 0 held, packet 1 out of order behind it,
        # then (no fault window left) nothing else
        channels = _channels({"hold": 5}, {"hold": 5})
        channels.offer(KEY_A, FROM_A, _packet(0))
        channels.offer(KEY_B, FROM_B, _packet(10))
        channels.offer(KEY_A, FROM_A, _packet(1))
        channels.offer(KEY_B, FROM_B, _packet(11))
        channels.reset({"a", "ma", "out_a"}, {})
        # region a starts over: sequence numbers too, so a fresh packet
        # is deliverable at once
        channels.offer(KEY_A, FROM_A, _packet(2))
        assert _delivered(channels, KEY_A, FROM_A, cycles=1) == [2.0]
        # region b kept its held packet and the one waiting behind it
        assert channels.pending()
        assert _delivered(channels, KEY_B, FROM_B, cycles=6) == [10.0, 11.0]
        assert not channels.pending()

    def test_reset_restores_watermarks(self):
        channels = _channels()
        routing = {"channel_wm": {KEY_A: {FROM_A: 7.0}, KEY_B: {FROM_B: 9.0}},
                   "aligned_wm": {KEY_A: 7.0, KEY_B: 9.0}}
        channels.reset({"a", "ma", "out_a"}, routing)
        snapshot = channels.routing_snapshot()
        assert snapshot["channel_wm"][KEY_A] == {FROM_A: 7.0}
        assert snapshot["aligned_wm"][KEY_A] == 7.0
        # outside the region nothing moves
        assert snapshot["channel_wm"][KEY_B] == {FROM_B: float("-inf")}
        assert snapshot["aligned_wm"][KEY_B] == float("-inf")
        assert not channels.same_shape({"channel_wm": {KEY_A: {FROM_A: 0}}})
        assert channels.same_shape(snapshot)


def _source_job(n=40, splits=4):
    rows = [Element(float(i), i * 0.37, f"k{i % 5}") for i in range(n)]
    builder = JobBuilder("reader")
    builder.source("s", rows, splits=splits).sink("out")
    return builder.build()


def _reader(mode, parallelism=2):
    job = _source_job()
    return SourceReader(job, compile_execution_graph(job, parallelism),
                        **MODES[mode])


def _pull_all(reader, n=7, parallelism=2):
    pulls = []
    while not reader.exhausted:
        for idx in range(parallelism):
            count, items = reader.pull("s", idx, n)
            pulls.append((idx, count, decode_items(items)))
    return pulls


class TestRewind:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_a_rewound_reader_pulls_the_same_batches_again(self, mode):
        reader = _reader(mode)
        first = [reader.pull("s", idx, 7) for idx in range(2)]
        cut = reader.positions()
        assert sum(cut["s"].values()) == sum(n for n, _ in first) == 14
        ahead = _pull_all(reader)
        assert reader.pulled("s") == reader.records("s") == 40
        replayed = reader.rewind(["s"], cut)
        assert replayed == 40 - 14
        assert reader.positions() == cut and not reader.exhausted
        assert _pull_all(reader) == ahead
        # rewinding to where the reader stands replays nothing
        assert reader.rewind(["s"], reader.positions()) == 0

    def test_rewind_counts_what_restore_reports(self):
        for mode, kwargs in MODES.items():
            executor = ParallelExecutor(_source_job(), 2, **kwargs)
            executor.run(source_batch=7, max_cycles=1)
            snapshot = executor.checkpoint()
            executor.run(source_batch=7, max_cycles=2)
            ahead = executor.sources.positions()
            want = sum(ahead["s"][s] - pos for s, pos
                       in snapshot.source_positions["s"].items())
            assert executor.restore(snapshot) == want > 0, mode

    def test_both_modes_cut_the_same_positions(self):
        traces = {}
        for mode in MODES:
            reader = _reader(mode)
            trace = traces[mode] = []
            while not reader.exhausted:
                for idx in range(2):
                    reader.pull("s", idx, 3)
                trace.append(reader.positions())
        assert traces["chained"] == traces["per_item"]

    def test_shed_counts_rewind_with_the_positions(self):
        reader = _reader("chained", parallelism=1)
        reader.set_shedding("s", 1, 2)
        reader.pull("s", 0, 10)
        cut, shed_at_cut = reader.positions(), reader.shed_state()
        reader.pull("s", 0, 30)
        shed_in_full = reader.shed_elements
        assert shed_in_full > shed_at_cut["shed"]["s"] > 0
        reader.rewind(["s"], cut)
        reader.apply_shed_state(shed_at_cut, ["s"])
        assert reader.shed_elements == shed_at_cut["shed"]["s"]
        reader.pull("s", 0, 30)
        assert reader.shed_elements == shed_in_full
