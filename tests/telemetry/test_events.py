"""Tests for the bounded event trace and its JSONL serialization."""

import pytest

from repro.telemetry.events import (
    EVENT_KINDS,
    EventTrace,
    TraceEvent,
    load_trace,
)


def small_trace(events=5, capacity=64):
    trace = EventTrace(capacity)
    for i in range(events):
        trace.emit("dispatch", cycle=i, seq=i, pc=0x1000 + 4 * i,
                   data={"opcode": "add"})
    return trace


class TestRingBuffer:
    def test_capacity_bounds_memory(self):
        trace = EventTrace(4)
        for i in range(10):
            trace.emit("commit", cycle=i, seq=i)
        assert len(trace) == 4
        assert trace.emitted == 10
        assert trace.dropped == 6
        # Oldest events dropped first.
        assert [e.cycle for e in trace.events] == [6, 7, 8, 9]

    def test_counts(self):
        trace = EventTrace(16)
        trace.emit("dispatch", 1, 1)
        trace.emit("dispatch", 2, 2)
        trace.emit("squash", 3, 1)
        assert trace.counts() == {"dispatch": 2, "squash": 1}


class TestSelect:
    def test_filter_by_kind(self):
        trace = small_trace()
        trace.emit("squash", cycle=99, seq=50)
        assert all(e.kind == "dispatch"
                   for e in trace.select(kinds=["dispatch"]))
        assert len(trace.select(kinds=["squash"])) == 1

    def test_filter_by_pc_and_window(self):
        trace = small_trace(10)
        by_pc = trace.select(pc=0x1008)
        assert len(by_pc) == 1 and by_pc[0].cycle == 2
        window = trace.select(since=3, until=5)
        assert [e.cycle for e in window] == [3, 4, 5]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        trace = small_trace(6)
        path = tmp_path / "t.trace.jsonl"
        path.write_text(trace.dumps(workload="compress"))
        loaded = load_trace(path)
        assert len(loaded) == 6
        assert loaded.header["workload"] == "compress"
        assert loaded.header["emitted"] == 6
        first = loaded.select()[0]
        assert first.kind == "dispatch" and first.pc == 0x1000
        assert first.data == {"opcode": "add"}

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "not-a-trace"}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_event_dict_round_trip(self):
        event = TraceEvent("vp_verify", 12, seq=3, pc=0x40,
                           data={"correct": False})
        assert TraceEvent.from_dict(event.as_dict()).as_dict() \
            == event.as_dict()


def test_known_kinds_are_stable():
    # The kind vocabulary is part of the trace format: repro-trace
    # filters by these names.  A squash also stands for the checkpoint
    # restore that goes with it.
    for kind in ("dispatch", "issue", "complete", "commit", "vp_predict",
                 "vp_verify", "reexec", "reuse_hit", "reuse_miss",
                 "branch_resolve", "squash"):
        assert kind in EVENT_KINDS
