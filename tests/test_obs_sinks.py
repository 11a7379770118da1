"""Tests for the streaming event sinks."""

import json

import pytest

from repro.obs.sinks import (
    JsonlSink,
    NullSink,
    RingBufferSink,
    Sink,
    read_events_jsonl,
)
from repro.serving.events import Event, EventKind, EventRecorder
from repro.types import ExpertId


def make_event(i: int, kind: EventKind = EventKind.EXPERT_HIT) -> Event:
    return Event(kind, float(i), i, 0, ExpertId(0, i % 4))


class TestProtocol:
    def test_all_sinks_satisfy_protocol(self, tmp_path):
        assert isinstance(NullSink(), Sink)
        assert isinstance(RingBufferSink(8), Sink)
        with JsonlSink(tmp_path / "e.jsonl") as sink:
            assert isinstance(sink, Sink)

    def test_recorder_satisfies_protocol(self):
        # The legacy recorder keeps working anywhere a Sink is expected.
        assert isinstance(EventRecorder(), Sink)


class TestNullSink:
    def test_counts_but_keeps_nothing(self):
        sink = NullSink()
        for i in range(5):
            sink.emit(make_event(i))
        assert sink.emitted == 5
        assert sink.dropped == 0


class TestRingBufferSink:
    def test_keeps_newest_and_counts_displaced(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit(make_event(i))
        assert len(sink) == 3
        assert [e.time for e in sink.events] == [7.0, 8.0, 9.0]
        assert sink.dropped == 7

    def test_memory_bounded(self):
        """Emitting far past capacity never grows the buffer."""
        sink = RingBufferSink(capacity=64)
        for i in range(100_000):
            sink.emit(make_event(i))
        assert len(sink) == 64
        assert sink.dropped == 100_000 - 64

    def test_of_kind(self):
        sink = RingBufferSink(capacity=8)
        sink.emit(make_event(0, EventKind.EXPERT_HIT))
        sink.emit(make_event(1, EventKind.EVICTION))
        assert [e.kind for e in sink.of_kind(EventKind.EVICTION)] == [
            EventKind.EVICTION
        ]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_streams_valid_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for i in range(4):
                sink.emit(make_event(i))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["kind"] == "expert_hit" for line in lines)

    def test_round_trip_through_reader(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [make_event(i, EventKind.ONDEMAND_LOAD) for i in range(3)]
        with JsonlSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert list(read_events_jsonl(path)) == events

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit(make_event(0))

