"""Streaming event sinks: bounded-memory destinations for engine events.

The engine (and everything it drives) emits structured
:class:`~repro.serving.events.Event` records to every subscriber
(``engine.subscribe(sink)``).  The legacy
:class:`~repro.serving.events.EventRecorder` keeps an unbounded list and
stops past ``max_events``; the sinks here make million-iteration runs
safe:

- :class:`RingBufferSink` — keeps the most recent ``capacity`` events and
  counts what it displaced (nothing is lost silently);
- :class:`JsonlSink` — streams every event to a JSONL file with O(1)
  memory;
- :class:`NullSink` — swallows events (for measuring emission overhead).

Every sink is both a :class:`Sink`, which a
:class:`~repro.obs.telemetry.Telemetry` streams its events into, and an
:class:`~repro.serving.events.EngineObserver` overriding only ``emit``,
which an engine takes as a subscriber directly.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Protocol, runtime_checkable

from repro.serving.events import EngineObserver, Event, EventKind


@runtime_checkable
class Sink(Protocol):
    """Streaming destination for engine events."""

    dropped: int
    """Events this sink displaced or discarded (0 for lossless sinks)."""

    def emit(self, event: Event) -> None:
        """Record one event."""
        ...

    def close(self) -> None:
        """Flush and release any underlying resources (idempotent)."""
        ...


class NullSink(EngineObserver, Sink):
    """Swallows every event; useful for overhead measurements."""

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, event: Event) -> None:
        self.emitted += 1

    def close(self) -> None:
        pass


class RingBufferSink(EngineObserver, Sink):
    """Keeps the newest ``capacity`` events; counts displaced ones.

    Unlike ``EventRecorder`` (which keeps the *oldest* events and stops),
    a ring buffer retains the run's tail — what you want when a long run
    ends somewhere interesting.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: Event) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        """Buffered events of one kind, oldest first."""
        return [e for e in self.events if e.kind is kind]


class JsonlSink(EngineObserver, Sink):
    """Streams events to a JSONL file; memory stays O(1) in run length."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w")
        self.emitted = 0

    def emit(self, event: Event) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_events_jsonl(path: str | Path) -> Iterable[Event]:
    """Parse a :class:`JsonlSink` file back into :class:`Event` objects."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield Event.from_dict(json.loads(line))

