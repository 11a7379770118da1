"""Structured event tracing for the serving engine.

Observers subscribe to a :class:`~repro.serving.engine.ServingEngine`
with ``engine.subscribe(observer)`` to capture the exact sequence of
simulation events — iteration boundaries, layer serves, hits/misses,
on-demand loads, prefetch issues, evictions — with virtual timestamps,
plus the span and gauge hooks the telemetry layer turns into traces and
metrics.  Useful for debugging policies, building custom analyses, and
asserting engine semantics in tests.

An engine with no subscribers pays nothing.  Every subscriber subclasses
:class:`EngineObserver` and overrides the hooks it needs;
:class:`EventRecorder` is the simple in-memory event list, and
:mod:`repro.obs.sinks` provides bounded-memory streaming alternatives
(ring buffer, JSONL file, null) for long runs.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from repro.types import ExpertId


class EventKind(enum.Enum):
    """What happened: the discriminator of every recorded event."""

    ITERATION_START = "iteration_start"
    ITERATION_END = "iteration_end"
    LAYER_START = "layer_start"
    EXPERT_HIT = "expert_hit"
    EXPERT_MISS = "expert_miss"
    ONDEMAND_LOAD = "ondemand_load"
    PREFETCH_STALL = "prefetch_stall"
    PREFETCH_ISSUED = "prefetch_issued"
    EVICTION = "eviction"
    DEVICE_FAILURE = "device_failure"
    FAILOVER = "failover"
    REQUEST_SHED = "request_shed"
    REQUEST_DISPATCH = "request_dispatch"
    DEGRADED_SERVE = "degraded_serve"
    SLO_VIOLATION = "slo_violation"


@dataclass(frozen=True)
class Event:
    """One recorded simulation event."""

    kind: EventKind
    time: float
    iteration: int
    layer: int | None = None
    expert: ExpertId | None = None
    detail: float | None = None
    """Kind-specific payload: stall/load seconds, instruction count, ..."""

    def to_dict(self) -> dict:
        """JSON-serializable form (see :func:`Event.from_dict`)."""
        out: dict = {
            "kind": self.kind.value,
            "time": self.time,
            "iteration": self.iteration,
        }
        if self.layer is not None:
            out["layer"] = self.layer
        if self.expert is not None:
            out["expert"] = [self.expert.layer, self.expert.expert]
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Inverse of :meth:`to_dict`."""
        expert = payload.get("expert")
        return cls(
            kind=EventKind(payload["kind"]),
            time=payload["time"],
            iteration=payload["iteration"],
            layer=payload.get("layer"),
            expert=ExpertId(*expert) if expert is not None else None,
            detail=payload.get("detail"),
        )


class EngineObserver:
    """A pure observer of one serving engine; every hook is a no-op.

    Subscribe with ``engine.subscribe(observer)``.  Hooks fire in
    subscription order on the virtual clock; an observer never advances
    it or touches engine state, so an observed run stays byte-identical.
    """

    dropped = 0
    """Events discarded (a report carries the max over subscribers)."""

    def emit(self, event: Event) -> None:
        """One structured engine event."""

    def iteration_begin(
        self, index: int, now: float, batch_size: int, stage: str
    ) -> None:
        """An iteration starts (before its ``ITERATION_START`` event)."""

    def iteration_end(self, now: float, pool=None, kv_tracker=None) -> None:
        """An iteration ended (after its ``ITERATION_END`` event); the
        engine's pool and KV tracker are passed for gauge sampling."""

    def layer_begin(self, layer: int, now: float) -> None:
        """One layer of the current iteration starts."""

    def layer_end(self, now: float) -> None:
        """The current layer ends."""

    def serve_span(
        self,
        start: float,
        end: float,
        expert: ExpertId,
        layer: int,
        hit: bool,
        stall_seconds: float = 0.0,
        stall_cause: str | None = None,
    ) -> None:
        """One expert activation's serve window (stall included)."""

    def stall_span(
        self, name: str, start: float, end: float, expert: ExpertId, layer: int
    ) -> None:
        """An on-demand load or prefetch stall inside a serve."""

    def note_transfer(
        self, kind: str, device: int, expert: ExpertId, task: object
    ) -> None:
        """The pool scheduled a ``"prefetch"`` or ``"ondemand"`` copy; the
        task's bounds shift while urgent loads pause it, so read them late."""

    def drop_transfer(self, task: object) -> None:
        """A scheduled copy was cancelled or lost before completing."""

    def fault_recovery_span(
        self, device: int, start: float, end: float, replaced: int
    ) -> None:
        """The window from a device loss to its last re-placement copy."""

    def observe_ttft(self, seconds: float) -> None:
        """A request's time-to-first-token."""

    def observe_tpot(self, seconds: float) -> None:
        """One decode iteration's latency for one request."""

    def set_kv_bytes(self, current_bytes: int) -> None:
        """Live KV footprint after a KV-cache mutation."""

    def request_span(
        self,
        request_id: int,
        start: float,
        end: float,
        ttft: float,
        decode_iterations: int,
    ) -> None:
        """A request finished; its whole lifetime."""

    def request_dispatch(
        self, now: float, request_id: int, discipline: str, queue_depth: int
    ) -> None:
        """A scheduler handed a request over (before its
        ``REQUEST_DISPATCH`` event); ``queue_depth`` still wait."""


@dataclass
class EventRecorder(EngineObserver):
    """Accumulates events; attach with ``engine.subscribe(recorder)``."""

    events: list[Event] = field(default_factory=list)
    max_events: int = 1_000_000
    dropped: int = 0
    """Events discarded past ``max_events`` (surfaced in serving reports)."""

    def emit(self, event: Event) -> None:
        """Append an event; past ``max_events`` it is counted as dropped
        (and a warning is issued once per recorder)."""
        if len(self.events) < self.max_events:
            self.events.append(event)
            return
        if self.dropped == 0:
            warnings.warn(
                f"EventRecorder full at {self.max_events} events; further "
                "events are dropped (use repro.obs.sinks for bounded-memory "
                "streaming)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.dropped += 1

    def close(self) -> None:
        """No-op; present so the recorder satisfies the richer Sink API."""

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        """All recorded events of one kind, in order."""
        return [e for e in self.events if e.kind is kind]

    def iter_expert_events(self, expert: ExpertId) -> Iterator[Event]:
        """Events touching one expert, in order."""
        return (e for e in self.events if e.expert == expert)

    def timeline(self) -> list[str]:
        """Human-readable one-line-per-event rendering."""
        out = []
        for e in self.events:
            parts = [f"{e.time:12.6f}s", f"iter={e.iteration}", e.kind.value]
            if e.layer is not None:
                parts.append(f"layer={e.layer}")
            if e.expert is not None:
                parts.append(str(e.expert))
            if e.detail is not None:
                parts.append(f"detail={e.detail:.6f}")
            out.append(" ".join(parts))
        return out
