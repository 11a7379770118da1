"""Request journeys: per-request phase records across the cluster.

A :class:`JourneyRecorder` rides the cluster driver's dispatch loop and
every replica engine's event stream to assemble, for each request the
fleet was presented, the full story of how it was served: admission (at
which degradation rung), every dispatch attempt (primary, retries after
sheds or crashes, speculative hedges) with its expert-fetch stalls, and
the final client-visible resolution.  From that story it attributes the
client-perceived latency to phases —

- ``queue``        — arrival until the winning serve actually started
  (engine queueing, hedge delay, retry round-trips);
- ``expert_fetch`` — blocking on-demand loads plus prefetch stalls
  during the winning serve (the paper's PCIe critical path);
- ``compute``      — the rest of the winning serve window

— and names the **critical phase**, the one that dominated.  Hedged and
retried requests are attributed to exactly one winner attempt, matching
the driver's :class:`~repro.cluster.metrics.RequestOutcome` accounting.

The recorder is a pure observer: it never touches the virtual clock, so
a run with journeys attached produces byte-identical reports.  Journeys
export as JSONL (:func:`write_journeys_jsonl` /
:func:`read_journeys_jsonl`) and render through ``repro journeys``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.observer import ClusterObserver
from repro.errors import TelemetryError
from repro.serving.events import EngineObserver, Event, EventKind

#: Phase names, in pipeline order.
PHASE_QUEUE = "queue"
PHASE_FETCH = "expert_fetch"
PHASE_COMPUTE = "compute"
PHASES: tuple[str, ...] = (PHASE_QUEUE, PHASE_FETCH, PHASE_COMPUTE)


@dataclass
class AttemptRecord:
    """One dispatch of a request onto a replica (primary/retry/hedge)."""

    kind: str
    """``primary``, ``retry``, or ``hedge``."""

    replica_id: int
    dispatch_time: float
    status: str = "pending"
    """``served`` or ``shed`` once the attempt resolved."""

    start_time: float | None = None
    finish_time: float | None = None
    ttft: float | None = None
    """Seconds from this attempt's (possibly delayed) arrival to its
    first token — the engine-side TTFT, not the client-perceived one."""

    hits: int = 0
    misses: int = 0
    ondemand_loads: int = 0
    ondemand_seconds: float = 0.0
    prefetch_stalls: int = 0
    prefetch_stall_seconds: float = 0.0
    winner: bool = False
    """True for exactly one attempt of a served journey."""

    @property
    def fetch_seconds(self) -> float:
        """Expert-fetch seconds on this attempt's critical path."""
        return self.ondemand_seconds + self.prefetch_stall_seconds

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "replica_id": self.replica_id,
            "dispatch_time": self.dispatch_time,
            "status": self.status,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "ttft": self.ttft,
            "hits": self.hits,
            "misses": self.misses,
            "ondemand_loads": self.ondemand_loads,
            "ondemand_seconds": self.ondemand_seconds,
            "prefetch_stalls": self.prefetch_stalls,
            "prefetch_stall_seconds": self.prefetch_stall_seconds,
            "winner": self.winner,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttemptRecord":
        return cls(**payload)


@dataclass
class Journey:
    """The full per-request record: attempts plus the client resolution."""

    request_id: int
    arrival: float
    rung: int = 0
    outcome: str = "pending"
    """``served`` / ``shed`` / ``failed`` (``pending`` only mid-run)."""

    reason: str = ""
    replica_id: int | None = None
    """The winner replica for served journeys."""

    latency: float | None = None
    ttft: float | None = None
    hedged: bool = False
    hedge_won: bool = False
    attempts: list[AttemptRecord] = field(default_factory=list)

    def winner_attempt(self) -> AttemptRecord | None:
        """The single attempt whose serve defined a served outcome."""
        for attempt in self.attempts:
            if attempt.winner:
                return attempt
        return None

    def phases(self) -> dict[str, float]:
        """Client-latency seconds attributed to each phase.

        Empty for journeys that never served (shed/failed requests have
        no serve window to attribute).
        """
        winner = self.winner_attempt()
        if (
            self.outcome != "served"
            or winner is None
            or winner.start_time is None
            or winner.finish_time is None
            or self.latency is None
        ):
            return {}
        queue = max(winner.start_time - self.arrival, 0.0)
        fetch = winner.fetch_seconds
        serve = winner.finish_time - winner.start_time
        compute = max(serve - fetch, 0.0)
        return {
            PHASE_QUEUE: queue,
            PHASE_FETCH: fetch,
            PHASE_COMPUTE: compute,
        }

    def critical_phase(self) -> str:
        """The phase that dominated the client latency ('' if not served)."""
        phases = self.phases()
        if not phases:
            return ""
        # Ties break in pipeline order: queue before fetch before compute.
        return max(PHASES, key=lambda name: phases[name])

    def to_dict(self) -> dict:
        """JSONL row: scalars plus derived phases and critical_phase."""
        phases = self.phases()
        return {
            "request_id": self.request_id,
            "arrival": self.arrival,
            "rung": self.rung,
            "outcome": self.outcome,
            "reason": self.reason,
            "replica_id": self.replica_id,
            "latency": self.latency,
            "ttft": self.ttft,
            "hedged": self.hedged,
            "hedge_won": self.hedge_won,
            "phases": phases,
            "critical_phase": self.critical_phase(),
            "attempts": [a.to_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Journey":
        journey = cls(
            request_id=payload["request_id"],
            arrival=payload["arrival"],
            rung=payload.get("rung", 0),
            outcome=payload.get("outcome", "pending"),
            reason=payload.get("reason", ""),
            replica_id=payload.get("replica_id"),
            latency=payload.get("latency"),
            ttft=payload.get("ttft"),
            hedged=payload.get("hedged", False),
            hedge_won=payload.get("hedge_won", False),
        )
        journey.attempts = [
            AttemptRecord.from_dict(a) for a in payload.get("attempts", [])
        ]
        return journey


#: Event kinds a journey attributes to the attempt being served.
_FETCH_KINDS = (
    EventKind.EXPERT_HIT,
    EventKind.EXPERT_MISS,
    EventKind.ONDEMAND_LOAD,
    EventKind.PREFETCH_STALL,
)


class _ReplicaSink(EngineObserver):
    """Event forwarder subscribed to one replica engine."""

    def __init__(self, recorder: "JourneyRecorder", replica_id: int) -> None:
        self._recorder = recorder
        self.replica_id = replica_id

    def emit(self, event: Event) -> None:
        self._recorder._on_replica_event(self.replica_id, event)


class JourneyRecorder(ClusterObserver):
    """Assembles request journeys from driver hooks and engine events.

    The cluster driver serves eagerly — each routed request runs to
    completion on its replica before the next dispatch — so at most one
    attempt is ever in flight, and every event a replica engine emits
    between :meth:`begin_attempt` and :meth:`end_attempt` belongs to
    that attempt.
    """

    def __init__(self) -> None:
        self.journeys: dict[int, Journey] = {}
        self._active: AttemptRecord | None = None
        self._active_replica: int | None = None

    # ------------------------------------------------------------------ #
    # Driver hooks
    # ------------------------------------------------------------------ #

    def replica_sink(self, replica_id: int) -> _ReplicaSink:
        """The event sink to attach to one replica's engine."""
        return _ReplicaSink(self, replica_id)

    def begin_request(
        self, request_id: int, arrival: float, rung: int = 0
    ) -> Journey:
        """A request was presented to the cluster (admission point)."""
        journey = Journey(request_id=request_id, arrival=arrival, rung=rung)
        self.journeys[request_id] = journey
        return journey

    def begin_attempt(
        self,
        request_id: int,
        kind: str,
        replica_id: int,
        dispatch_time: float,
    ) -> None:
        """A dispatch is about to serve on ``replica_id``."""
        journey = self.journeys.get(request_id)
        if journey is None:  # pragma: no cover - defensive
            journey = self.begin_request(request_id, dispatch_time)
        attempt = AttemptRecord(
            kind=kind, replica_id=replica_id, dispatch_time=dispatch_time
        )
        journey.attempts.append(attempt)
        self._active = attempt
        self._active_replica = replica_id

    def end_attempt(self, status: str, served=None) -> None:
        """The in-flight dispatch resolved (``served`` metrics or shed)."""
        attempt = self._active
        self._active = None
        self._active_replica = None
        if attempt is None:  # pragma: no cover - defensive
            return
        attempt.status = status
        if served is not None:
            attempt.start_time = served.start_time
            attempt.finish_time = served.finish_time
            attempt.ttft = served.ttft

    def resolve_served(
        self,
        request_id: int,
        replica_id: int,
        latency: float,
        ttft: float,
        winner_finish: float,
        hedged: bool = False,
        hedge_won: bool = False,
    ) -> None:
        """The request resolved served; mark exactly one winner attempt."""
        journey = self.journeys[request_id]
        journey.outcome = "served"
        journey.reason = ""
        journey.replica_id = replica_id
        journey.latency = latency
        journey.ttft = ttft
        journey.hedged = journey.hedged or hedged
        journey.hedge_won = hedge_won
        # A crash retraction can re-resolve a journey: clear stale winner
        # marks so exactly one attempt carries the flag at any time.
        for attempt in journey.attempts:
            attempt.winner = False
        winner = None
        for attempt in journey.attempts:
            if (
                attempt.status == "served"
                and attempt.replica_id == replica_id
                and attempt.finish_time == winner_finish
            ):
                winner = attempt
        if winner is None:  # pragma: no cover - defensive
            raise TelemetryError(
                f"journey {request_id}: no served attempt on replica "
                f"{replica_id} finishing at {winner_finish}"
            )
        winner.winner = True

    def resolve_shed(self, request_id: int, reason: str) -> None:
        """The request resolved shed (admission, ladder, breaker, ...)."""
        journey = self.journeys[request_id]
        journey.outcome = "shed"
        journey.reason = reason
        self._clear_resolution(journey)

    def resolve_failed(self, request_id: int, reason: str) -> None:
        """The request was lost (crash) and not recovered."""
        journey = self.journeys[request_id]
        journey.outcome = "failed"
        journey.reason = reason
        self._clear_resolution(journey)

    @staticmethod
    def _clear_resolution(journey: Journey) -> None:
        journey.replica_id = None
        journey.latency = None
        journey.ttft = None
        for attempt in journey.attempts:
            attempt.winner = False

    # ------------------------------------------------------------------ #
    # Cluster observer hooks
    # ------------------------------------------------------------------ #

    def on_spawn(self, driver, replica) -> None:
        replica.engine.subscribe(self.replica_sink(replica.replica_id))

    def on_admit(self, request, outcome) -> None:
        self.begin_request(outcome.request_id, outcome.arrival, outcome.rung)

    def on_dispatch(self, record, reason, score) -> None:
        self.begin_attempt(
            record.request_id, record.kind, record.replica_id, record.time
        )

    def on_attempt_end(self, status, served) -> None:
        self.end_attempt(status, served)

    def on_served(self, outcome, winner) -> None:
        self.resolve_served(
            outcome.request_id,
            outcome.replica_id,
            outcome.latency,
            outcome.ttft,
            winner.finish_time,
            hedged=outcome.hedged,
            hedge_won=outcome.hedge_won,
        )

    def on_shed(self, outcome) -> None:
        self.resolve_shed(outcome.request_id, outcome.reason)

    def on_failed(self, outcome) -> None:
        self.resolve_failed(outcome.request_id, outcome.reason)

    # ------------------------------------------------------------------ #
    # Event attribution
    # ------------------------------------------------------------------ #

    def _on_replica_event(self, replica_id: int, event: Event) -> None:
        attempt = self._active
        if attempt is None or replica_id != self._active_replica:
            return
        if event.kind is EventKind.EXPERT_HIT:
            attempt.hits += 1
        elif event.kind is EventKind.EXPERT_MISS:
            attempt.misses += 1
        elif event.kind is EventKind.ONDEMAND_LOAD:
            attempt.ondemand_loads += 1
            attempt.ondemand_seconds += event.detail or 0.0
        elif event.kind is EventKind.PREFETCH_STALL:
            attempt.prefetch_stalls += 1
            attempt.prefetch_stall_seconds += event.detail or 0.0

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def ordered(self) -> list[Journey]:
        """All journeys in request-id order."""
        return [self.journeys[k] for k in sorted(self.journeys)]

    def write_jsonl(self, path: str | Path) -> Path:
        """Stream every journey to ``path`` as one JSON object per line."""
        path = Path(path)
        with path.open("w") as fh:
            for journey in self.ordered():
                fh.write(json.dumps(journey.to_dict(), sort_keys=True) + "\n")
        return path


def read_journeys_jsonl(path: str | Path) -> list[Journey]:
    """Load journeys written by :meth:`JourneyRecorder.write_jsonl`."""
    journeys = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                journeys.append(Journey.from_dict(json.loads(line)))
    return journeys


# ---------------------------------------------------------------------- #
# Rendering (the ``repro journeys`` backend)
# ---------------------------------------------------------------------- #


def render_journeys(journeys: list[Journey], top: int = 5) -> str:
    """The ``repro journeys`` summary: totals, top-K slowest, phases."""
    from repro.obs.inspect import format_table

    lines: list[str] = []
    by_outcome: dict[str, int] = {}
    for journey in journeys:
        by_outcome[journey.outcome] = by_outcome.get(journey.outcome, 0) + 1
    total = len(journeys)
    summary = " ".join(
        f"{outcome}={count}" for outcome, count in sorted(by_outcome.items())
    )
    lines.append(f"journeys: {total} requests — {summary}")

    served = [j for j in journeys if j.outcome == "served"]
    hedged = sum(1 for j in served if j.hedged)
    retried = sum(1 for j in served if len(j.attempts) > 1)
    lines.append(
        f"served: {len(served)} ({hedged} hedged, {retried} multi-attempt)"
    )

    lines += ["", f"== top {top} slowest served requests =="]
    slowest = sorted(served, key=lambda j: -(j.latency or 0.0))[:top]
    rows = []
    for journey in slowest:
        phases = journey.phases()
        rows.append(
            [
                str(journey.request_id),
                f"{journey.latency:.4f}",
                f"{journey.ttft:.4f}",
                str(len(journey.attempts)),
                "yes" if journey.hedged else "no",
                str(journey.replica_id),
                journey.critical_phase(),
                f"{phases.get(PHASE_QUEUE, 0.0):.4f}",
                f"{phases.get(PHASE_FETCH, 0.0):.4f}",
                f"{phases.get(PHASE_COMPUTE, 0.0):.4f}",
            ]
        )
    lines += format_table(
        [
            "request",
            "latency_s",
            "ttft_s",
            "attempts",
            "hedged",
            "replica",
            "critical",
            "queue_s",
            "fetch_s",
            "compute_s",
        ],
        rows,
    )

    lines += ["", "== phase breakdown (served requests) =="]
    totals = {name: 0.0 for name in PHASES}
    dominant = {name: 0 for name in PHASES}
    for journey in served:
        for name, seconds in journey.phases().items():
            totals[name] += seconds
        critical = journey.critical_phase()
        if critical:
            dominant[critical] += 1
    grand = sum(totals.values())
    rows = []
    for name in PHASES:
        share = totals[name] / grand if grand else 0.0
        rows.append(
            [name, f"{totals[name]:.4f}", f"{share:6.1%}", str(dominant[name])]
        )
    lines += format_table(["phase", "seconds", "share", "dominant_in"], rows)

    unserved = [j for j in journeys if j.outcome != "served"]
    if unserved:
        lines += ["", "== shed / failed =="]
        rows = [
            [
                str(j.request_id),
                j.outcome,
                j.reason or "-",
                str(len(j.attempts)),
            ]
            for j in unserved
        ]
        lines += format_table(
            ["request", "outcome", "reason", "attempts"], rows
        )
    return "\n".join(lines)
