"""The discrete-event serving engine.

Walks every inference iteration layer by layer on a virtual clock, charging:

- per-layer base compute (attention, norms, always-on experts),
- per-expert compute for each activated expert,
- blocking on-demand loads for expert misses,
- stalls when an activated expert's prefetch is still in flight,
- synchronous policy overheads (prediction, context collection).

Policies receive hooks at exactly the points the paper's runtime exposes:
once before each iteration (semantic context is available), once after each
layer's gate output (the trajectory grows by one layer), and once after the
iteration completes (map update).  Policies never act on future gate
outputs: a policy may plan the whole iteration at its start through
:meth:`IterationContext.iteration_rows`, but the plan's entry for layer
``l`` may read only layers ``0..l`` of it, and the entry is applied when
layer ``l``'s gate output is revealed.  Baselines that model hidden-state
speculation go through the bounded-noise :meth:`IterationContext.speculate`
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    DeviceLostError,
    TransferError,
)
from repro.moe.model import IterationRouting, MoEModel, RequestSession
from repro.serving.faults import DeviceFailure, FaultSchedule, SLOConfig
from repro.serving.hardware import DEFAULT_HARDWARE, HardwareConfig
from repro.serving.events import EngineObserver, Event, EventKind
from repro.serving.kvcache import KVCacheTracker
from repro.serving.metrics import LatencyBreakdown, RequestMetrics, ServingReport
from repro.serving.pool import ExpertPool
from repro.serving.request import Request
from repro.types import ExpertId, Stage


@dataclass
class PolicyAction:
    """What a policy hook asks the engine to do.

    ``sync_overheads`` name → seconds added to the critical path (used by
    synchronous baselines and for fMoE's context collection).
    ``async_overheads`` name → seconds that delay when the prefetches
    reach the PCIe queue but do not block compute (fMoE's asynchronous
    matcher).
    """

    sync_overheads: dict[str, float] = field(default_factory=dict)
    async_overheads: dict[str, float] = field(default_factory=dict)
    block_until_arrival: bool = False
    """Synchronous-prefetch semantics: compute stalls until every prefetch
    issued by this action has landed (Mixtral-Offloading, MoE-Infinity)."""

    prefetch_block: tuple[np.ndarray, np.ndarray] | None = None
    """The prefetches: a pair of equal-length arrays (flat expert ids
    ``layer * J + j`` as int64, priorities as float64).  The engine
    issues them in stable descending-priority order, so equal
    priorities keep emission order."""

    @property
    def prefetch(self) -> tuple[()]:
        # Read only by perfbench's prefetch counter, which predates the
        # block form; every prefetch is in ``prefetch_block``.
        return ()


class IterationContext:
    """Progressively revealed view of the current iteration for policies."""

    def __init__(
        self,
        stage: Stage,
        iteration_index: int,
        requests: Sequence[Request],
        sessions: Sequence[RequestSession],
        routings: Sequence[IterationRouting],
    ) -> None:
        self.stage = stage
        self.iteration_index = iteration_index
        self.requests = list(requests)
        self._sessions = list(sessions)
        self._routings = list(routings)
        self.batch_size = len(requests)
        self.embeddings = np.stack([s.embedding for s in sessions])
        self.num_tokens = [r.num_tokens for r in routings]
        self.observed_layers = 0

    def reveal_layer(self, layer: int) -> None:
        """Engine-only: bring layer ``layer``'s gate outputs into view."""
        self.observed_layers = layer + 1

    @property
    def observed(self) -> np.ndarray:
        """The revealed gate rows: ``(B, L, J)`` float64, a fresh array
        per read.  Layers not yet revealed read as zero."""
        observed = self.iteration_rows()
        observed[:, self.observed_layers :] = 0.0
        return observed

    def iteration_rows(self) -> np.ndarray:
        """Every layer's gate rows of this iteration: ``(B, L, J)`` float64.

        The routing is sampled before layer 0 runs, so a policy can plan
        the iteration in one call.  The plan rule: whatever the policy
        does at layer ``l``'s gate output may depend on rows ``0..l``
        only — exactly what :attr:`observed` holds by then — so acting on
        the plan is indistinguishable from acting on the revealed view.
        The array has the layout of :attr:`observed`, so arithmetic over
        its slices lands on the same bits.
        """
        return np.stack([r.distributions for r in self._routings])

    def activated_at(self, layer: int) -> list[np.ndarray]:
        """Per-request activated expert indices for a revealed layer."""
        if layer >= self.observed_layers:
            raise ConfigError(
                f"layer {layer} not yet revealed ({self.observed_layers})"
            )
        return [r.activated[layer] for r in self._routings]

    def oracle_activated_at(self, layer: int) -> list[np.ndarray]:
        """Ground-truth activations for any layer, revealed or not.

        For hindsight upper-bound policies only; real policies must use
        :meth:`activated_at`, which enforces progressive reveal.
        """
        return [r.activated[layer] for r in self._routings]

    def speculate(
        self,
        request_pos: int,
        target_layer: int,
        distance: int,
        noise_multiplier: float = 1.0,
    ) -> np.ndarray:
        """Noisy hidden-state speculation oracle (baselines only)."""
        session = self._sessions[request_pos]
        routing = self._routings[request_pos]
        return session.speculate(
            routing, target_layer, distance, noise_multiplier=noise_multiplier
        )


class Policy(Protocol):
    """Structural interface every offloading policy implements."""

    name: str

    def attach(self, engine: "ServingEngine") -> None:
        """Bind the policy to its engine (config, pool access)."""
        ...

    def on_request_start(
        self, request: Request, embedding: np.ndarray
    ) -> None:
        """Observe a new request and its semantic embedding."""
        ...

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        """Act before layer 0 (the semantic-search point)."""
        ...

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        """Act on a newly revealed layer (the trajectory-search point)."""
        ...

    def on_expert_served(
        self, expert: ExpertId, hit: bool, now: float
    ) -> None:
        """Observe one activated expert's hit/miss outcome."""
        ...

    def on_iteration_end(self, ctx: IterationContext) -> PolicyAction:
        """Act after the last layer (the map-update point)."""
        ...

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Every expert's eviction score, flat ``(L·J,)`` float64 indexed
        by ``layer * J + j``; higher is evicted first."""
        ...


@dataclass
class _ActiveRequest:
    request: Request
    session: RequestSession
    metrics: RequestMetrics
    iterations_done: int = 0

    @property
    def finished(self) -> bool:
        return self.iterations_done >= self.request.total_iterations


class ServingEngine:
    """Serves batches of requests under one offloading policy."""

    def __init__(
        self,
        model: MoEModel,
        policy: Policy,
        cache_budget_bytes: int,
        hardware: HardwareConfig = DEFAULT_HARDWARE,
        placement: str = "round-robin",
        faults: FaultSchedule | None = None,
        slo: SLOConfig | None = None,
    ) -> None:
        self.model = model
        self.config = model.config
        self.policy = policy
        self.hardware = hardware
        # An all-zero schedule must not perturb the healthy path, so it is
        # dropped entirely (no extra arithmetic anywhere).
        self.faults = (
            faults if faults is not None and not faults.is_zero else None
        )
        self.slo = slo or SLOConfig()
        self._failure_script: tuple[DeviceFailure, ...] = (
            self.faults.failure_script() if self.faults is not None else ()
        )
        self._failures_applied = 0
        self.pool = ExpertPool(
            model.config,
            hardware,
            cache_budget_bytes,
            placement=placement,
            faults=self.faults,
        )
        self.pool.set_eviction_oracle(policy)
        self.pool.engine = self
        self.kv_tracker = KVCacheTracker(model.config)
        # Degradation-ladder levers (cluster resilience): the dispatcher
        # may flip these around a serve to shed optional work under
        # overload.  Defaults preserve full service exactly.
        self.prefetch_enabled = True
        """When False, policy prefetches are discarded (ladder rung 1:
        PCIe bandwidth is reserved for on-demand loads)."""

        self.force_substitution = False
        """When True, expert misses are served by nearest-resident
        substitution instead of blocking on-demand loads (ladder rung 2
        — the SMoE-style fallback applied as deliberate load shedding)."""

        self.observers: tuple[EngineObserver, ...] = ()
        """Subscribers, in subscription order (see :meth:`subscribe`)."""
        self._iteration_counter = 0
        policy.attach(self)
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def idle_until(self, time: float) -> None:
        """Advance the clock to ``time`` (an idle gap before an arrival);
        the clock never moves backwards, so an earlier ``time`` is a
        no-op."""
        if time > self._now:
            self._now = time

    def subscribe(self, observer: EngineObserver) -> None:
        """Add ``observer`` after the existing subscribers.

        Every hook reaches the subscribers in subscription order; they
        observe through the virtual clock and never advance it, so
        subscribing leaves every latency result bit-identical.
        """
        self.observers += (observer,)

    def announce_dispatch(
        self, request_id: int, discipline: str, queue_depth: int
    ) -> None:
        """Tell the subscribers a scheduler picked ``request_id``, with
        ``queue_depth`` arrived requests still waiting."""
        for observer in self.observers:
            observer.request_dispatch(
                self._now, request_id, discipline, queue_depth
            )
        self._emit(EventKind.REQUEST_DISPATCH, detail=float(queue_depth))

    def _emit(
        self,
        kind: EventKind,
        layer: int | None = None,
        expert: ExpertId | None = None,
        detail: float | None = None,
    ) -> None:
        if not self.observers:
            return
        event = Event(
            kind=kind,
            time=self._now,
            iteration=self._iteration_counter,
            layer=layer,
            expert=expert,
            detail=detail,
        )
        for observer in self.observers:
            observer.emit(event)

    # ------------------------------------------------------------------ #
    # Top-level runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: Sequence[Request],
        batch_size: int = 1,
        respect_arrivals: bool = False,
    ) -> ServingReport:
        """Serve ``requests`` in order, batching greedily.

        With ``respect_arrivals`` the engine idles until every request of
        the next batch has arrived (online-trace replay, Fig. 10);
        otherwise requests are served back to back (offline, Fig. 9).
        """
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        report = ServingReport(policy_name=self.policy.name)
        retries_before = self.pool.total_retries()
        for start in range(0, len(requests), batch_size):
            self.serve_step(
                requests[start : start + batch_size], report, respect_arrivals
            )
        return self.finalize_report(report, retries_before)

    def serve_step(
        self,
        batch: Sequence[Request],
        report: ServingReport,
        respect_arrivals: bool = False,
    ) -> list[Request]:
        """Serve one batch incrementally, accumulating into ``report``.

        The incremental half of :meth:`run`: external dispatch loops (the
        cluster driver, schedulers) feed batches one at a time on the same
        virtual clock and finish with :meth:`finalize_report`, producing a
        report byte-identical to a single :meth:`run` call over the same
        sequence.  Returns the requests actually served (overdue requests
        are shed under ``respect_arrivals`` and an SLO queue budget).
        """
        batch = list(batch)
        if respect_arrivals:
            self.idle_until(max(r.arrival_time for r in batch))
            batch = self.shed_overdue(batch, report)
            if not batch:
                return []
        self._serve_batch(batch, report, respect_arrivals)
        return batch

    def finalize_report(
        self, report: ServingReport, retries_before: int = 0
    ) -> ServingReport:
        """Stamp run-level counters onto an incrementally built report.

        ``retries_before`` is the pool's retry count captured before the
        first :meth:`serve_step` (0 for a fresh engine).
        """
        report.retries += self.pool.total_retries() - retries_before
        report.peak_cache_bytes = self.pool.used_bytes()
        report.peak_kv_bytes = self.kv_tracker.peak_bytes
        report.events_dropped = max(
            (o.dropped for o in self.observers), default=0
        )
        return report

    def run_continuous(
        self,
        requests: Sequence[Request],
        max_batch_size: int = 4,
    ) -> ServingReport:
        """Continuous batching: requests join at iteration boundaries.

        Instead of forming static batches, arrived requests are admitted
        into the running batch (up to ``max_batch_size``) between
        iterations; a newly admitted request's prefill shares the iteration
        with the others' decode steps.  Requests leave as they finish.
        Latencies are measured from trace arrival (queueing included).
        """
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        report = ServingReport(policy_name=self.policy.name)
        retries_before = self.pool.total_retries()
        backlog = sorted(requests, key=lambda r: r.arrival_time)
        index = 0
        active: list[_ActiveRequest] = []
        iteration = 0
        while index < len(backlog) or active:
            if not active:
                self.idle_until(backlog[index].arrival_time)
            while (
                index < len(backlog)
                and backlog[index].arrival_time <= self._now
                and len(active) < max_batch_size
            ):
                request = backlog[index]
                index += 1
                if self.shed_overdue([request], report):
                    active.append(self._admit(request, request.arrival_time))
            if not active:
                # Every due request was shed: idle to the next arrival.
                continue
            for entry in self._step(active, iteration, report):
                report.requests.append(entry.metrics)
                active.remove(entry)
            iteration += 1
        return self.finalize_report(report, retries_before)

    def _end_iteration(
        self, entry: _ActiveRequest, elapsed: float, report: ServingReport
    ) -> bool:
        """Bookkeeping for one request after an iteration it took part
        in: TTFT or TPOT, KV growth or release, and the matching
        subscriber hooks.  True when the request has finished."""
        entry.iterations_done += 1
        request = entry.request
        metrics = entry.metrics
        observers = self.observers
        if entry.iterations_done == 1:
            metrics.ttft = self._now - metrics.arrival_time
            for observer in observers:
                observer.observe_ttft(metrics.ttft)
            self._check_ttft(entry, report)
            self.kv_tracker.admit(request.request_id, request.input_tokens)
        else:
            metrics.decode_latencies.append(elapsed)
            for observer in observers:
                observer.observe_tpot(elapsed)
            self.kv_tracker.append_token(request.request_id)
        finished = entry.finished
        if finished:
            metrics.finish_time = self._now
            self.kv_tracker.release(request.request_id)
            self.policy.on_request_end(request)
        if observers:
            kv_bytes = self.kv_tracker.current_bytes()
            for observer in observers:
                observer.set_kv_bytes(kv_bytes)
                if finished:
                    observer.request_span(
                        metrics.request_id,
                        metrics.start_time,
                        self._now,
                        metrics.ttft,
                        len(metrics.decode_latencies),
                    )
        return finished

    # ------------------------------------------------------------------ #
    # Graceful degradation
    # ------------------------------------------------------------------ #

    def shed_overdue(
        self, requests: Sequence[Request], report: ServingReport
    ) -> list[Request]:
        """Drop requests whose queue delay exceeds the SLO budget.

        Returns the survivors; shed requests are counted (never served),
        which keeps tail latency bounded when faults pile up a backlog.
        """
        budget = self.slo.queue_delay_budget_seconds
        if budget is None:
            return list(requests)
        kept: list[Request] = []
        for request in requests:
            delay = self._now - request.arrival_time
            if delay > budget:
                report.shed_requests += 1
                report.shed_request_ids.append(request.request_id)
                self._emit(EventKind.REQUEST_SHED, detail=delay)
            else:
                kept.append(request)
        return kept

    def _check_ttft(
        self, entry: "_ActiveRequest", report: ServingReport
    ) -> None:
        """Count (and under strict SLO, raise on) a missed TTFT deadline."""
        deadline = self.slo.ttft_deadline_seconds
        if deadline is None or entry.metrics.ttft <= deadline:
            return
        report.slo_violations += 1
        self._emit(EventKind.SLO_VIOLATION, detail=entry.metrics.ttft)
        if self.slo.strict:
            raise DeadlineExceededError(
                f"request {entry.request.request_id} TTFT "
                f"{entry.metrics.ttft:.3f}s exceeded {deadline:.3f}s"
            )

    def _apply_due_faults(self, report: ServingReport) -> None:
        """Apply scripted device failures whose time has come.

        Failures land at iteration granularity: the device's residents and
        in-flight copies are lost, then the pool re-places them across the
        survivors (budget-conserving).  Recovery time is charged as the
        span until the last re-placement copy arrives.
        """
        while self._failures_applied < len(self._failure_script):
            failure = self._failure_script[self._failures_applied]
            if failure.time > self._now:
                break
            self._failures_applied += 1
            lost = self.pool.fail_device(failure.device, self._now)
            report.device_failures += 1
            self._emit(EventKind.DEVICE_FAILURE, detail=float(failure.device))
            before = self.pool.stats.failovers
            latest = self.pool.failover(lost, self._now)
            replaced = self.pool.stats.failovers - before
            report.failovers += replaced
            if replaced:
                self._emit(EventKind.FAILOVER, detail=float(replaced))
            if latest is not None and latest > self._now:
                report.recovery_seconds += latest - self._now
                for observer in self.observers:
                    observer.fault_recovery_span(
                        failure.device, self._now, latest, replaced
                    )

    def _serve_degraded(
        self, expert: ExpertId, layer: int, report: ServingReport
    ) -> None:
        """Serve a failing on-demand load with a substituted expert.

        The nearest ready resident expert of the same layer stands in (the
        SMoE-style fallback); when none is resident the activation is
        served by the always-on shared path.  Either way the token is
        counted as degraded and no transfer is waited on.  The substitute
        is only named in the ``DEGRADED_SERVE`` event, so the search is
        skipped when nothing subscribes.
        """
        report.degraded_tokens += 1
        if not self.observers:
            return
        candidates = [
            e
            for e in self.pool.resident_experts()
            if e.layer == layer and self.pool.is_ready(e, self._now)
        ]
        substitute = None
        if candidates:
            substitute = min(
                candidates,
                key=lambda e: (abs(e.expert - expert.expert), e.expert),
            )
        self._emit(
            EventKind.DEGRADED_SERVE,
            layer=layer,
            expert=expert,
            detail=float(substitute.expert) if substitute else -1.0,
        )

    # ------------------------------------------------------------------ #
    # Batch serving
    # ------------------------------------------------------------------ #

    def _serve_batch(
        self,
        batch: Sequence[Request],
        report: ServingReport,
        respect_arrivals: bool = False,
    ) -> None:
        # Online runs measure latency from the trace arrival time
        # (queueing included, Fig. 10); offline runs measure from the
        # moment the request starts being served (Fig. 9 methodology).
        active = [
            self._admit(r, r.arrival_time if respect_arrivals else self._now)
            for r in batch
        ]
        current = [a for a in active if not a.finished]
        iteration = 0
        while current:
            self._step(current, iteration, report)
            current = [a for a in current if not a.finished]
            iteration += 1
        report.requests.extend(a.metrics for a in active)

    def _admit(self, request: Request, arrival: float) -> _ActiveRequest:
        """Start serving ``request``: its session, its metrics (latency
        measured from ``arrival``) and the policy's request hook."""
        session = self.model.start_session(
            request.cluster,
            request.input_tokens,
            request.output_tokens,
            seed=request.seed,
        )
        metrics = RequestMetrics(
            request_id=request.request_id,
            arrival_time=arrival,
            start_time=self._now,
            ttft=0.0,
        )
        self.policy.on_request_start(request, session.embedding)
        return _ActiveRequest(request, session, metrics)

    def _step(
        self,
        active: list[_ActiveRequest],
        iteration: int,
        report: ServingReport,
    ) -> list[_ActiveRequest]:
        """Run one iteration over ``active`` with its per-request
        bookkeeping; returns the entries that finished.

        The iteration's hit/miss counts are split across its requests:
        exact for single-request iterations, an even split otherwise (the
        engine resolves residency on the batch's activation union).
        """
        start_time = self._now
        hits_before, misses_before = report.hits, report.misses
        self._run_iteration(active, iteration, report)
        share = 1.0 / len(active)
        hit_delta = (report.hits - hits_before) * share
        miss_delta = (report.misses - misses_before) * share
        for entry in active:
            entry.metrics.hits += hit_delta
            entry.metrics.misses += miss_delta
        elapsed = self._now - start_time
        finished = [
            entry
            for entry in active
            if self._end_iteration(entry, elapsed, report)
        ]
        report.iterations += 1
        return finished

    def _run_iteration(
        self,
        active: list[_ActiveRequest],
        iteration: int,
        report: ServingReport,
    ) -> None:
        routings = [entry.session.next_iteration() for entry in active]
        # Continuous batching mixes stages: a request in prefill can share
        # an iteration with decoding requests.  The context's stage is
        # PREFILL only for pure-prefill iterations.
        prefill_tokens = sum(
            r.num_tokens for r in routings if r.stage is Stage.PREFILL
        )
        has_decode = any(r.stage is Stage.DECODE for r in routings)
        stage = Stage.DECODE if has_decode else Stage.PREFILL
        ctx = IterationContext(
            stage=stage,
            iteration_index=iteration,
            requests=[entry.request for entry in active],
            sessions=[entry.session for entry in active],
            routings=routings,
        )
        breakdown = report.breakdown

        self._iteration_counter = iteration
        if self._failure_script:
            self._apply_due_faults(report)
        observers = self.observers
        for observer in observers:
            observer.iteration_begin(
                iteration, self._now, len(active), stage.value
            )
        self._emit(EventKind.ITERATION_START, detail=float(len(active)))
        self._apply(self.policy.on_iteration_start(ctx), breakdown)

        layer_base_seconds = self._mixed_layer_base_seconds(
            prefill_tokens, has_decode
        )
        for layer in range(self.config.num_layers):
            for observer in observers:
                observer.layer_begin(layer, self._now)
            base_seconds = layer_base_seconds
            if self.faults is not None:
                # A straggler GPU gates the whole (model-parallel) layer.
                base_seconds *= self.faults.compute_multiplier(self._now)
            self._now += base_seconds
            self._emit(EventKind.LAYER_START, layer=layer)
            ctx.reveal_layer(layer)
            # Hit/miss is decided the moment the gate names its experts
            # (§3.2 step 4): anything a same-layer action loads afterwards
            # is an on-demand load, not a hit.
            hits_at_gate = self._snapshot_hits(ctx, layer)
            # Protect the named experts before the policy action so
            # same-layer loads cannot evict what is about to be served.
            self.pool.protected = set(hits_at_gate)
            self._apply(self.policy.on_gate_output(ctx, layer), breakdown)
            self._serve_layer(
                layer, prefill_tokens, has_decode, report, hits_at_gate
            )
            for observer in observers:
                observer.layer_end(self._now)

        self._apply(self.policy.on_iteration_end(ctx), breakdown)
        self._emit(EventKind.ITERATION_END)
        for observer in observers:
            observer.iteration_end(self._now, self.pool, self.kv_tracker)
        breakdown.add_sync("compute", 0.0)  # ensure key exists

    def _layer_union(self, ctx: IterationContext, layer: int) -> list[ExpertId]:
        activated = ctx.activated_at(layer)
        ids = self.pool.expert_ids
        base = layer * self.config.experts_per_layer
        if len(activated) == 1:
            # Routing arrays are already sorted and unique per request, so
            # a single-request union needs no set round-trip.
            return [ids[base + j] for j in activated[0].tolist()]
        union: set[int] = set()
        for row in activated:
            union.update(row.tolist())
        return [ids[base + j] for j in sorted(union)]

    def _snapshot_hits(
        self, ctx: IterationContext, layer: int
    ) -> dict[ExpertId, bool]:
        experts = self._layer_union(ctx, layer)
        return dict(zip(experts, self.pool.ready_flags(experts, self._now)))

    def _serve_layer(
        self,
        layer: int,
        prefill_tokens: int,
        has_decode: bool,
        report: ServingReport,
        hits_at_gate: dict[ExpertId, bool],
    ) -> None:
        expert_seconds = self._mixed_expert_seconds(
            prefill_tokens, has_decode, len(hits_at_gate)
        )
        if self.faults is not None:
            expert_seconds *= self.faults.compute_multiplier(self._now)
        sync = report.breakdown.sync
        observers = self.observers
        pool = self.pool
        protected = pool.protected
        on_served = self.policy.on_expert_served
        for expert, hit in hits_at_gate.items():
            serve_start = self._now
            stall: EventKind | None = None
            if hit:
                # No readiness probe: the pool protects a hit from
                # eviction, and an urgent load pauses only copies that
                # have not started, so it stays ready for the whole layer.
                report.hits += 1
                report.layer_hits[layer] += 1
                if observers:
                    self._emit(EventKind.EXPERT_HIT, layer=layer, expert=expert)
            else:
                report.misses += 1
                report.layer_misses[layer] += 1
                self._emit(EventKind.EXPERT_MISS, layer=layer, expert=expert)
                arrival = pool.arrival_time(expert)
                if arrival is None:
                    if self.force_substitution:
                        # Rung-2 degradation: under overload the dispatcher
                        # trades accuracy for latency deliberately — no
                        # transfer is started, the activation is served by
                        # the nearest resident expert.
                        self._serve_degraded(expert, layer, report)
                    else:
                        try:
                            arrival = pool.load_on_demand(expert, self._now)
                        except (TransferError, DeviceLostError):
                            if not self.slo.substitute_on_failure:
                                raise
                            # Degraded serving: stand in a resident expert
                            # rather than blocking on a link that keeps
                            # failing (or no longer exists).
                            self._serve_degraded(expert, layer, report)
                        else:
                            stall = EventKind.ONDEMAND_LOAD
                elif arrival > self._now:
                    # Prefetched but still on the wire: stall until arrival.
                    stall = EventKind.PREFETCH_STALL
                    report.prefetch_stall_misses += 1
            stall_seconds = 0.0
            stall_cause = None
            if stall is not None:
                stall_cause = stall.value
                stall_seconds = arrival - self._now
                sync[stall_cause] += stall_seconds
                self._emit(
                    stall, layer=layer, expert=expert, detail=stall_seconds
                )
                for observer in observers:
                    observer.stall_span(
                        stall_cause, self._now, arrival, expert, layer
                    )
                self._now = arrival
            on_served(expert, hit, self._now)
            self._now += expert_seconds
            sync["compute"] += expert_seconds
            for observer in observers:
                observer.serve_span(
                    serve_start,
                    self._now,
                    expert,
                    layer,
                    hit,
                    stall_seconds,
                    stall_cause,
                )
            # A computed expert no longer needs pinning; releasing it keeps
            # tight per-device budgets feasible for the rest of the layer.
            protected.discard(expert)
        pool.protected = set()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _mixed_layer_base_seconds(
        self, prefill_tokens: int, has_decode: bool
    ) -> float:
        """Per-layer base compute for a possibly mixed-stage iteration."""
        seconds = 0.0
        if has_decode:
            seconds += self.hardware.decode_layer_base_seconds(self.config)
        if prefill_tokens:
            seconds += self.hardware.prefill_layer_base_seconds(
                self.config, prefill_tokens
            )
            if has_decode:
                # Both components carry the per-layer framework overhead;
                # one fused layer pays it once.
                seconds -= self.hardware.framework_layer_overhead_seconds
        return seconds

    def _mixed_expert_seconds(
        self, prefill_tokens: int, has_decode: bool, num_experts: int
    ) -> float:
        """Per-expert compute for a possibly mixed-stage iteration."""
        if num_experts == 0:
            return 0.0
        seconds = 0.0
        if has_decode:
            seconds += self.hardware.decode_expert_seconds(self.config)
        if prefill_tokens:
            seconds += (
                self.hardware.prefill_expert_layer_seconds(
                    self.config, prefill_tokens
                )
                / num_experts
            )
        return seconds

    def _apply(
        self, action: PolicyAction | None, breakdown: LatencyBreakdown
    ) -> None:
        if action is None:
            return
        for name, seconds in action.sync_overheads.items():
            breakdown.add_sync(name, seconds)
            self._now += seconds
        issue_time = self._now
        for name, seconds in action.async_overheads.items():
            breakdown.add_async(name, seconds)
            issue_time += seconds
        if self.prefetch_enabled and action.prefetch_block is not None:
            self._issue_prefetch_block(action, breakdown, issue_time)

    def _issue_prefetch_block(
        self,
        action: PolicyAction,
        breakdown: LatencyBreakdown,
        issue_time: float,
    ) -> None:
        """Issue the action's prefetch block in descending-priority order.

        The stable argsort of negated priorities keeps emission order
        among ties, and experts the pool already tracks are skipped with
        a dict-membership test — exactly the pool's side-effect-free
        ``"present"`` early return.
        """
        ids, priorities = action.prefetch_block
        if len(ids) == 0:
            return
        order = np.argsort(-priorities, kind="stable")
        pool = self.pool
        experts = pool.expert_ids
        tasks = pool._tasks
        load_seconds = self.hardware.expert_load_seconds(self.config)
        latest_arrival = self._now
        scheduled = 0
        # Read-modify-write outside the loop; .get keeps the key absent
        # when nothing schedules, exactly like the legacy add_async calls.
        transfer = breakdown.asynchronous.get("prefetch_transfer", 0.0)
        for flat in ids[order].tolist():
            expert = experts[flat]
            if expert in tasks:
                continue
            if pool.prefetch(expert, issue_time) == "scheduled":
                scheduled += 1
                transfer += load_seconds
                arrival = tasks[expert].end
                if arrival > latest_arrival:
                    latest_arrival = arrival
        if scheduled:
            breakdown.asynchronous["prefetch_transfer"] = transfer
            self._emit(EventKind.PREFETCH_ISSUED, detail=float(scheduled))
        if action.block_until_arrival and latest_arrival > self._now:
            breakdown.add_sync("sync_prefetch_wait", latest_arrival - self._now)
            self._now = latest_arrival
