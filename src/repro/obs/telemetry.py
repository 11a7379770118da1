"""The telemetry bundle the serving stack threads through.

One :class:`Telemetry` object owns the three observability primitives —
an event :class:`~repro.obs.sinks.Sink`, a :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` — and implements the
:class:`~repro.serving.events.EngineObserver` hooks the engine, pool,
scheduler and fault layer reach through ``engine.subscribe``.
Everything is driven by the virtual clock and never advances it, so a
subscribed telemetry object observes a run without perturbing a single
latency.

The standard instrument set (all ``repro_``-prefixed) is registered up
front; event-derived counters are updated centrally in :meth:`emit`, so
emitting components never touch metrics directly.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SlidingWindowRatio,
)
from repro.obs.sinks import NullSink, Sink
from repro.obs.trace import (
    ENGINE_LANE,
    Tracer,
    device_lane,
    request_lane,
)
from repro.serving.events import EngineObserver, Event, EventKind


class Telemetry(EngineObserver):
    """Sink + tracer + metrics, wired for the serving stack."""

    def __init__(
        self,
        sink: Sink | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        sample_interval_seconds: float = 0.05,
        hit_window_seconds: float = 1.0,
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sample_interval_seconds = sample_interval_seconds
        self.tracer.set_lane_name(ENGINE_LANE, "engine")

        m = self.metrics
        self.hits = m.counter(
            "repro_expert_hits_total", "Expert activations served from cache."
        )
        self.misses = m.counter(
            "repro_expert_misses_total", "Expert activations that missed."
        )
        self.ondemand_loads = m.counter(
            "repro_ondemand_loads_total", "Blocking on-demand expert loads."
        )
        self.prefetch_stalls = m.counter(
            "repro_prefetch_stalls_total",
            "Misses that stalled on an in-flight prefetch.",
        )
        self.prefetches = m.counter(
            "repro_prefetch_issued_total", "Prefetch copies scheduled."
        )
        self.evictions = m.counter(
            "repro_evictions_total", "Experts evicted from the cache."
        )
        self.shed = m.counter(
            "repro_requests_shed_total", "Requests dropped past the SLO budget."
        )
        self.dispatches = m.counter(
            "repro_requests_dispatched_total", "Requests handed to the engine."
        )
        self.device_failures = m.counter(
            "repro_device_failures_total", "Whole-GPU losses applied."
        )
        self.failovers = m.counter(
            "repro_failovers_total", "Lost residents re-placed on survivors."
        )
        self.degraded = m.counter(
            "repro_degraded_tokens_total",
            "Activations served by a substituted expert.",
        )
        self.slo_violations = m.counter(
            "repro_slo_violations_total", "Missed TTFT deadlines."
        )
        self.requests_finished = m.counter(
            "repro_requests_finished_total", "Requests served to completion."
        )

        self.iteration_seconds = m.histogram(
            "repro_iteration_seconds",
            "Wall (virtual) seconds per inference iteration.",
            DEFAULT_LATENCY_BUCKETS,
        )
        self.stall_seconds = m.histogram(
            "repro_stall_seconds",
            "Critical-path stall seconds by cause.",
            DEFAULT_LATENCY_BUCKETS,
        )
        self.ttft_seconds = m.histogram(
            "repro_ttft_seconds", "Time-to-first-token.", DEFAULT_LATENCY_BUCKETS
        )
        self.tpot_seconds = m.histogram(
            "repro_tpot_seconds",
            "Per-decode-iteration latency.",
            DEFAULT_LATENCY_BUCKETS,
        )

        self.cache_used_bytes = m.gauge(
            "repro_cache_used_bytes", "Expert-cache bytes in use per GPU."
        )
        self.kv_bytes = m.gauge(
            "repro_kv_bytes", "Live KV-cache bytes across active requests."
        )
        self.queue_depth = m.gauge(
            "repro_queue_depth", "Arrived-but-undispatched requests."
        )
        self.inflight_bytes = m.gauge(
            "repro_inflight_transfer_bytes",
            "Bytes currently on (or queued for) each PCIe link.",
        )
        self.link_bytes = m.gauge(
            "repro_pcie_bytes_transferred",
            "Cumulative bytes copied over each PCIe link.",
        )
        self.bandwidth_multiplier = m.gauge(
            "repro_bandwidth_multiplier",
            "Fault-injected PCIe bandwidth factor per link (1 = healthy).",
        )
        self.compute_multiplier = m.gauge(
            "repro_compute_multiplier",
            "Fault-injected fleet compute-time factor (1 = healthy).",
        )
        self.hit_rate_window = m.gauge(
            "repro_hit_rate_window",
            f"Expert hit rate over a {hit_window_seconds:g}s sliding window.",
        )
        self.events_dropped = m.gauge(
            "repro_events_dropped", "Events the attached sink discarded."
        )

        self._hit_window = SlidingWindowRatio(hit_window_seconds)
        self._last_sample: float | None = None
        self._last_time = 0.0
        #: kind, device, expert, live task — flushed into trace lanes at
        #: finalize time because task bounds shift while transfers pause.
        self._transfers: dict[int, tuple[str, int, object, object]] = {}
        self._request_lanes: set[int] = set()
        self._finalized = False

    @property
    def dropped(self) -> int:
        """Events the sink discarded."""
        return getattr(self.sink, "dropped", 0)

    # ------------------------------------------------------------------ #
    # Event stream (counters derive here, centrally)
    # ------------------------------------------------------------------ #

    def emit(self, event: Event) -> None:
        """Forward one engine event to the sink and derived counters."""
        self._last_time = max(self._last_time, event.time)
        self.sink.emit(event)
        kind = event.kind
        layer = "" if event.layer is None else str(event.layer)
        if kind is EventKind.EXPERT_HIT:
            self.hits.inc(layer=layer)
            self._hit_window.record(event.time, True)
        elif kind is EventKind.EXPERT_MISS:
            self.misses.inc(layer=layer)
            self._hit_window.record(event.time, False)
        elif kind is EventKind.ONDEMAND_LOAD:
            self.ondemand_loads.inc()
            if event.detail is not None:
                self.stall_seconds.observe(event.detail, cause="ondemand")
        elif kind is EventKind.PREFETCH_STALL:
            self.prefetch_stalls.inc()
            if event.detail is not None:
                self.stall_seconds.observe(event.detail, cause="prefetch")
        elif kind is EventKind.PREFETCH_ISSUED:
            self.prefetches.inc(event.detail or 1.0)
        elif kind is EventKind.EVICTION:
            self.evictions.inc()
        elif kind is EventKind.REQUEST_SHED:
            self.shed.inc()
        elif kind is EventKind.REQUEST_DISPATCH:
            self.dispatches.inc()
        elif kind is EventKind.DEVICE_FAILURE:
            self.device_failures.inc()
        elif kind is EventKind.FAILOVER:
            self.failovers.inc(event.detail or 1.0)
        elif kind is EventKind.DEGRADED_SERVE:
            self.degraded.inc()
        elif kind is EventKind.SLO_VIOLATION:
            self.slo_violations.inc()

    # ------------------------------------------------------------------ #
    # Span surface (called by the engine)
    # ------------------------------------------------------------------ #

    def iteration_begin(
        self, index: int, now: float, batch_size: int, stage: str
    ) -> None:
        """Open the iteration span on the engine lane."""
        self.tracer.begin(
            "iteration",
            now,
            category="iteration",
            index=index,
            batch=batch_size,
            stage=stage,
        )

    def iteration_end(self, now: float, pool=None, kv_tracker=None) -> None:
        """Close the iteration span, record its duration histogram, and
        sample the time series if the interval elapsed."""
        span = self.tracer.end(now)
        self.iteration_seconds.observe(span.duration)
        self._last_time = max(self._last_time, now)
        self.maybe_sample(now, pool=pool, kv_tracker=kv_tracker)

    def layer_begin(self, layer: int, now: float) -> None:
        """Open one layer's span inside the current iteration."""
        self.tracer.begin("layer", now, category="layer", layer=layer)

    def layer_end(self, now: float) -> None:
        """Close the current layer span."""
        self.tracer.end(now)

    def serve_span(
        self,
        start: float,
        end: float,
        expert: object,
        layer: int,
        hit: bool,
        stall_seconds: float = 0.0,
        stall_cause: str | None = None,
    ) -> None:
        """One expert activation's serve window (stall included)."""
        self.tracer.complete(
            "serve",
            start,
            end,
            category="expert",
            expert=str(expert),
            layer=layer,
            hit=hit,
            stall_seconds=stall_seconds,
            stall_cause=stall_cause or "",
        )

    def stall_span(
        self, name: str, start: float, end: float, expert: object, layer: int
    ) -> None:
        """An on-demand load or prefetch stall nested inside a serve."""
        self.tracer.complete(
            name,
            start,
            end,
            category="stall",
            expert=str(expert),
            layer=layer,
        )

    def request_span(
        self,
        request_id: int,
        start: float,
        end: float,
        ttft: float,
        decode_iterations: int,
    ) -> None:
        """One request's lifetime span on its own lane."""
        lane = request_lane(request_id)
        if request_id not in self._request_lanes:
            self._request_lanes.add(request_id)
            self.tracer.set_lane_name(lane, f"request {request_id}")
        self.tracer.complete(
            "request",
            start,
            end,
            tid=lane,
            category="request",
            request_id=request_id,
            ttft_seconds=ttft,
            decode_iterations=decode_iterations,
        )
        self.requests_finished.inc()

    def fault_recovery_span(
        self, device: int, start: float, end: float, replaced: int
    ) -> None:
        """The window from a device loss to its last re-placement copy."""
        self.tracer.complete(
            "fault_recovery",
            start,
            end,
            tid=self._device_lane(device),
            category="fault",
            device=device,
            replaced=replaced,
        )

    # ------------------------------------------------------------------ #
    # Transfer tracking (reported by the engine's pool)
    # ------------------------------------------------------------------ #

    def _device_lane(self, device: int) -> int:
        lane = device_lane(device)
        self.tracer.set_lane_name(lane, f"pcie gpu{device}")
        return lane

    def note_transfer(
        self, kind: str, device: int, expert: object, task: object
    ) -> None:
        """Register a live transfer task for flush at finalize time.

        Task start/end shift in place while urgent loads pause queued
        prefetches, so spans are materialized only when the run is over
        and the bounds are final.
        """
        self._transfers[id(task)] = (kind, device, expert, task)

    def drop_transfer(self, task: object) -> None:
        """Forget a cancelled (or lost) transfer; no span is recorded."""
        self._transfers.pop(id(task), None)

    # ------------------------------------------------------------------ #
    # Gauges and time-series sampling
    # ------------------------------------------------------------------ #

    def request_dispatch(
        self, now: float, request_id: int, discipline: str, queue_depth: int
    ) -> None:
        """Scheduler hook: queue-depth gauge plus a ``dispatch`` instant."""
        self.queue_depth.set(queue_depth)
        self._last_time = max(self._last_time, now)
        self.tracer.instant(
            "dispatch",
            now,
            category="scheduler",
            request_id=request_id,
            discipline=discipline,
            queue_depth=queue_depth,
        )

    def observe_ttft(self, seconds: float) -> None:
        """Time-to-first-token histogram."""
        self.ttft_seconds.observe(seconds)

    def observe_tpot(self, seconds: float) -> None:
        """Per-decode-iteration latency histogram."""
        self.tpot_seconds.observe(seconds)

    def set_kv_bytes(self, current_bytes: int) -> None:
        """Live KV footprint after a mutation."""
        self.kv_bytes.set(current_bytes)

    def maybe_sample(self, now: float, pool=None, kv_tracker=None) -> bool:
        """Sample the time series if the interval elapsed; True when taken."""
        if (
            self._last_sample is not None
            and now - self._last_sample < self.sample_interval_seconds
        ):
            return False
        self.sample(now, pool=pool, kv_tracker=kv_tracker)
        return True

    def sample(self, now: float, pool=None, kv_tracker=None) -> None:
        """Refresh provider-backed gauges, then snapshot every instrument."""
        self._last_time = max(self._last_time, now)
        if pool is not None:
            faults = getattr(pool, "faults", None)
            for device in pool.devices:
                label = str(device.index)
                self.cache_used_bytes.set(device.used_bytes, device=label)
                channel = device.channel
                pending = sum(
                    t.num_bytes for t in channel.pending_tasks(now)
                )
                self.inflight_bytes.set(pending, device=label)
                self.link_bytes.set(channel.bytes_transferred, device=label)
                if faults is not None:
                    self.bandwidth_multiplier.set(
                        faults.bandwidth_multiplier(device.index, now),
                        device=label,
                    )
            if faults is not None:
                self.compute_multiplier.set(faults.compute_multiplier(now))
        if kv_tracker is not None:
            self.kv_bytes.set(kv_tracker.current_bytes())
        self.hit_rate_window.set(self._hit_window.value(now))
        self.events_dropped.set(self.dropped)
        self.metrics.sample(now)
        self._last_sample = now

    # ------------------------------------------------------------------ #
    # Finalization and export
    # ------------------------------------------------------------------ #

    @property
    def last_time(self) -> float:
        """Latest virtual time any instrumentation point reported."""
        return self._last_time

    def finalize(self, now: float | None = None) -> None:
        """Flush live transfer spans and take a closing sample (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        end_time = self._last_time if now is None else now
        for kind, device, expert, task in self._transfers.values():
            self.tracer.complete(
                kind,
                task.start,
                task.end,
                tid=self._device_lane(device),
                category="transfer",
                expert=str(expert),
                device=device,
                bytes=task.num_bytes,
            )
        self._transfers.clear()
        self.events_dropped.set(self.dropped)
        self.metrics.sample(max(end_time, self._last_sample or 0.0))
        self.sink.close()

    def write_outputs(self, out_dir: str | Path) -> dict[str, Path]:
        """Write trace + metrics files into ``out_dir``; returns the paths.

        Calls :meth:`finalize` first, so it is safe (and expected) to call
        exactly once after the run.
        """
        self.finalize()
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "trace": self.tracer.write_chrome(out / "trace.json"),
            "metrics_prom": self.metrics.write_prometheus(
                out / "metrics.prom"
            ),
            "metrics_jsonl": self.metrics.write_series_jsonl(
                out / "metrics.jsonl"
            ),
        }
        sink_path = getattr(self.sink, "path", None)
        if sink_path is not None:
            paths["events"] = Path(sink_path)
        return paths
