"""Golden cluster trace: lane structure and span nesting of one run.

A tiny seeded cluster run is exported to Chrome trace-event JSON and the
structure is asserted: the cluster lane carries one enclosing span plus a
route instant per dispatched request, each replica lane carries the serve
spans of exactly the requests routed to it, and every serve span nests
inside the cluster span's bounds.
"""

from __future__ import annotations

from repro.cluster import ClusterSpec, run_cluster
from repro.obs.cluster import MetricsObserver, TracerObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CLUSTER_LANE, Tracer, replica_lane

from tests._cluster_testkit import arrival_trace, tiny_world


def _run_traced(tracer, metrics=None, replicas=2):
    world = tiny_world()
    trace = arrival_trace(world, n=6, gap=0.4)
    observers = [TracerObserver(tracer)]
    if metrics is not None:
        observers.append(MetricsObserver(metrics))
    report = run_cluster(
        world,
        "fmoe",
        ClusterSpec(replicas=replicas, router="round-robin"),
        requests=trace,
        observers=observers,
    )
    return report, trace


class TestClusterTraceStructure:
    def test_lane_names_and_metadata(self):
        tracer = Tracer()
        _run_traced(tracer, replicas=2)
        chrome = tracer.to_chrome()
        names = {
            e["tid"]: e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert names[CLUSTER_LANE] == "cluster"
        assert names[replica_lane(0)] == "replica 0"
        assert names[replica_lane(1)] == "replica 1"

    def test_cluster_span_encloses_all_serve_spans(self):
        tracer = Tracer()
        report, _ = _run_traced(tracer)
        cluster_spans = [
            s for s in tracer.spans if s.tid == CLUSTER_LANE
        ]
        assert len(cluster_spans) == 1
        enclosing = cluster_spans[0]
        assert enclosing.name == "cluster"
        serve_spans = [
            s
            for s in tracer.spans
            if s.tid in (replica_lane(0), replica_lane(1))
        ]
        assert len(serve_spans) == len(report.aggregate.requests)
        for span in serve_spans:
            assert enclosing.start <= span.start
            assert span.end <= enclosing.end

    def test_one_route_instant_per_request(self):
        tracer = Tracer()
        report, trace = _run_traced(tracer)
        routes = [
            i
            for i in tracer.instants
            if i.tid == CLUSTER_LANE and i.name == "route"
        ]
        assert len(routes) == report.routed == len(trace)
        # Round-robin alternates replicas 0, 1, 0, 1, ...
        assert [r.args["replica"] for r in routes] == [
            i % 2 for i in range(len(trace))
        ]
        # Instants land at the dispatch times, in arrival order.
        assert [r.ts for r in routes] == sorted(
            r.arrival_time for r in trace
        )

    def test_serve_spans_match_per_replica_assignment(self):
        tracer = Tracer()
        report, _ = _run_traced(tracer)
        for summary in report.replicas:
            spans = [
                s
                for s in tracer.spans
                if s.tid == replica_lane(summary.replica_id)
            ]
            assert len(spans) == summary.served

    def test_strict_export_has_no_open_spans(self):
        tracer = Tracer()
        _run_traced(tracer)
        chrome = tracer.to_chrome(strict=True)
        assert any(
            e.get("ph") == "X" for e in chrome["traceEvents"]
        )


class TestClusterMetricsRegistry:
    def test_routing_counters_and_replica_gauge(self):
        registry = MetricsRegistry()
        report, _ = _run_traced(Tracer(), metrics=registry)
        routed = registry.counter("repro_cluster_routed_total")
        total = sum(
            routed.value(**dict(key))
            for key in routed.label_keys()
        )
        assert total == report.routed
        gauge = registry.gauge("repro_cluster_replicas")
        assert gauge.value() == report.final_replicas
