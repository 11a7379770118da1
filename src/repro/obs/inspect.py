"""The ``repro inspect`` backend: summarize a recorded trace directory.

Works from the Chrome trace-event JSON alone (plus ``report.json`` when
present), so any trace produced by ``repro trace`` — or by a custom
:class:`~repro.obs.trace.Tracer` user following the same span naming —
can be summarized without re-running the simulation:

- top-N slowest iterations,
- stall attribution (which causes ate the critical path, and how much),
- a per-layer hit/stall table,
- a per-device PCIe transfer table.

Pointing it at a :class:`~repro.cluster.metrics.ClusterReport` JSON
(``repro cluster --out``) instead renders the fleet view: a per-replica
summary table, load-imbalance CV and affinity hit rate, plus the
resilience counters, heterogeneous-fleet line, scale events and SLO
burn-rate section when present.  ``repro cluster`` prints the same
rendering for the run it just served.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.errors import TelemetryError

_MICROS = 1e6


def load_trace_events(path: str | Path) -> list[dict]:
    """The ``traceEvents`` array of one Chrome trace-event JSON file."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise TelemetryError(f"{path} is not a Chrome trace-event file")
    return payload["traceEvents"]


def _spans(events: list[dict], category: str) -> list[dict]:
    return [
        e for e in events if e.get("ph") == "X" and e.get("cat") == category
    ]


def _fmt_seconds(us: float) -> str:
    return f"{us / _MICROS:.6f}"


def format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Fixed-width text table lines (header, rule, then rows)."""
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    out = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return out


_table = format_table


def slowest_iterations(events: list[dict], top: int = 5) -> list[str]:
    """Top-``top`` iterations by duration, rendered as table lines."""
    iterations = _spans(events, "iteration")
    iterations.sort(key=lambda e: e.get("dur", 0.0), reverse=True)
    rows = [
        [
            str(e["args"].get("index", "?")),
            e["args"].get("stage", "?"),
            str(e["args"].get("batch", "?")),
            _fmt_seconds(e["ts"]),
            _fmt_seconds(e["dur"]),
        ]
        for e in iterations[:top]
    ]
    return _table(
        ["iteration", "stage", "batch", "start_s", "duration_s"], rows
    )


def stall_attribution(events: list[dict]) -> list[str]:
    """Where critical-path time went: compute vs stall causes."""
    iterations = _spans(events, "iteration")
    total = sum(e.get("dur", 0.0) for e in iterations)
    by_cause: dict[str, tuple[int, float]] = {}
    for span in _spans(events, "stall"):
        count, seconds = by_cause.get(span["name"], (0, 0.0))
        by_cause[span["name"]] = (count + 1, seconds + span.get("dur", 0.0))
    stall_total = sum(seconds for _, seconds in by_cause.values())
    rows = []
    for cause in sorted(by_cause, key=lambda c: -by_cause[c][1]):
        count, seconds = by_cause[cause]
        share = seconds / total if total else 0.0
        rows.append(
            [cause, str(count), _fmt_seconds(seconds), f"{share:6.1%}"]
        )
    other = max(total - stall_total, 0.0)
    rows.append(
        [
            "compute+overheads",
            "",
            _fmt_seconds(other),
            f"{(other / total if total else 0.0):6.1%}",
        ]
    )
    lines = _table(["cause", "count", "seconds", "share"], rows)
    lines.append(f"total iteration time: {_fmt_seconds(total)}s")
    return lines


def per_layer_table(events: list[dict]) -> list[str]:
    """Hits, misses, and stall seconds per model layer."""
    stats: dict[int, dict[str, float]] = defaultdict(
        lambda: {"hits": 0, "misses": 0, "stall_us": 0.0, "serve_us": 0.0}
    )
    for span in _spans(events, "expert"):
        args = span.get("args", {})
        layer = args.get("layer")
        if layer is None:
            continue
        entry = stats[int(layer)]
        if args.get("hit"):
            entry["hits"] += 1
        else:
            entry["misses"] += 1
        entry["stall_us"] += args.get("stall_seconds", 0.0) * _MICROS
        entry["serve_us"] += span.get("dur", 0.0)
    rows = []
    for layer in sorted(stats):
        entry = stats[layer]
        activations = entry["hits"] + entry["misses"]
        rate = entry["hits"] / activations if activations else 0.0
        rows.append(
            [
                str(layer),
                str(int(entry["hits"])),
                str(int(entry["misses"])),
                f"{rate:5.1%}",
                _fmt_seconds(entry["stall_us"]),
                _fmt_seconds(entry["serve_us"]),
            ]
        )
    return _table(
        ["layer", "hits", "misses", "hit_rate", "stall_s", "serve_s"], rows
    )


def per_device_table(events: list[dict]) -> list[str]:
    """Transfer counts, bytes, and busy seconds per PCIe link."""
    stats: dict[int, dict[str, float]] = defaultdict(
        lambda: {"prefetch": 0, "ondemand": 0, "bytes": 0.0, "busy_us": 0.0}
    )
    for span in _spans(events, "transfer"):
        args = span.get("args", {})
        device = int(args.get("device", 0))
        entry = stats[device]
        if span["name"] in ("prefetch", "ondemand"):
            entry[span["name"]] += 1
        entry["bytes"] += args.get("bytes", 0)
        entry["busy_us"] += span.get("dur", 0.0)
    rows = []
    for device in sorted(stats):
        entry = stats[device]
        rows.append(
            [
                str(device),
                str(int(entry["prefetch"])),
                str(int(entry["ondemand"])),
                f"{entry['bytes'] / 1e9:.3f}",
                _fmt_seconds(entry["busy_us"]),
            ]
        )
    return _table(
        ["device", "prefetches", "ondemand", "GB_moved", "busy_s"], rows
    )


def is_cluster_report(payload: object) -> bool:
    """Whether a loaded JSON object is a serialized ClusterReport."""
    return (
        isinstance(payload, dict)
        and "traceEvents" not in payload
        and "routed" in payload
        and "replicas" in payload
    )


def inspect_cluster_report(payload: dict) -> str:
    """Render the fleet summary of one ClusterReport JSON object."""
    lines = [
        f"cluster: system={payload.get('system')} "
        f"router={payload.get('router')} routed={payload.get('routed')} "
        f"served={payload.get('served')} "
        f"shed={payload.get('shed_requests', 0)} "
        f"final_replicas={payload.get('final_replicas')}",
        f"hit_rate={payload.get('hit_rate', 0.0):.4f} "
        f"affinity_hit_rate={payload.get('affinity_hit_rate', 0.0):.3f} "
        f"mean_ttft={payload.get('mean_ttft_seconds', 0.0):.4f}s "
        f"p95_e2e={payload.get('p95_e2e_seconds', 0.0):.4f}s "
        f"load_imbalance_cv={payload.get('load_imbalance', 0.0):.3f}",
        "",
        "== per-replica summary ==",
    ]
    rows = []
    for r in payload.get("replicas", []):
        status = "ok"
        if r.get("crashed"):
            status = "crashed"
        elif r.get("retired"):
            status = "retired"
        elif r.get("draining"):
            status = "draining"
        rows.append(
            [
                str(r.get("replica_id")),
                str(r.get("assigned")),
                str(r.get("served")),
                str(r.get("shed_requests")),
                f"{r.get('hit_rate', 0.0):.4f}",
                f"{r.get('mean_ttft_seconds', 0.0):.4f}",
                f"{r.get('p95_e2e_seconds', 0.0):.4f}",
                status,
            ]
        )
    lines += format_table(
        [
            "replica",
            "assigned",
            "served",
            "shed",
            "hit_rate",
            "mean_ttft_s",
            "p95_e2e_s",
            "status",
        ],
        rows,
    )
    res = payload.get("resilience")
    if res is not None:
        lines += ["", "== resilience counters =="]
        rows = [
            [name, str(res.get(name, 0))]
            for name in (
                "admitted",
                "total_shed",
                "shed_admission",
                "shed_ladder",
                "shed_breaker",
                "shed_replica",
                "failed",
                "retry_dispatches",
                "retry_budget_limit",
                "hedges",
                "hedge_wins",
                "hedges_cancelled",
                "breaker_opens",
                "breaker_closes",
                "crashes",
                "restarts",
                "lost_in_flight",
            )
        ]
        lines += format_table(["counter", "value"], rows)
    fleet = payload.get("fleet")
    if fleet is not None:
        names = "/".join(row["profile"] for row in fleet["profiles"])
        preloaded = sum(row["preloaded"] for row in fleet["profiles"])
        lines += [
            "",
            "== fleet ==",
            f"{names} ${fleet['dollars_per_hour']:.2f}/h "
            f"placement={fleet['placement']} "
            f"cost={fleet['placement_cost']:.4f} "
            f"(seed {fleet['placement_seed_cost']:.4f}) "
            f"preloaded={preloaded}",
        ]
    events = payload.get("scale_events")
    if events:
        lines += ["", "== scale events =="]
        lines += [
            f"t={e['time']:8.2f}s scale:{e['action']} "
            f"replica={e['replica_id']} outstanding={e['outstanding']}"
            for e in events
        ]
    slo = payload.get("slo")
    if slo is not None:
        from repro.obs.slo import render_slo_summary

        lines += ["", "== SLO burn-rate summary =="]
        lines.append(render_slo_summary(slo))
    return "\n".join(lines)


def inspect_path(path: str | Path, top: int = 5) -> str:
    """Render the full inspection summary for a trace file or directory."""
    path = Path(path)
    trace_path = path / "trace.json" if path.is_dir() else path
    if not trace_path.exists():
        raise TelemetryError(f"no trace file at {trace_path}")
    if trace_path.is_file():
        payload = json.loads(trace_path.read_text())
        if is_cluster_report(payload):
            return inspect_cluster_report(payload)
    events = load_trace_events(trace_path)
    lines: list[str] = [f"trace: {trace_path}"]
    report_path = (
        path / "report.json" if path.is_dir() else path.parent / "report.json"
    )
    if report_path.exists():
        report = json.loads(report_path.read_text())
        lines.append(
            f"policy={report.get('policy')} requests={report.get('requests')} "
            f"iterations={report.get('iterations')} "
            f"hit_rate={report.get('hit_rate', 0.0):.3f} "
            f"events_dropped={report.get('events_dropped', 0)}"
        )
    lines += ["", f"== top {top} slowest iterations =="]
    lines += slowest_iterations(events, top)
    lines += ["", "== stall attribution =="]
    lines += stall_attribution(events)
    lines += ["", "== per-layer table =="]
    lines += per_layer_table(events)
    lines += ["", "== per-device PCIe table =="]
    lines += per_device_table(events)
    return "\n".join(lines)
