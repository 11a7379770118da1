"""The traced run: which public calls of each layer are timed, and the
per-layer metrics derived from them.

Layers follow the package's modules.  Eviction has no public entry point
of its own: it runs inside ``ExpertPool.prefetch``/``load_on_demand``
(their self time), with ``ExpertPool.evict`` and the policy's
``eviction_score_matrix`` as child spans charged to the pool layer too.

Every count taken here is cross-checked against the program's own
counters (:func:`cross_check`), so a miscounted or missed boundary shows
as a failed run rather than as a wrong number.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.cluster import router as router_module
from repro.cluster.driver import ClusterDriver
from repro.cluster.replica import Replica
from repro.core.matcher import ExpertMapMatcher, IncrementalTrajectoryMatch
from repro.core.policy import FMoEPolicy
from repro.core.store import ExpertMapStore
from repro.moe.model import RequestSession
from repro.serving.engine import ServingEngine
from repro.serving.pool import ExpertPool
from repro.workloads import traffic
from spans import SpanTracer

POLICY_HOOKS = (
    "on_iteration_start",
    "on_gate_output",
    "on_iteration_end",
    "on_expert_served",
)
STORE_SEARCHES = (
    "ExpertMapMatcher.match_semantic",
    "IncrementalTrajectoryMatch.observe_layer",
)
POOL_COUNTERS = (
    "prefetch_issued",
    "prefetch_rejected",
    "ondemand_loads",
    "evictions",
)


class LayerProbe:
    """Installs the spans and counters of one traced serve."""

    def __init__(self) -> None:
        self.tracer = SpanTracer()
        self.counts: dict[str, int] = defaultdict(int)
        # Per pool: experts whose scheduled prefetch has not yet been
        # served as a hit, evicted, or replaced by an on-demand load.
        self._pending: dict[int, set] = defaultdict(set)

    # ------------------------------------------------------------------ #
    # Count hooks (run outside the spans they observe)
    # ------------------------------------------------------------------ #

    def _prefetch(self, args, status, _) -> None:
        pool, expert = args[0], args[1]
        if status == "scheduled":
            self.counts["pool.prefetch_scheduled"] += 1
            self._pending[id(pool)].add(expert)
        elif status == "rejected":
            self.counts["pool.prefetch_rejected"] += 1

    def _ondemand(self, args, _result, _) -> None:
        self.counts["pool.ondemand_loads"] += 1
        self._pending[id(args[0])].discard(args[1])

    def _evict(self, args, _result, _) -> None:
        self.counts["pool.evictions"] += 1
        self._pending[id(args[0])].discard(args[1])

    def _served(self, args, _result, _) -> None:
        policy, expert, hit = args[0], args[1], args[2]
        if not hit:
            self.counts["policy.misses"] += 1
            return
        self.counts["policy.hits"] += 1
        pending = self._pending[id(policy.engine.pool)]
        if expert in pending:
            pending.discard(expert)
            self.counts["pool.prefetch_useful"] += 1

    def _action(self, _args, action, _) -> None:
        if action is None:
            return
        named = len(action.prefetch)
        if action.prefetch_block is not None:
            named += len(action.prefetch_block[0])
        self.counts["policy.prefetch_named"] += named

    def _iteration(self, args, action, token) -> None:
        self.counts["engine.iterations"] += 1
        self._action(args, action, token)

    def _store_add(self, _args, _slot, was_full) -> None:
        self.counts["store.adds"] += 1
        if was_full:
            self.counts["store.replacements"] += 1

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Patch every timed boundary (undo with :meth:`uninstall`)."""
        patch = self.tracer.patch
        patch(traffic, "stream_traffic", "traffic")
        patch(traffic, "traffic_census", "traffic")
        patch(RequestSession, "next_iteration", "moe")
        patch(FMoEPolicy, "on_iteration_start", "policy", self._iteration)
        patch(FMoEPolicy, "on_gate_output", "policy", self._action)
        patch(FMoEPolicy, "on_iteration_end", "policy", self._action)
        patch(FMoEPolicy, "on_expert_served", "policy", self._served)
        patch(ExpertMapMatcher, "match_semantic", "store")
        patch(IncrementalTrajectoryMatch, "observe_layer", "store")
        patch(
            ExpertMapStore,
            "add",
            "store",
            self._store_add,
            before=lambda args: args[0].is_full,
        )
        patch(ExpertPool, "prefetch", "pool", self._prefetch)
        patch(ExpertPool, "load_on_demand", "pool", self._ondemand)
        patch(ExpertPool, "ready_flags", "pool")
        patch(ExpertPool, "evict", "pool", self._evict)
        patch(FMoEPolicy, "eviction_score_matrix", "pool")
        patch(ServingEngine, "run", "engine")
        patch(ServingEngine, "serve_step", "engine")
        patch(ClusterDriver, "run", "cluster")
        patch(Replica, "serve", "cluster")
        patch(Replica, "finalize", "cluster")
        for router in vars(router_module).values():
            if isinstance(router, type) and "select" in vars(router):
                patch(router, "select", "cluster")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def metrics(self, outcome, arrivals: int) -> dict[str, float]:
        """Every per-layer metric of the traced serve ``outcome``."""
        c = self.counts
        calls = self.tracer.fn_calls.get
        own = self.tracer.fn_self_s.get
        layer = self.tracer.layer_self_s.get
        breakdown: dict[str, float] = defaultdict(float)
        for report in outcome.reports:
            for name, seconds in report.breakdown.sync.items():
                breakdown[name] += seconds
        waits = outcome.queue_waits
        scheduled = c["pool.prefetch_scheduled"]
        routers = [n for n in self.tracer.fn_self_s if n.endswith(".select")]
        return {
            "traffic.arrivals": arrivals,
            "traffic.self_s": layer("traffic", 0.0),
            "moe.gate_draws": calls("RequestSession.next_iteration", 0),
            "moe.self_s": layer("moe", 0.0),
            "policy.calls": sum(
                calls(f"FMoEPolicy.{hook}", 0) for hook in POLICY_HOOKS
            ),
            "policy.self_s": layer("policy", 0.0),
            "policy.prefetch_named": c["policy.prefetch_named"],
            "store.searches": sum(calls(n, 0) for n in STORE_SEARCHES),
            "store.search_s": sum(own(n, 0.0) for n in STORE_SEARCHES),
            "store.adds": c["store.adds"],
            "store.replacements": c["store.replacements"],
            "store.add_s": own("ExpertMapStore.add", 0.0),
            "pool.prefetch_calls": calls("ExpertPool.prefetch", 0),
            "pool.prefetch_scheduled": scheduled,
            "pool.prefetch_rejected": c["pool.prefetch_rejected"],
            "pool.ondemand_loads": c["pool.ondemand_loads"],
            "pool.evictions": c["pool.evictions"],
            "pool.self_s": layer("pool", 0.0),
            "pool.prefetch_accuracy": (
                c["pool.prefetch_useful"] / scheduled if scheduled else 0.0
            ),
            "engine.iterations": c["engine.iterations"],
            "engine.self_s": layer("engine", 0.0),
            "cluster.dispatches": calls("Replica.serve", 0),
            "cluster.shed": outcome.shed if calls("ClusterDriver.run") else 0,
            "cluster.router_s": sum(own(n, 0.0) for n in routers),
            "cluster.self_s": layer("cluster", 0.0),
            "cluster.report_s": own("Replica.finalize", 0.0),
            "sim.ondemand_stall_s": breakdown["ondemand_load"],
            "sim.prefetch_stall_s": breakdown["prefetch_stall"],
            "sim.compute_s": breakdown["compute"],
            "sim.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        }


def program_counters(engines, stores) -> dict[str, int]:
    """The program's own counters over a set of engines and stores."""
    totals = {f"pool.{name}": 0 for name in POOL_COUNTERS}
    for engine in engines:
        for name in POOL_COUNTERS:
            totals[f"pool.{name}"] += getattr(engine.pool.stats, name)
    totals["store.total_added"] = sum(s.total_added for s in stores)
    totals["store.replacements"] = sum(s.replacements for s in stores)
    return totals


def cross_check(probe: LayerProbe, before, after, outcome) -> list[str]:
    """Traced counts vs the program's counters; returns the mismatches."""
    c, calls = probe.counts, probe.tracer.fn_calls.get
    reports = outcome.reports
    served = [r for report in reports for r in report.requests]
    pairs = {
        "pool.prefetch_scheduled": "pool.prefetch_issued",
        "pool.prefetch_rejected": "pool.prefetch_rejected",
        "pool.ondemand_loads": "pool.ondemand_loads",
        "pool.evictions": "pool.evictions",
        "store.adds": "store.total_added",
        "store.replacements": "store.replacements",
    }
    expected = {
        traced: after[program] - before[program]
        for traced, program in pairs.items()
    }
    expected["engine.iterations"] = sum(r.iterations for r in reports)
    expected["policy.hits"] = sum(r.hits for r in reports)
    expected["policy.misses"] = sum(r.misses for r in reports)
    got = {name: c[name] for name in expected}
    got["moe.gate_draws"] = calls("RequestSession.next_iteration", 0)
    expected["moe.gate_draws"] = sum(
        1 + len(r.decode_latencies) for r in served
    )
    problems = [
        f"{name}: traced {got[name]} != program {expected[name]}"
        for name in expected
        if got[name] != expected[name]
    ]
    tracer = probe.tracer
    drift = abs(tracer.self_seconds() - tracer.root_s)
    if drift > 1e-6 * max(tracer.root_s, 1.0):
        problems.append(
            f"layer self times sum to {tracer.self_seconds():.6f}s, "
            f"traced wall is {tracer.root_s:.6f}s"
        )
    negative = [n for n, s in tracer.fn_self_s.items() if s < 0]
    if negative:
        problems.append(f"negative self time in {negative}")
    return problems
