"""Multi-replica cluster serving simulation (fleet-level fMoE).

The paper evaluates one serving instance; this package scales the same
simulation out to a fleet: N independent engine replicas on one shared
virtual clock, pluggable routers (round-robin, least-outstanding,
semantic-affinity routing against per-replica expert-map stores, and
cost-aware routing priced by per-replica hardware), an optional
drain-before-kill autoscaler (with a price-aware SLO-per-dollar drain
policy), per-replica hardware profiles, an expert-placement layer
(:mod:`repro.cluster.placement`), and cluster-level metrics — including
the affinity hit rate, load-imbalance coefficient, and SLO-per-dollar
figures the router and fleet experiments report.
"""

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.config import (
    AutoscalerConfig,
    ClusterSpec,
    PLACEMENT_NAMES,
    REPLICA_PROFILES,
    ReplicaProfile,
    ResilienceConfig,
    ROUTER_NAMES,
    get_profile,
)
from repro.cluster.driver import ClusterDriver, run_cluster
from repro.cluster.observer import ClusterObserver
from repro.cluster.metrics import (
    BreakerTransition,
    ClusterReport,
    DispatchRecord,
    FleetReport,
    RecoveryEvent,
    ReplicaSummary,
    RequestOutcome,
    ResilienceReport,
    ScaleEvent,
    cluster_report_to_dict,
    cluster_report_to_json,
)
from repro.cluster.placement import (
    ClusterDemand,
    PlacementPlan,
    ReplicaCost,
    build_plan,
    check_plan,
    demand_from_traces,
    replica_costs,
)
from repro.cluster.replica import Replica
from repro.cluster.resilience import (
    RUNG_NAMES,
    CircuitBreaker,
    DegradationLadder,
    DispatchBudget,
    TokenBucket,
)
from repro.cluster.router import (
    CostAwareRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    RouteDecision,
    Router,
    SemanticAffinityRouter,
    make_router,
    pick_secondary,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "ClusterDemand",
    "ClusterDriver",
    "ClusterObserver",
    "ClusterReport",
    "ClusterSpec",
    "CostAwareRouter",
    "DegradationLadder",
    "DispatchBudget",
    "DispatchRecord",
    "FleetReport",
    "LeastOutstandingRouter",
    "PLACEMENT_NAMES",
    "PlacementPlan",
    "RecoveryEvent",
    "ReplicaSummary",
    "Replica",
    "ReplicaCost",
    "ReplicaProfile",
    "REPLICA_PROFILES",
    "RequestOutcome",
    "ResilienceConfig",
    "ResilienceReport",
    "ROUTER_NAMES",
    "RoundRobinRouter",
    "RouteDecision",
    "Router",
    "RUNG_NAMES",
    "ScaleEvent",
    "SemanticAffinityRouter",
    "TokenBucket",
    "build_plan",
    "check_plan",
    "cluster_report_to_dict",
    "cluster_report_to_json",
    "demand_from_traces",
    "get_profile",
    "make_router",
    "pick_secondary",
    "replica_costs",
    "run_cluster",
]
