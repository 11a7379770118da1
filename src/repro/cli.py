"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands (one per paper table or
figure, plus the chaos, cluster, storm, fleet, observability and
validation tools).  Each is one :data:`COMMANDS` entry, registered by
:func:`command` on its handler.  Every name-valued option takes its
names from the registry that defines them and accepts unambiguous
prefixes, so an unknown name is a usage error before any world is built.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.cluster.config import (
    PLACEMENT_NAMES,
    REPLICA_PROFILES,
    ROUTER_NAMES,
)
from repro.experiments.common import (
    POLICY_NAMES,
    SYSTEM_NAMES,
    ExperimentConfig,
    build_world,
    online_trace,
    run_system,
)
from repro.experiments.faults import default_scenarios
from repro.experiments.fleet import default_fleet_shapes, fleet_rows
from repro.experiments.resilience import default_storm_scenarios, storm_rows
from repro.moe.config import ALL_MODELS
from repro.workloads.datasets import DATASET_PROFILES

#: Adds one or more arguments to a subcommand's parser.
Group = Callable[[argparse.ArgumentParser], object]


MODEL_NAMES = tuple(model.name for model in ALL_MODELS)
DATASET_NAMES = tuple(DATASET_PROFILES)
# Scenario and shape names do not depend on the seed the scenarios are
# built with; handlers rebuild the scenarios from the run's seed.
FAULT_SCENARIO_NAMES = tuple(s.name for s in default_scenarios())
STORM_SCENARIO_NAMES = tuple(s.name for s in default_storm_scenarios())
FLEET_SHAPE_NAMES = tuple(shape.name for shape in default_fleet_shapes())


def _prefix_choice(choices: tuple[str, ...]):
    """An argparse ``type`` accepting any unambiguous prefix of ``choices``."""

    def resolve(value: str) -> str:
        if value in choices:
            return value
        matches = [c for c in choices if c.startswith(value)]
        if len(matches) == 1:
            return matches[0]
        kind = "ambiguous" if matches else "unknown"
        raise argparse.ArgumentTypeError(
            f"{kind} choice {value!r}; choose from: {', '.join(choices)}"
        )

    return resolve


def _arg(*flags: str, **options) -> Group:
    """A group of one argument."""
    return lambda parser: parser.add_argument(*flags, **options)


def _flag(flag: str, help: str) -> Group:
    """An on/off switch."""
    return _arg(flag, action="store_true", help=help)


def _names(flag: str, names: tuple[str, ...], **options) -> Group:
    """A list of names from ``names`` (unambiguous prefixes accepted)."""
    return _arg(flag, nargs="*", type=_prefix_choice(names), **options)


_dataset_arg = _arg(
    "--dataset", default="lmsys-chat-1m", type=_prefix_choice(DATASET_NAMES)
)


def _world_args(parser: argparse.ArgumentParser) -> None:
    """The :class:`ExperimentConfig` options; marks a world command."""
    # ``--model mixtral`` style: unambiguous prefixes are accepted.
    parser.add_argument(
        "--model",
        default="mixtral-8x7b",
        type=_prefix_choice(MODEL_NAMES),
    )
    _dataset_arg(parser)
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--test-requests", type=int, default=6)
    parser.add_argument(
        "--cache-fraction",
        type=float,
        default=None,
        help="expert-cache budget as a fraction of total expert bytes "
        "(default: 0.9x one iteration's working set)",
    )
    parser.add_argument("--prefetch-distance", type=int, default=3)
    parser.add_argument("--store-capacity", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)


_jobs_arg = _arg(
    "--jobs",
    type=int,
    default=1,
    help="workers for independent simulation cells "
    "(0 = all cores; results are identical at any level)",
)


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    """``--validate`` and ``--jobs``, which every sweep command takes."""
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach runtime invariant monitors to every cell and fail "
        "on the first breach (results are unchanged otherwise)",
    )
    _jobs_arg(parser)


def _deadline_arg(default: float) -> Group:
    return _arg(
        "--deadline-multiplier",
        type=float,
        default=default,
        help="SLO deadline as a multiple of the healthy reference run's "
        "p95 latency (floored at 1 s)",
    )


def _trace_args(requests: int, rate: float) -> Group:
    """The generated online trace: its length and mean arrival rate."""

    def add(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--trace-requests", type=int, default=requests)
        parser.add_argument("--rate", type=float, default=rate)

    return add


_system_arg = _arg(
    "--system", default="fmoe", type=_prefix_choice(POLICY_NAMES)
)


def _systems_arg(default: list[str] | None = None) -> Group:
    return _names("--systems", POLICY_NAMES, default=default)


def _replica_args(parser: argparse.ArgumentParser) -> None:
    """The served cluster's size, router and system."""
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument(
        "--router",
        default="round-robin",
        type=_prefix_choice(ROUTER_NAMES),
        help="placement policy (unambiguous prefixes accepted)",
    )
    _system_arg(parser)


def _chaos_args(parser: argparse.ArgumentParser) -> None:
    """Cluster-scope chaos and the resilience layer that answers it."""
    parser.add_argument(
        "--chaos",
        default=None,
        type=_prefix_choice(STORM_SCENARIO_NAMES),
        help="subject the fleet to a named storm scenario "
        "(see `repro storm-lite`)",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="enable the cluster resilience layer (admission control, "
        "degradation ladder, retry budgets, circuit breakers)",
    )


@dataclass(frozen=True)
class Command:
    """One subcommand: its name, help, argument groups and handler.

    The groups add the subcommand's arguments in order.  A command whose
    groups include :func:`_world_args` is a world command: :func:`main`
    builds its :class:`ExperimentConfig` once and passes it to the
    handler; every other handler gets None.
    """

    name: str
    help: str
    handler: Callable[[argparse.Namespace, ExperimentConfig | None], int]
    groups: tuple[Group, ...] = ()


#: Every subcommand, in ``--help`` order.
COMMANDS: list[Command] = []


def command(name: str, help: str, *groups: Group):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler):
        COMMANDS.append(Command(name, help, handler, groups))
        return handler

    return register


def _lookup(items: Iterable, names: Sequence[str] | None):
    """The ``items`` argparse resolved ``names`` to, in order; None
    (the runner's full default set) when none are named."""
    if not names:
        return None
    by_name = {item.name: item for item in items}
    return tuple(by_name[name] for name in names)


def _write_json(path: str, payload: object, sort_keys: bool = True) -> None:
    """Write a command's payload as indented JSON."""
    target = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=sort_keys)
    target.write_text(text + "\n")
    print(f"wrote {target}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        model_name=args.model,
        dataset=args.dataset,
        num_requests=args.requests,
        num_test_requests=args.test_requests,
        cache_fraction=args.cache_fraction,
        prefetch_distance=args.prefetch_distance,
        store_capacity=args.store_capacity,
        seed=args.seed,
    )


@command("models", "print Table-1 model characteristics")
def cmd_models(args: argparse.Namespace, config: None) -> int:
    """Print the Table-1 model characteristics."""
    from repro.experiments.table1 import table1_rows

    for row in table1_rows():
        print(row.format())
    return 0


@command(
    "compare",
    "offline comparison (Fig. 9 style)",
    _world_args,
    _systems_arg(),
    _flag("--chart", "render terminal bar charts"),
)
def cmd_compare(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Offline fMoE-vs-baselines comparison (Fig. 9 style)."""
    world = build_world(config)
    systems = args.systems or list(SYSTEM_NAMES)
    reports = {}
    for system in systems:
        report = run_system(world, system)
        reports[system] = report
        print(
            f"{system:22s} TTFT={report.mean_ttft():7.3f}s "
            f"TPOT={report.mean_tpot() * 1000:8.1f}ms "
            f"hit={report.hit_rate:5.3f}"
        )
    if args.chart:
        from repro.viz import bar_chart

        print("\nTPOT (ms):")
        print(
            bar_chart(
                {s: r.mean_tpot() * 1000 for s, r in reports.items()},
                unit="ms",
                fmt="{:.1f}",
            )
        )
        print("\nexpert hit rate:")
        print(bar_chart({s: r.hit_rate for s, r in reports.items()}))
    return 0


@command(
    "overall",
    "full Fig. 9 (model x dataset x system) table",
    _world_args,
    _names(
        "--models",
        MODEL_NAMES,
        default=["mixtral-8x7b", "qwen1.5-moe", "phi-3.5-moe"],
    ),
    _names(
        "--datasets", DATASET_NAMES, default=["lmsys-chat-1m", "sharegpt"]
    ),
    _systems_arg(),
    _flag("--summary", "print fMoE's mean improvement over each baseline"),
    _sweep_args,
)
def cmd_overall(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """The full Fig. 9 table: every (model, dataset, system) cell."""
    from repro.experiments.overall import improvement_summary, overall_rows

    rows = overall_rows(
        models=tuple(args.models),
        datasets=tuple(args.datasets),
        systems=tuple(args.systems or SYSTEM_NAMES),
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    if args.summary:
        print("\nfMoE mean improvement over each baseline:")
        for system, metrics in sorted(improvement_summary(rows).items()):
            print(
                f"  {system:22s} TTFT -{metrics['ttft'] * 100:5.1f}% "
                f"TPOT -{metrics['tpot'] * 100:5.1f}% "
                f"hit +{metrics['hit'] * 100:5.1f}%"
            )
    return 0


@command(
    "online",
    "online trace replay (Fig. 10 style)",
    _world_args,
    _systems_arg(),
    _trace_args(requests=32, rate=2.0),
    _arg(
        "--trace-file",
        default=None,
        help="replay a CSV trace (timestamp,input_tokens,output_tokens) "
        "instead of generating one",
    ),
)
def cmd_online(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Cold-start online trace replay (Fig. 10 style)."""
    import numpy as np

    world = build_world(config.with_(num_requests=8))
    if args.trace_file:
        from repro.workloads.tracefile import read_trace_csv

        trace = read_trace_csv(
            args.trace_file,
            profile=DATASET_PROFILES[args.dataset],
            seed=args.seed + 10,
            max_requests=args.trace_requests,
        )
    else:
        trace = online_trace(
            config, args.trace_requests, args.rate, seed_offset=10
        )
    for system in args.systems or list(SYSTEM_NAMES):
        report = run_system(
            world, system, warm=False, requests=trace, respect_arrivals=True
        )
        p50, p90 = np.percentile(report.e2e_latencies(), [50, 90])
        print(f"{system:22s} p50={p50:8.2f}s p90={p90:8.2f}s")
    return 0


@command(
    "sweep",
    "cache-budget sweep (Fig. 11 style)",
    _world_args,
    _arg("--limits", nargs="*", type=float, default=[6, 12, 24, 48, 96]),
    _sweep_args,
)
def cmd_sweep(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """TPOT vs expert-cache budget sweep (Fig. 11 style)."""
    from repro.experiments.cache_limits import tpot_vs_cache_limit

    rows = tpot_vs_cache_limit(
        models=(args.model,),
        dataset=args.dataset,
        limits_gb=tuple(args.limits),
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(
            f"{row.system:22s} {row.cache_gb:6.1f} GB: "
            f"TPOT={row.tpot_seconds * 1000:8.1f}ms hit={row.hit_rate:5.3f}"
        )
    return 0


@command("entropy", "entropy analysis (Fig. 3b style)", _world_args)
def cmd_entropy(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Coarse vs fine entropy analysis (Fig. 3b style)."""
    from repro.experiments.entropy_motivation import entropy_comparison

    rows = entropy_comparison(
        models=(args.model,),
        datasets=(args.dataset,),
        num_requests=args.requests,
        seed=args.seed,
    )
    for row in rows:
        print(
            f"{row.model:14s} {row.dataset:14s} "
            f"coarse={row.coarse_mean_entropy:5.2f} "
            f"fine={row.fine_mean_entropy:5.2f} "
            f"(max {row.max_entropy:4.2f} bits)"
        )
    return 0


@command("pearson", "correlation analysis (Fig. 8 style)", _world_args)
def cmd_pearson(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Similarity/hit-rate Pearson coefficients (Fig. 8 style)."""
    from repro.experiments.pearson import pearson_rows

    rows = pearson_rows(
        models=(args.model,),
        datasets=(args.dataset,),
        distance=args.prefetch_distance,
        num_requests=args.requests,
        seed=args.seed,
    )
    for row in rows:
        print(
            f"{row.model:14s} {row.dataset:14s} "
            f"semantic={row.semantic_pearson:+5.2f} "
            f"trajectory={row.trajectory_pearson:+5.2f}"
        )
    return 0


@command(
    "grid",
    "sweep (model, dataset, system, budget) grids to CSV",
    _world_args,
    _names("--models", MODEL_NAMES, default=["mixtral-8x7b"]),
    _names("--datasets", DATASET_NAMES, default=["lmsys-chat-1m"]),
    _systems_arg(default=["fmoe", "moe-infinity"]),
    _arg("--budgets", nargs="*", type=float, default=None),
    _arg("--output", default=None),
    _sweep_args,
)
def cmd_grid(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Sweep (model, dataset, system, budget) grids to CSV."""
    from repro.experiments.grid import grid_to_csv, run_grid

    cells = run_grid(
        models=args.models,
        datasets=args.datasets,
        systems=args.systems,
        budgets_gb=args.budgets or None,
        config=config,
        jobs=args.jobs,
        validate=args.validate,
    )
    text = grid_to_csv(cells, args.output)
    if args.output:
        print(f"wrote {len(cells)} cells to {args.output}")
    else:
        print(text, end="")
    return 0


@command(
    "report",
    "collate benchmarks/results into one markdown report",
    _arg("--results-dir", default="benchmarks/results"),
    _arg("--output", default="REPRODUCTION_REPORT.md"),
)
def cmd_report(args: argparse.Namespace, config: None) -> int:
    """Collate benchmarks/results into one markdown report."""
    from repro.experiments.report import write_report

    path = write_report(args.results_dir, args.output)
    print(f"wrote {path}")
    return 0


@command(
    "tune", "profile candidate prefetch distances (§6.1 setup)", _world_args
)
def cmd_tune(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Profile candidate prefetch distances (the paper's §6.1 step)."""
    from repro.core.autotune import tune_prefetch_distance
    from repro.workloads.profiler import collect_history

    world = build_world(config)
    probes = collect_history(
        world.fresh_model(), world.test_requests[: args.test_requests]
    )
    result = tune_prefetch_distance(
        world.model_config,
        world.warm_traces,
        probes,
        store_capacity=config.store_capacity,
    )
    for score in result.scores:
        marker = " <== best" if score.distance == result.best_distance else ""
        print(
            f"d={score.distance}: hit={score.hit_rate:5.3f} "
            f"coverage={score.coverage:5.3f} "
            f"utility={score.utility:5.3f}{marker}"
        )
    return 0


@command(
    "faults",
    "chaos matrix: systems under fault scenarios",
    _world_args,
    _systems_arg(),
    _names(
        "--scenarios",
        FAULT_SCENARIO_NAMES,
        help="subset of scenario names (default: the full matrix)",
    ),
    _trace_args(requests=24, rate=2.0),
    _sweep_args,
)
def cmd_faults(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Chaos matrix: systems under scripted fault scenarios."""
    from repro.experiments.faults import CHAOS_SYSTEMS, chaos_rows

    rows = chaos_rows(
        systems=tuple(args.systems or CHAOS_SYSTEMS),
        scenarios=_lookup(default_scenarios(config.seed), args.scenarios),
        config=config,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    return 0


def _serve_cluster(
    args: argparse.Namespace,
    config: ExperimentConfig,
    observers=(),
    validate: bool = False,
    **spec_options,
):
    """Replay the command's online trace through the cluster that the
    shared cluster arguments and ``spec_options`` describe, under the
    ``--chaos`` scenario's cluster faults when one is named."""
    from repro.cluster import ClusterSpec, ResilienceConfig, run_cluster

    spec = ClusterSpec(
        replicas=args.replicas,
        router=args.router,
        resilience=ResilienceConfig() if args.resilience else None,
        **spec_options,
    )
    cluster_faults = None
    if args.chaos:
        (chaos,) = _lookup(default_storm_scenarios(config.seed), [args.chaos])
        cluster_faults = chaos.cluster_faults
    trace = online_trace(
        config, args.trace_requests, args.rate, seed_offset=10
    )
    return run_cluster(
        build_world(config),
        args.system,
        spec,
        requests=trace,
        cluster_faults=cluster_faults,
        validate=validate,
        observers=observers,
    )


#: What shapes the one cluster ``repro cluster`` serves; ``--compare``
#: builds its own grid and rejects each of these set to a non-default value.
_SINGLE_CLUSTER_OPTIONS = (
    "replicas",
    "router",
    "chaos",
    "resilience",
    "profiles",
    "placement",
    "shared_store",
    "cold",
    "autoscale",
    "out",
)


@command(
    "cluster",
    "multi-replica cluster simulation with affinity routing",
    _world_args,
    _replica_args,
    _flag(
        "--shared-store",
        "share one expert-map store across every fmoe replica",
    ),
    _flag(
        "--cold",
        "skip warm-up so per-replica stores diverge (what "
        "semantic-affinity routing exploits)",
    ),
    _flag(
        "--autoscale", "enable the queue-depth autoscaler (drain-before-kill)"
    ),
    _flag(
        "--compare",
        "run the router x replica-count comparison grid instead "
        "of one cluster",
    ),
    _arg(
        "--replica-counts",
        nargs="*",
        type=int,
        default=[1, 2, 4],
        help="replica counts for --compare",
    ),
    _chaos_args,
    _arg(
        "--profiles",
        nargs="*",
        default=None,
        choices=tuple(REPLICA_PROFILES),
        help="per-replica hardware profile names (replica i uses "
        "profiles[i %% len]); e.g. fast-nvlink slow-pcie3",
    ),
    _arg(
        "--placement",
        default=None,
        choices=PLACEMENT_NAMES,
        help="pre-warm each replica's expert cache from a placement plan",
    ),
    _trace_args(requests=24, rate=1.0),
    _arg("--out", default=None, help="write the cluster report JSON here"),
    _sweep_args,
)
def cmd_cluster(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Multi-replica cluster simulation with pluggable routing."""
    from repro.cluster import (
        AutoscalerConfig,
        cluster_report_to_dict,
        cluster_report_to_json,
    )
    from repro.experiments.cluster_scaling import cluster_scaling_rows
    from repro.obs.inspect import inspect_cluster_report

    if args.compare:
        parser = args.parser
        ignored = [
            "--" + dest.replace("_", "-")
            for dest in _SINGLE_CLUSTER_OPTIONS
            if getattr(args, dest) != parser.get_default(dest)
        ]
        if ignored:
            parser.error(
                "--compare runs its own router x replica-count grid and "
                f"does not take {', '.join(ignored)}"
            )
        rows = cluster_scaling_rows(
            replica_counts=tuple(args.replica_counts),
            config=config,
            system=args.system,
            trace_requests=args.trace_requests,
            rate_seconds=args.rate,
            jobs=args.jobs,
            validate=args.validate,
        )
        for row in rows:
            print(row.format())
        return 0
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            max_replicas=max(args.replicas, AutoscalerConfig().max_replicas)
        )
    profiles = None
    if args.profiles:
        profiles = tuple(REPLICA_PROFILES[name] for name in args.profiles)
    report = _serve_cluster(
        args,
        config,
        validate=args.validate,
        shared_store=args.shared_store,
        warm=not args.cold,
        autoscaler=autoscaler,
        profiles=profiles,
        placement=args.placement,
    )
    # The rendering `repro inspect` gives the report --out writes.
    print(inspect_cluster_report(cluster_report_to_dict(report)))
    if args.out is not None:
        cluster_report_to_json(report, args.out)
        print(f"  report written to {args.out}")
    return 0


@command(
    "storm-lite",
    "resilience off vs. on under cluster-scope chaos",
    _world_args,
    _system_arg,
    _names(
        "--scenarios",
        STORM_SCENARIO_NAMES,
        help="subset of storm scenario names (default: the full storm)",
    ),
    _trace_args(requests=24, rate=1.5),
    _deadline_arg(default=3.0),
    _sweep_args,
)
def cmd_storm_lite(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Storm-lite: resilience off vs. on under cluster-scope chaos."""
    rows = storm_rows(
        scenarios=_lookup(
            default_storm_scenarios(config.seed), args.scenarios
        ),
        config=config,
        system=args.system,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    return 0


@command(
    "storm",
    "multi-tenant traffic storm: full-day census + "
    "priority-aware simulation window per scale",
    _world_args,
    _system_arg,
    _arg(
        "--scales",
        nargs="*",
        default=["10k", "100k", "1m"],
        help="offered-request scales (10k/100k/1m style, or plain counts)",
    ),
    _arg(
        "--sim-requests",
        type=int,
        default=256,
        help="arrivals from the start of each day replayed through the "
        "cluster (the census always streams the whole day)",
    ),
    _arg("--replicas", type=int, default=2),
    _arg(
        "--admission-rate",
        type=float,
        default=4.0,
        help="token-bucket admission rate shared by all scales; fixed "
        "so higher scales overload naturally",
    ),
    _arg("--admission-burst", type=int, default=8),
    _deadline_arg(default=3.0),
    _arg(
        "--bench-out",
        default=None,
        help="write the storm as JSON (e.g. benchmarks/BENCH_storm.json)",
    ),
    _sweep_args,
)
def cmd_storm(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Multi-tenant storm: census + priority-aware window per scale."""
    from repro.experiments.storm import storm_results

    results = storm_results(
        config=config,
        scales=args.scales,
        sim_requests=args.sim_requests,
        system=args.system,
        replicas=args.replicas,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for res in results:
        census = res.census
        print(
            f"scale {res.scale}: {res.total_requests} offered over "
            f"{census['span_seconds']:.0f}s "
            f"(mean {census['mean_rate']:.3f} rps, "
            f"peak {census['peak_rate']:.3f} rps); "
            f"window {res.sim_requests} requests, "
            f"deadline {res.deadline_seconds:.2f}s"
        )
        for row in res.tiers:
            print(f"  {row.format()}")
        for row in res.tenants:
            print(f"  {row.format()}")
    if args.bench_out:
        payload = {
            "experiment": "storm",
            "model": config.model_name,
            "seed": config.seed,
            "sim_requests": args.sim_requests,
            "replicas": args.replicas,
            "admission_rate": args.admission_rate,
            "admission_burst": args.admission_burst,
            "scales": [res.to_dict() for res in results],
        }
        _write_json(args.bench_out, payload)
    return 0


@command(
    "fleet",
    "heterogeneous fleet sweep: SLO-per-dollar, "
    "uniform vs. cost-aware placement + routing",
    _world_args,
    _system_arg,
    _names(
        "--shapes",
        FLEET_SHAPE_NAMES,
        help="subset of fleet shape names (default: all three)",
    ),
    _trace_args(requests=24, rate=1.0),
    _deadline_arg(default=1.0),
    _arg(
        "--bench-out",
        default=None,
        help="write the sweep as JSON (e.g. benchmarks/BENCH_fleet.json)",
    ),
    _sweep_args,
)
def cmd_fleet(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Heterogeneous fleet sweep: SLO-per-dollar, uniform vs. cost-aware."""
    rows = fleet_rows(
        shapes=_lookup(default_fleet_shapes(), args.shapes),
        config=config,
        system=args.system,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        deadline_multiplier=args.deadline_multiplier,
        jobs=args.jobs,
        validate=args.validate,
    )
    for row in rows:
        print(row.format())
    wins = sum(
        cost_aware.slo_per_dollar > uniform.slo_per_dollar
        for uniform, cost_aware in zip(rows[::2], rows[1::2])
    )
    print(
        f"cost-aware strictly wins SLO-per-dollar on {wins} of "
        f"{len(rows) // 2} fleet shapes"
    )
    if args.bench_out:
        payload = {
            "experiment": "fleet",
            "model": config.model_name,
            "dataset": config.dataset,
            "seed": config.seed,
            "trace_requests": args.trace_requests,
            "deadline_seconds": rows[0].deadline_seconds if rows else 0.0,
            "cost_aware_wins": wins,
            "shapes": len(rows) // 2,
            "rows": [asdict(row) for row in rows],
        }
        _write_json(args.bench_out, payload)
    return 0


@command(
    "profile",
    "profile a workload: save its warm traces and/or a warm store",
    _world_args,
    _arg("--traces-out", default=None),
    _arg("--store-out", default=None),
)
def cmd_profile(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Save a world's warm traces and/or a warm expert-map store."""
    if not (args.traces_out or args.store_out):
        print("nothing to do: pass --traces-out and/or --store-out")
        return 2
    world = build_world(config)
    if args.traces_out:
        from repro.core.persistence import save_traces

        save_traces(world.warm_traces, args.traces_out)
        print(f"wrote {len(world.warm_traces)} traces to {args.traces_out}")
    if args.store_out:
        from repro.analysis.tracking import build_store
        from repro.core.persistence import save_store

        store = build_store(
            world.model_config,
            world.warm_traces,
            distance=config.prefetch_distance,
            capacity=config.store_capacity,
        )
        save_store(store, args.store_out)
        print(
            f"wrote store with {len(store)} maps "
            f"({store.memory_bytes() / 1e6:.1f} MB) to {args.store_out}"
        )
    return 0


@command(
    "journeys",
    "per-request journeys with critical-path attribution",
    _world_args,
    _replica_args,
    _chaos_args,
    _trace_args(requests=24, rate=1.0),
    _arg(
        "--sample-interval",
        type=float,
        default=1.0,
        help="fleet time-series cadence, virtual seconds",
    ),
    _arg("--top", type=int, default=5),
    _arg("--slo-objective", type=float, default=0.9),
    _arg("--slo-deadline", type=float, default=1.0),
    _arg(
        "--out-dir",
        default=None,
        help="write journeys.jsonl / fleet.jsonl / fleet.csv / "
        "cluster_report.json here",
    ),
)
def cmd_journeys(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Per-request journeys with critical-path attribution."""
    from repro.cluster import cluster_report_to_json
    from repro.obs import (
        FleetSeries,
        JourneyRecorder,
        SLOTracker,
        render_journeys,
        render_slo_summary,
    )

    journeys = JourneyRecorder()
    fleet = FleetSeries(interval_seconds=args.sample_interval)
    slo_tracker = SLOTracker(
        objective=args.slo_objective, deadline_seconds=args.slo_deadline
    )
    report = _serve_cluster(
        args, config, observers=[journeys, fleet, slo_tracker]
    )
    print(render_journeys(journeys.ordered(), top=args.top))
    print()
    print("== SLO burn-rate summary ==")
    print(render_slo_summary(report.slo_summary))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        journeys.write_jsonl(out / "journeys.jsonl")
        fleet.write_jsonl(out / "fleet.jsonl")
        fleet.write_csv(out / "fleet.csv")
        cluster_report_to_json(report, out / "cluster_report.json")
        print()
        for name in (
            "journeys.jsonl", "fleet.jsonl", "fleet.csv",
            "cluster_report.json",
        ):
            print(f"  wrote {out / name}")
    return 0


@command(
    "slo",
    "burn-rate alerting summary from a saved cluster report",
    _arg("report", help="cluster report JSON (repro cluster --out)"),
    _arg("--objective", type=float, default=0.9),
    _arg("--deadline", type=float, default=1.0),
    _arg(
        "--window-scale",
        type=float,
        default=1.0,
        help="scale factor applied to the default burn-rate windows",
    ),
)
def cmd_slo(args: argparse.Namespace, config: None) -> int:
    """Replay burn-rate alerting over a saved cluster report."""
    from repro.obs.slo import (
        default_burn_rules,
        render_slo_summary,
        tracker_from_outcome_dicts,
    )

    payload = json.loads(Path(args.report).read_text())
    outcomes = (payload.get("resilience") or {}).get("outcomes")
    if outcomes:
        tracker = tracker_from_outcome_dicts(
            outcomes,
            objective=args.objective,
            deadline_seconds=args.deadline,
            rules=default_burn_rules(args.window_scale),
        )
        print(render_slo_summary(tracker.to_dict()))
        return 0
    if payload.get("slo"):
        # No replayable outcomes, but the run recorded a summary.
        print(render_slo_summary(payload["slo"]))
        return 0
    print(
        "no request outcomes in report (run the cluster with "
        "--resilience or --chaos to track them)"
    )
    return 2


@command(
    "trace",
    "run one policy with full telemetry; write trace + metrics",
    _world_args,
    _arg(
        "--policy",
        default="fmoe",
        type=_prefix_choice(POLICY_NAMES),
        help="system to trace (unambiguous prefixes accepted)",
    ),
    _arg(
        "--out-dir",
        required=True,
        help="directory for trace.json / metrics.prom / metrics.jsonl / "
        "events.jsonl / report.json",
    ),
    _flag(
        "--online",
        "replay a generated arrival trace (queueing included) "
        "instead of serving the offline test set",
    ),
    _trace_args(requests=16, rate=2.0),
    _arg(
        "--sample-interval",
        type=float,
        default=0.05,
        help="virtual seconds between metric time-series samples",
    ),
)
def cmd_trace(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """Run one policy with full telemetry; write trace + metrics files."""
    from repro.obs.runner import run_traced

    result = run_traced(
        config,
        args.policy,
        args.out_dir,
        online=args.online,
        trace_requests=args.trace_requests,
        rate_seconds=args.rate,
        sample_interval_seconds=args.sample_interval,
    )
    report = result.report
    print(
        f"{args.policy}: {len(report.requests)} requests, "
        f"{report.iterations} iterations, hit={report.hit_rate:.3f}, "
        f"dropped_events={report.events_dropped}"
    )
    for name, path in sorted(result.paths.items()):
        print(f"  {name:13s} {path}")
    print(f"open {result.paths['trace']} in chrome://tracing or Perfetto")
    return 0


@command(
    "inspect",
    "summarize a recorded trace directory",
    _arg("path", help="trace directory (or trace.json file)"),
    _arg("--top", type=int, default=5),
)
def cmd_inspect(args: argparse.Namespace, config: None) -> int:
    """Summarize a recorded trace directory (or trace file)."""
    from repro.obs.inspect import inspect_path

    print(inspect_path(args.path, top=args.top))
    return 0


@command(
    "validate",
    "validate the simulator: invariants, laws, mutant detection",
    _arg(
        "--tier",
        default="fast",
        choices=("fast", "full"),
        help="fast = monitored runs + cheap laws; full adds every "
        "system, faulted/continuous/cluster runs, and mutant detection",
    ),
    _names(
        "--models",
        MODEL_NAMES,
        default=["mixtral-8x7b", "qwen1.5-moe"],
        help="models to validate (each gets its own world and report)",
    ),
    _dataset_arg,
    _arg("--requests", type=int, default=14),
    _arg("--test-requests", type=int, default=3),
    _arg("--seed", type=int, default=0),
    _flag("--mutants", "force mutant detection even on the fast tier"),
    _flag("--no-mutants", "skip mutant detection even on the full tier"),
    _arg("--json", default=None, help="write the validation reports here"),
    _jobs_arg,
)
def cmd_validate(args: argparse.Namespace, config: None) -> int:
    """Validate the simulator: invariants, laws, and mutant detection."""
    from repro.validate import validate_model, validation_config

    include_mutants = None
    if args.mutants:
        include_mutants = True
    elif args.no_mutants:
        include_mutants = False
    reports = []
    for model in args.models:
        report = validate_model(
            validation_config(
                model,
                dataset=args.dataset,
                num_requests=args.requests,
                num_test_requests=args.test_requests,
                seed=args.seed,
            ),
            tier=args.tier,
            jobs=args.jobs,
            include_mutants=include_mutants,
        )
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{model:14s} [{args.tier}] {status}: "
            f"{len(report.checks)} checks, {len(report.mutants)} mutants"
        )
        for check in report.checks:
            mark = "ok " if check.passed else "FAIL"
            line = f"  {mark} {check.name}"
            if check.detail:
                line += f" — {check.detail}"
            print(line)
        for mutant in report.mutants:
            mark = "ok " if mutant.flagged else "MISS"
            detectors = ", ".join(mutant.detectors) or "undetected"
            print(f"  {mark} mutant:{mutant.name} ({detectors})")
    if args.json:
        # Each report keeps its to_dict() field order, unsorted.
        payload = [r.to_dict() for r in reports]
        _write_json(args.json, payload, sort_keys=False)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="fMoE reproduction: fine-grained expert offloading",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for entry in COMMANDS:
        p = sub.add_parser(entry.name, help=entry.help)
        for group in entry.groups:
            group(p)
        p.set_defaults(func=entry.handler, parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    entry = next(c for c in COMMANDS if c.name == args.command)
    world = _world_args in entry.groups
    config = _config_from_args(args) if world else None
    return entry.handler(args, config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
