#!/usr/bin/env python3
"""Diagnose where an offloading policy loses its hit rate.

Attaches an event recorder to a serving run, classifies every miss
(cold / late / capacity / unpredicted), and renders the breakdown as a
terminal chart — the debugging loop you'd use when tuning a policy.

Run:  python examples/miss_analysis.py [--budget-gb 12]
"""

import argparse

from repro.analysis.misses import classify_misses
from repro.core.policy import FMoEPolicy
from repro.experiments.common import ExperimentConfig, build_world
from repro.serving.engine import ServingEngine
from repro.serving.events import EventKind, EventRecorder
from repro.viz import bar_chart


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--budget-gb", type=float, default=12.0)
    parser.add_argument("--requests", type=int, default=30)
    args = parser.parse_args()

    config = ExperimentConfig(
        model_name=args.model, num_requests=args.requests, num_test_requests=6
    )
    world = build_world(config)
    policy = FMoEPolicy(prefetch_distance=config.prefetch_distance)
    engine = ServingEngine(
        world.fresh_model(),
        policy,
        cache_budget_bytes=int(args.budget_gb * 1e9),
    )
    recorder = EventRecorder()
    engine.subscribe(recorder)
    policy.warm(world.warm_traces)
    report = engine.run(world.test_requests)

    breakdown = classify_misses(recorder)
    print(
        f"{args.model} @ {args.budget_gb:.0f} GB: "
        f"hit rate {report.hit_rate:.3f} over {breakdown.total} activations\n"
    )
    print("miss causes (fraction of all activations):")
    print(bar_chart(breakdown.fractions(), unit="", fmt="{:.3f}"))

    evictions = len(recorder.of_kind(EventKind.EVICTION))
    stalls = len(recorder.of_kind(EventKind.PREFETCH_STALL))
    print(
        f"\n{evictions} evictions, {stalls} prefetch stalls, "
        f"{engine.pool.stats.prefetch_issued} prefetches issued, "
        f"{engine.pool.stats.prefetch_rejected} rejected"
    )
    print(
        "\nreading: 'capacity' misses want more GPU memory or better "
        "eviction;\n'late' misses want a larger prefetch distance or more "
        "PCIe bandwidth;\n'unpredicted' misses are the tracker's true error."
    )


if __name__ == "__main__":
    main()
