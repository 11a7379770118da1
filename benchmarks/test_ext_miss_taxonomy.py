"""Extension: where do fMoE's remaining misses come from?

Classifies every miss (cold / late / capacity / unpredicted) from engine
event traces at a tight and a generous cache budget.  Expectation:
capacity misses dominate at the tight budget and largely vanish with
memory, while the unpredicted share — the tracker's true error — stays
small at both.
"""

from _util import emit, run_once
from conftest import BENCH_CONFIG

from repro.analysis.misses import classify_misses
from repro.core.policy import FMoEPolicy
from repro.experiments.common import build_world
from repro.serving.engine import ServingEngine
from repro.serving.events import EventRecorder

BUDGETS_GB = (8.0, 48.0)


def test_ext_miss_taxonomy(benchmark):
    def experiment():
        world = build_world(BENCH_CONFIG)
        out = {}
        for gb in BUDGETS_GB:
            policy = FMoEPolicy(
                prefetch_distance=BENCH_CONFIG.prefetch_distance,
                store_capacity=BENCH_CONFIG.store_capacity,
            )
            engine = ServingEngine(
                world.fresh_model(),
                policy,
                cache_budget_bytes=int(gb * 1e9),
                hardware=BENCH_CONFIG.hardware,
            )
            recorder = EventRecorder()
            engine.subscribe(recorder)
            policy.warm(world.warm_traces)
            engine.run(world.test_requests)
            out[gb] = classify_misses(recorder)
        return out

    results = run_once(benchmark, experiment)
    lines = []
    for gb, breakdown in results.items():
        fractions = breakdown.fractions()
        lines.append(
            f"{gb:5.1f} GB: hit={breakdown.hits / breakdown.total:5.3f}  "
            + "  ".join(
                f"{cause}={fractions[cause]:5.3f}"
                for cause in ("cold", "late", "capacity", "unpredicted")
            )
        )
    emit("ext_miss_taxonomy", lines)

    tight = results[BUDGETS_GB[0]]
    rich = results[BUDGETS_GB[1]]
    # More memory removes capacity misses almost entirely.
    assert (
        rich.fractions()["capacity"]
        < tight.fractions()["capacity"] * 0.5
    )
    # The tracker's own error (unpredicted misses) is small at both budgets.
    assert tight.fractions()["unpredicted"] < 0.1
    assert rich.fractions()["unpredicted"] < 0.1
    # Cold misses don't depend on the budget.
    assert abs(tight.cold - rich.cold) <= max(4, 0.2 * tight.cold)
