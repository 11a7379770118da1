"""Benchmark of the fMoE serving simulator, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload mixtral-b1 --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: wall-clock
throughput and set-up time from untraced serves, plus the simulated
latency, hit-rate and SLO figures the serves compute.  ``--trace 1``
prints the per-layer metrics: one untraced serve, one traced serve (spans
around the public calls of each layer, see ``layers.py``), and one
untimed pass with the simulator's invariant monitors attached.

Every run checks its outputs: the canonical report hash must be the same
for every serve of the run (monitored and traced ones included), offered
requests must equal served + shed + failed, and traced counts must equal
the program's own counters.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported: the
# simulator is single-threaded and the host may have only two CPUs.
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

#: Serves per untraced run, at least (the wall-clock figures are their
#: medians) and at most, however short serves get.  Each serve has its own
#: timed set-up, so setup_s is a median too.
MIN_SERVES = 3
MAX_SERVES = 20

#: census-1m reads its arrival rate per lap of this many arrivals.
CENSUS_LAP = 100_000

#: A tail percentile is supported when this many samples lie beyond it.
TAIL_SAMPLES = 10


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _ttft_limit(spec: dict) -> float:
    """The fixed TTFT limit, stated in the storm workload's reason."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "storm")
    match = re.search(r"TTFT limit of ([0-9.]+) s", why)
    if match is None:
        raise SystemExit("BENCHMARK.json: storm reason states no TTFT limit")
    return float(match.group(1))


def _cells(limit: float) -> dict:
    from cells import CensusCell, EngineCell, StormCell

    return {
        "mixtral-b1": EngineCell("mixtral-8x7b", "lmsys-chat-1m", 24, 1, limit),
        "qwen-b32": EngineCell("qwen1.5-moe", "sharegpt", 32, 32, limit),
        "storm": StormCell(64, limit),
        "census-1m": CensusCell(12, limit),
    }


def _fingerprint(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            rev = target.read_text().strip() if target.is_file() else ref
        else:
            rev = ref
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(samples: list[float], qs) -> tuple[dict, dict]:
    """Values and support notes for the percentiles ``qs`` of ``samples``."""
    import numpy

    values, notes = {}, {}
    for q in qs:
        beyond = len(samples) * (100 - q) / 100
        values[q] = float(numpy.percentile(samples, q))
        notes[f"p{q}"] = {
            "samples": len(samples),
            "beyond": beyond,
            "supported": q == 50 or beyond >= TAIL_SAMPLES,
        }
    return values, notes


def _simulated(outcome) -> tuple[dict, dict]:
    """The simulated-clock end-to-end metrics of one serve outcome."""
    ttft, ttft_notes = _percentiles(outcome.ttft, (50, 90))
    tpot, tpot_notes = _percentiles(outcome.tpot, (50, 99))
    looked_up = outcome.hits + outcome.misses
    metrics = {
        "expert_hit_rate": outcome.hits / looked_up,
        "sim_ttft_p50_s": ttft[50],
        "sim_ttft_p90_s": ttft[90],
        "sim_tpot_p50_s": tpot[50],
        "sim_tpot_p99_s": tpot[99],
        "served_ratio": outcome.served / outcome.offered,
        "slo_attainment": outcome.slo_met / outcome.offered,
    }
    return metrics, {"ttft": ttft_notes, "tpot": tpot_notes}


class Tally:
    """Request accounting and correctness problems across a run."""

    def __init__(self) -> None:
        self.attempted = self.served = self.shed = self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def add(self, label: str, outcome) -> None:
        self.attempted += outcome.offered
        self.served += outcome.served
        self.shed += outcome.shed
        self.failed += outcome.failed
        self.digests.add(outcome.digest)
        if not outcome.conserved():
            self.problems.append(
                f"{label}: served {outcome.served} + shed {outcome.shed} "
                f"+ failed {outcome.failed} != offered {outcome.offered}"
            )
        if outcome.served == 0:
            self.problems.append(f"{label}: nothing served")

    def finish(self) -> None:
        if len(self.digests) != 1:
            self.problems.append(
                f"report hashes differ between serves: {sorted(self.digests)}"
            )

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.served,
            "shed": self.shed,
            "failed": self.failed,
        }


def _check_census(census, arrivals: int, tally: Tally) -> None:
    from cells import DAY_REQUESTS

    tally.attempted += arrivals
    parts = {
        "arrivals streamed": arrivals,
        "per tenant": sum(census.per_tenant.values()),
        "per tier": sum(t.offered for t in census.per_tier.values()),
        "census total": census.total_requests,
    }
    for label, count in parts.items():
        if count != DAY_REQUESTS:
            tally.problems.append(f"census {label}: {count} != {DAY_REQUESTS}")


def _run_census(cell, state, tally: Tally):
    """One census pass: (per-lap arrival rates, census hash, wall seconds,
    arrivals streamed)."""
    from cells import census_digest

    laps: list[float] = []
    gc.collect()
    census, arrivals = cell.census(state, CENSUS_LAP, laps)
    rates = [CENSUS_LAP / (b - a) for a, b in zip(laps, laps[1:])]
    _check_census(census, arrivals, tally)
    return rates, census_digest(census), laps[-1] - laps[0], arrivals


def end_to_end(cell, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Untraced serves, each on a fresh set-up, until ``seconds`` of timed
    work and at least :data:`MIN_SERVES`; wall-clock metrics are medians."""
    tally = Tally()
    setups: list[float] = []
    serve_rates: list[float] = []
    offer_rates: list[float] = []
    arrival_rates: list[float] = []
    census_digests: set[str] = set()
    timed = 0.0
    outcome = None
    while len(serve_rates) < MAX_SERVES and (
        len(serve_rates) < MIN_SERVES or timed < seconds
    ):
        start = time.perf_counter()
        state = cell.setup(seed)
        setups.append(time.perf_counter() - start)
        if hasattr(cell, "census") and not arrival_rates:
            arrival_rates, digest, wall, _ = _run_census(cell, state, tally)
            census_digests.add(digest)
            timed += wall
        gc.collect()
        start = time.perf_counter()
        outcome = cell.serve(state)
        wall = time.perf_counter() - start
        timed += wall
        serve_rates.append(outcome.served / wall)
        offer_rates.append(outcome.offered / wall)
        tally.add(f"serve {len(serve_rates)}", outcome)
        del state
    tally.finish()
    simulated, notes = _simulated(outcome)
    metrics = {
        "sim_req_per_s": statistics.median(serve_rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "arrivals_per_s": statistics.median(arrival_rates or offer_rates),
        **simulated,
    }
    details = {
        "serves": len(serve_rates),
        "timed_s": timed,
        "setup_s": setups,
        "sim_req_per_s": serve_rates,
        "arrival_laps_per_s": arrival_rates,
        "report_sha256": sorted(tally.digests),
        "census_sha256": sorted(census_digests),
        "percentiles": notes,
    }
    return metrics, tally, details


def traced(cell, seed: int) -> tuple[dict, Tally, dict]:
    """Untraced serve, traced serve, and monitored pass of one input."""
    from layers import LayerProbe, cross_check, program_counters

    tally = Tally()
    census_digests: set[str] = set()
    streamed: list[int] = []

    def timed_phase(state):
        """The run's timed work: the census (if any) and the serve."""
        if hasattr(cell, "census"):
            _, digest, _, arrivals = _run_census(cell, state, tally)
            census_digests.add(digest)
            streamed.append(arrivals)
        gc.collect()
        return cell.serve(state)

    state = cell.setup(seed)
    start = time.perf_counter()
    plain = timed_phase(state)
    untraced_s = time.perf_counter() - start
    tally.add("untraced serve", plain)

    fresh = cell.setup(seed)
    engines = cell.engines(fresh)
    stores = {id(e.policy.store): e.policy.store for e in engines}.values()
    before = program_counters(engines, stores)
    probe = LayerProbe()
    probe.install()
    try:
        outcome = probe.tracer.run_root("serve", timed_phase, fresh)
    finally:
        probe.uninstall()
    after = program_counters(engines, stores)
    tally.add("traced serve", outcome)
    tally.problems.extend(cross_check(probe, before, after, outcome))

    checked, violations = cell.monitored(state)
    tally.add("monitored serve", checked)
    if violations:
        tally.problems.append(f"monitored serve: {violations} violations")
    tally.finish()
    if len(census_digests) > 1:
        tally.problems.append("census hashes differ between passes")

    metrics = probe.metrics(outcome, streamed[-1] if streamed else 0)
    metrics["trace.overhead_ratio"] = probe.tracer.root_s / untraced_s
    details = {
        "untraced_s": untraced_s,
        "traced_s": probe.tracer.root_s,
        "monitor_violations": violations,
        "report_sha256": sorted(tally.digests),
        "census_sha256": sorted(census_digests),
        "functions": probe.tracer.table(),
    }
    return metrics, tally, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = _load_spec()
    cells = _cells(_ttft_limit(spec))
    if args.workload not in cells:
        parser.error(f"unknown workload {args.workload!r}; use {sorted(cells)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cell = cells[args.workload]
    if args.trace:
        metrics, tally, details = traced(cell, args.seed)
    else:
        metrics, tally, details = end_to_end(cell, args.seed, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    if not args.trace:
        zero = [name for name, value in metrics.items() if value <= 0]
        if zero:
            tally.problems.append(f"end-to-end metrics not above 0: {zero}")

    print(
        json.dumps(
            {
                "workload": args.workload,
                "trace": args.trace,
                "host": _fingerprint(args.seed),
                "requests": tally.counts(),
                "problems": tally.problems,
                **details,
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
