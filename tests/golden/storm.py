"""The golden two-tenant storm report: the tenancy schema, pinned.

One premium tenant and one batch tenant replay through the storm's
shared-store cluster (tight admission bucket, premium bypass); the full
:func:`~repro.cluster.metrics.cluster_report_to_dict` payload — tenancy
section included — is checked in and diffed field by field by
``test_golden_reports``.  Any change to tenancy accounting, tier
percentiles, or the report serialization shows up as a readable diff
here rather than a silent drift.

Regenerate after an intentional behavior change with::

    PYTHONPATH=src python -m tests.golden.storm

and review the JSON diff before committing it.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
STORM_GOLDEN_PATH = GOLDEN_DIR / "storm_two_tenant.json"

#: Sizing: two one-block tenants, dense enough that the admission bucket
#: actually sheds batch traffic (the interesting half of the schema).
STORM_GOLDEN_SEED = 0
STORM_GOLDEN_REQUESTS_PER_TENANT = 8


def storm_two_tenant_traffic():
    """The pinned two-tenant day: premium vs. batch at the same volume."""
    from repro.workloads.traffic import TenantSpec, TrafficConfig

    return TrafficConfig(
        tenants=(
            TenantSpec(
                name="acme-premium",
                num_requests=STORM_GOLDEN_REQUESTS_PER_TENANT,
                mean_interarrival_seconds=0.1,
                burstiness_cv=1.5,
                tier="premium",
            ),
            TenantSpec(
                name="initech-batch",
                dataset="sharegpt",
                num_requests=STORM_GOLDEN_REQUESTS_PER_TENANT,
                mean_interarrival_seconds=0.1,
                burstiness_cv=1.5,
                tier="batch",
            ),
        ),
        seed=STORM_GOLDEN_SEED,
    )


def compute_storm_report_dict(cache=None, **options) -> dict:
    """Run the pinned two-tenant storm and return its report payload.

    ``options`` pass through to ``run_cluster`` (``validate``,
    ``observers``) for neutrality checks against the golden.
    """
    from repro.cluster.driver import run_cluster
    from repro.cluster.metrics import cluster_report_to_dict
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import WorldCache
    from repro.experiments.storm import storm_spec
    from repro.workloads.traffic import materialize_traffic

    config = ExperimentConfig(
        num_requests=10, num_test_requests=2, seed=STORM_GOLDEN_SEED
    )
    cache = cache if cache is not None else WorldCache()
    report = run_cluster(
        cache.get(config),
        "fmoe",
        storm_spec(replicas=2, admission_rate=2.0, admission_burst=2),
        requests=materialize_traffic(storm_two_tenant_traffic()),
        **options,
    )
    return cluster_report_to_dict(report)


def load_storm_golden() -> dict:
    """The checked-in two-tenant storm payload."""
    return json.loads(STORM_GOLDEN_PATH.read_text())


def regenerate() -> None:
    """Recompute and rewrite the storm golden file."""
    payload = compute_storm_report_dict()
    STORM_GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {STORM_GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
