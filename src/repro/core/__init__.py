"""fMoE's core: the paper's contribution (§4).

- :class:`ExpertMap` — iteration-level gate probability distributions
  across layers (§4.1).
- :class:`ExpertMapStore` — capacity-bounded history with redundancy-score
  deduplication (§4.4) and the semantic search (Eq. 4).
- :class:`ExpertMapMatcher` — semantic matches and per-iteration
  trajectory sessions (§4.2).  Eq. 5 has one implementation,
  :class:`~repro.core.matcher.IncrementalTrajectoryMatch`, which the
  serving policy and the offline evaluators both drive layer by layer;
  :class:`~repro.core.matcher.ReferenceTrajectoryMatch` is its naive
  full-refold oracle.
- :mod:`repro.core.prefetch` — similarity-aware expert selection with the
  dynamic threshold δ = clip(1 − score) and prefetch priorities (§4.3, §4.5).
- :class:`FMoECacheScorer` — the 1/(p·freq) eviction priority (§4.5).
- :class:`FMoEPolicy` — the assembled offloading policy with asynchronous
  matching (§4.3) and ablation switches (§6.5).
"""

from repro.core.expert_map import ExpertMap
from repro.core.store import ExpertMapStore, StoreRecord
from repro.core.matcher import ExpertMapMatcher, MatchResult
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.cache import FMoECacheScorer
from repro.core.overheads import OverheadModel
from repro.core.policy import FMoEPolicy
from repro.core.autotune import TuneResult, tune_prefetch_distance
from repro.core.persistence import (
    load_store,
    load_traces,
    save_store,
    save_traces,
)

__all__ = [
    "ExpertMap",
    "ExpertMapStore",
    "StoreRecord",
    "ExpertMapMatcher",
    "MatchResult",
    "selection_threshold",
    "select_prefetch_experts",
    "prefetch_priority",
    "FMoECacheScorer",
    "OverheadModel",
    "FMoEPolicy",
    "TuneResult",
    "tune_prefetch_distance",
    "save_store",
    "load_store",
    "save_traces",
    "load_traces",
]
