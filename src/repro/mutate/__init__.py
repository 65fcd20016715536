"""Mutable datasets: insert/delete/update with cache-coherent codes.

The mutation layer (see DESIGN.md section 14) keeps the dataset, storage,
index and cache coherent under churn:

* :class:`MutableDataset` — append segment, tombstone bitmap, attributes;
* :class:`MutablePipeline` — cache-coherent mutations, filtered search,
  revalidation fences and the patch-vs-rebuild pass;
* :class:`MutationAdvisor` — the per-epoch stats pre-pass;
* :class:`Predicate` — attribute-filtered kNN pushed into the candidate
  phase;
* :func:`reference_twin` — the from-scratch rebuild the differential
  suite compares against;
* churn snapshots — persist the dataset delta, replay deterministically.
"""

from repro.mutate.advisor import AdvisorDecision, MutationAdvisor
from repro.mutate.dataset import InvalidPointsError, MutableDataset, snap_to_domain
from repro.mutate.overlay import merge_topk, overlay_result
from repro.mutate.pipeline import (
    MutablePipeline,
    MutationBatch,
    MutationCounters,
    candidate_frequencies,
)
from repro.mutate.predicate import Predicate, parse_predicate
from repro.mutate.reference import ReferenceTwin, reference_twin
from repro.mutate.snapshot import (
    load_churn_state,
    restore_pipeline,
    save_churn_state,
)

__all__ = [
    "AdvisorDecision",
    "InvalidPointsError",
    "MutableDataset",
    "MutablePipeline",
    "MutationAdvisor",
    "MutationBatch",
    "MutationCounters",
    "Predicate",
    "ReferenceTwin",
    "candidate_frequencies",
    "load_churn_state",
    "merge_topk",
    "overlay_result",
    "parse_predicate",
    "reference_twin",
    "restore_pipeline",
    "save_churn_state",
    "snap_to_domain",
]
