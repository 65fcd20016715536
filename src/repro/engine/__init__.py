"""The unified query engine: one cached-search pipeline for all indexes.

``QueryEngine`` runs the paper's Algorithm 1 as three explicit phases
(generate → reduce → refine) over a ``CandidateSource`` — candidate-set
indexes (LSH family, VA-files, linear scan) and tree indexes
(Section 3.6.1 leaf streaming) behind one interface — with a per-query
``ExecutionContext`` carrying I/O trackers, phase timers and pluggable
instrumentation hooks.  ``search_many`` answers a batch query by query;
each query's cache probe bounds only its own candidates.  Both entry
points reject malformed input with :class:`InvalidQueryError`.
"""

from repro.engine.context import ExecutionContext, PhaseHook, TimingHook
from repro.engine.engine import InvalidQueryError, QueryEngine
from repro.engine.phases import GeneratePhase, ReducePhase, RefinePhase
from repro.engine.sources import (
    CandidateSetSource,
    CandidateSource,
    TreeLeafSource,
    as_source,
    dedupe_ids,
)
from repro.engine.stats import QueryStats, SearchResult, unify_tree_stats

__all__ = [
    "CandidateSetSource",
    "CandidateSource",
    "ExecutionContext",
    "GeneratePhase",
    "InvalidQueryError",
    "PhaseHook",
    "QueryEngine",
    "QueryStats",
    "ReducePhase",
    "RefinePhase",
    "SearchResult",
    "TimingHook",
    "TreeLeafSource",
    "as_source",
    "dedupe_ids",
    "unify_tree_stats",
]
