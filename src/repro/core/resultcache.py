"""Query-result caching: the web-caching baseline the paper argues against.

Classic search-engine caches (Markatos 2001; the metric-space caches of
Falchi et al. and Skopal et al. the paper cites) store *answers to whole
queries*.  They help only when the exact same query repeats; the paper's
point caches instead help every query whose *candidates* overlap past
workload.  ``ResultCache`` implements the baseline so the comparison can
be made quantitatively (see ``benchmarks/test_abl_resultcache.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.engine.stats import QueryStats, SearchResult


def _query_key(query: np.ndarray, k: int) -> tuple:
    return (k,) + tuple(np.asarray(query, dtype=np.float64).tolist())


@dataclass(frozen=True)
class ResultCacheStats:
    """Aggregate counters of a result cache."""

    hits: int
    misses: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU cache of complete query answers.

    Args:
        capacity_bytes: budget; each entry costs the query vector plus the
            result ids/distances (8 bytes per float/int).
        dim: query dimensionality (for entry sizing).
    """

    def __init__(self, capacity_bytes: int, dim: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.dim = dim
        self._entries: OrderedDict[tuple, SearchResult] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    def _entry_bytes(self, result: SearchResult) -> int:
        return 8 * (self.dim + 2 * len(result.ids)) + 16

    def get(self, query: np.ndarray, k: int) -> SearchResult | None:
        """Cached answer for an identical (query, k), or None on a miss."""
        key = _query_key(query, k)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        stats = QueryStats(
            num_candidates=entry.stats.num_candidates,
            cache_hits=entry.stats.num_candidates,
            pruned=0,
            confirmed=entry.stats.num_candidates,
            c_refine=0,
            refined_fetches=0,
            refine_page_reads=0,
            gen_page_reads=0,
        )
        return SearchResult(
            ids=entry.ids, distances=entry.distances,
            exact_mask=entry.exact_mask, stats=stats,
        )

    def put(self, query: np.ndarray, k: int, result: SearchResult) -> None:
        """Admit an answer, evicting LRU entries to stay in budget."""
        key = _query_key(query, k)
        cost = self._entry_bytes(result)
        if cost > self.capacity_bytes:
            return
        while self.used_bytes + cost > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self.used_bytes -= self._entry_bytes(evicted)
        self._entries[key] = result
        self.used_bytes += cost

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def stats(self) -> ResultCacheStats:
        return ResultCacheStats(hits=self.hits, misses=self.misses)


class ResultCachedSearch:
    """A search wrapper that consults a ResultCache before searching.

    Answers to repeated (identical) queries cost zero I/O; everything
    else falls through to the wrapped ``searcher`` (a ``QueryEngine`` or
    anything else with ``search(query, k)``).
    """

    def __init__(self, searcher, cache: ResultCache) -> None:
        self.searcher = searcher
        self.cache = cache

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        cached = self.cache.get(query, k)
        if cached is not None:
            return cached
        result = self.searcher.search(query, k)
        self.cache.put(query, k, result)
        return result
