"""``MutablePipeline``: cache-coherent insert/delete/update over a pipeline.

The mutation layer wraps a built :class:`~repro.spec.build.Pipeline`
(any index family, freshly built or snapshot-loaded) and keeps four
mutable structures coherent:

1. the :class:`~repro.mutate.dataset.MutableDataset` (points, tombstone
   bitmap, attributes),
2. the storage layer (``PointFile`` append segment + tombstones),
3. the index (native ``insert_many`` where the family supports it, a
   delta overlay otherwise),
4. the cache (patch in place on update, invalidate on delete, stay-cold
   appends until the next revalidation fence).

Bit-identity contract: after any mutation sequence followed by
``revalidate()``, every query answer (ids, distances, ``exact_mask``)
matches a from-scratch rebuild over the live point set that shares the
trained geometry — the churn differential suite enforces this per
index x cache cell.  The chain of equalities:

* native ``insert_many`` reproduces the structure a geometry-preserving
  rebuild would build (see each index's docstring);
* tombstoned / predicate-rejected ids are masked right after candidate
  generation (``QueryEngine.live_mask``), so reduce/refine see exactly
  the rebuild's candidate arrays;
* :func:`candidate_frequencies` + :func:`hff_selection` are shared by
  the mutated pipeline's ``revalidate()`` and the reference twin, so
  both caches hold the same (id -> code) content and confirmed-by-bound
  answers agree bit for bit.

Indexes without native inserts (VP-tree, M-tree) serve appends from an
exact in-memory delta segment merged with the masked base answer using
the sharded engine's ``lexsort((ids, dists))`` tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import CachePolicy, NoCache
from repro.engine.sources import dedupe_ids
from repro.index.linear_scan import LinearScanIndex
from repro.mutate.advisor import AdvisorDecision, MutationAdvisor
from repro.mutate.dataset import MutableDataset
from repro.mutate.overlay import overlay_result
from repro.mutate.predicate import Predicate
from repro.storage.iostats import QueryIOTracker


# ----------------------------------------------------------------------
# Shared revalidation helpers (used by the pipeline AND the reference
# twin, so mutated and rebuilt caches select identical content).
# ----------------------------------------------------------------------
def candidate_frequencies(
    index,
    workload: np.ndarray,
    k: int,
    n_total: int,
    live_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-id candidate frequency ``freq(p) = |{q in WL : p in C(q)}|``.

    Candidates are deduped per query (first occurrence, matching the
    engine's generate phase) and masked by the live bitmap, so a
    tombstoned id can never be selected for caching.  Live-aware
    generators (adaptive bound filters like the VA-file) receive the
    bitmap directly, so the frequencies count exactly the candidate sets
    the engine produces under the same mask.
    """
    import inspect

    live_aware = (
        live_mask is not None
        and "live" in inspect.signature(index.candidates).parameters
    )
    freq = np.zeros(n_total, dtype=np.int64)
    for query in np.atleast_2d(np.asarray(workload, dtype=np.float64)):
        if live_aware:
            ids = dedupe_ids(
                index.candidates(query, k, QueryIOTracker(), live=live_mask)
            )
        else:
            ids = dedupe_ids(index.candidates(query, k, QueryIOTracker()))
        if live_mask is not None and ids.size:
            ids = ids[live_mask[ids]]
        freq[ids] += 1
    return freq


def hff_selection(
    frequencies: np.ndarray,
    max_items: int,
    live_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The HFF cache selection over the live id space.

    Same order as ``populate_hff``: ids by descending frequency (stable),
    zero-frequency ids dropped, then (only if capacity remains) arbitrary
    live ids in ascending order.  Dead ids never appear.
    """
    frequencies = np.asarray(frequencies)
    order = np.argsort(-frequencies, kind="stable")
    order = order[frequencies[order] > 0]
    if live_mask is not None:
        order = order[live_mask[order]]
    if len(order) < max_items:
        universe = (
            np.flatnonzero(live_mask)
            if live_mask is not None
            else np.arange(len(frequencies))
        )
        order = np.concatenate([order, np.setdiff1d(universe, order)])
    return order[:max_items].astype(np.int64)


# ----------------------------------------------------------------------
@dataclass
class MutationCounters:
    """Mutation observability; mirrors into a ``MetricsRegistry`` if given."""

    metrics: object | None = None
    mutations_applied_total: int = 0
    cache_patched_total: int = 0
    rebuilds_triggered_total: int = 0

    def _mirror(self, name: str, amount: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def applied(self, n: int) -> None:
        self.mutations_applied_total += n
        self._mirror("mutations_applied_total", n)

    def patched(self, n: int) -> None:
        self.cache_patched_total += n
        self._mirror("cache_patched_total", n)

    def rebuilt(self) -> None:
        self.rebuilds_triggered_total += 1
        self._mirror("rebuilds_triggered_total", 1)


@dataclass(frozen=True)
class MutationBatch:
    """One mutation admitted through the serving queue's visibility fence."""

    kind: str  # "insert" | "delete" | "update"
    points: np.ndarray | None = None
    ids: np.ndarray | None = None
    attributes: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete", "update"):
            raise ValueError(f"unknown mutation kind {self.kind!r}")


@dataclass
class MutablePipeline:
    """Mutation-aware wrapper over a built pipeline.

    Args:
        inner: a built or snapshot-loaded ``Pipeline``.  Open snapshots
            with ``load_snapshot(path, mmap=False)``: mmapped members are
            read-only pages shared across processes.
        data: the mutable dataset (derived from the inner pipeline's
            points when omitted).
        workload: query workload driving revalidation (defaults to the
            query log of the inner pipeline's workload context, if any).
        k: revalidation k (defaults to the inner pipeline's k).
        advisor: patch-vs-rebuild advisor (a default one is created).
        counters: mutation observability (a default one is created).
    """

    inner: object
    data: MutableDataset | None = None
    workload: np.ndarray | None = None
    k: int | None = None
    advisor: MutationAdvisor | None = None
    counters: MutationCounters = field(default_factory=MutationCounters)

    def __post_init__(self) -> None:
        if self.data is None:
            source = self.point_file if self.point_file is not None else self.index
            self.data = MutableDataset(source.points)
        ctx = self.inner.context
        if self.workload is None and ctx is not None:
            if ctx.dataset.query_log is not None:
                self.workload = ctx.dataset.query_log.workload
        if self.k is None:
            self.k = self.inner.k
        if self.advisor is None:
            self.advisor = MutationAdvisor(baseline_workload=self.workload)
        self.engine.set_live_mask(self.data.live)

    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self.inner.engine

    @property
    def is_tree(self) -> bool:
        return self.engine.is_tree

    @property
    def index(self):
        return self.inner.index

    @property
    def point_file(self):
        return self.inner.point_file

    @property
    def cache(self):
        """The live cache (point caches may have been hot-swapped)."""
        return self.inner.cache

    @property
    def native_insert(self) -> bool:
        """Whether the index absorbs appends structurally."""
        return hasattr(self.index, "insert_many")

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(
        self,
        points: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Insert rows; returns their new ids.

        New rows are visible to queries immediately (native index insert
        or delta overlay) but stay *cold* in the cache until the next
        ``revalidate()`` fence — a static HFF cache only changes content
        at fences, matching the reference rebuild's populate step.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        new_ids = self.data.append(points, attributes)
        if new_ids.size == 0:
            return new_ids
        if self.point_file is not None:
            self.point_file.append(points)
        if self.native_insert:
            self.index.insert_many(points)
            if self.is_tree and self.inner.cache is not None:
                # The relayout renumbers leaf ids; stale entries would
                # serve the wrong points' bounds.
                self.inner.cache.clear()
        self.cache_extend()
        self.engine.set_live_mask(self.data.live)
        self.counters.applied(len(new_ids))
        self.advisor.record(len(new_ids))
        return new_ids

    def delete(self, ids: np.ndarray) -> np.ndarray:
        """Tombstone ids; returns the ids that were live.

        The cache frees the victims' slots immediately (no dangling
        bounds, no double-charged capacity on re-insert); queries stop
        seeing the ids at the very next search via the live mask.
        """
        was_live = self.data.tombstone(ids)
        if self.point_file is not None:
            self.point_file.tombstone(was_live)
        if not self.is_tree:
            self.cache.invalidate(was_live)
        self.engine.set_live_mask(self.data.live)
        self.counters.applied(len(was_live))
        self.advisor.record(len(was_live))
        return was_live

    def update(self, ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Update rows; returns the ids the new values live under.

        Content-agnostic indexes (linear scan) patch in place — cached
        codes are re-encoded without churning ids.  Content-addressed
        indexes (hashes, codes, tree layouts depend on coordinates)
        express an update as delete + insert, returning the new ids.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if isinstance(self.index, LinearScanIndex):
            self.data.update(ids, points)
            if self.point_file is not None:
                self.point_file.update_rows(ids, points)
            patched = self.cache.patch(ids, points)
            self.counters.patched(patched)
            self.counters.applied(len(ids))
            self.advisor.record(len(ids))
            return ids
        carried = {
            name: column[ids] for name, column in self.data.attributes.items()
        }
        self.delete(ids)
        return self.insert(points, attributes=carried or None)

    def apply(self, batch: MutationBatch) -> np.ndarray:
        """Dispatch one fenced mutation batch (the serving-layer entry)."""
        if batch.kind == "insert":
            return self.insert(batch.points, batch.attributes)
        if batch.kind == "delete":
            return self.delete(batch.ids)
        return self.update(batch.ids, batch.points)

    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Snap raw coordinates onto the trained value domain (if known).

        Appended rows must encode strictly under the trained histogram
        geometry; ingest therefore quantizes them the same way the build
        discretized the base data.  The snap is per dimension (each
        column's distinct base values), which satisfies both global and
        per-dimension histogram domains.
        """
        from repro.mutate.dataset import snap_to_domain

        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        domains = getattr(self, "_column_domains", None)
        if domains is None:
            base = self.data.points[: self.data.base_count]
            domains = [np.unique(base[:, j]) for j in range(base.shape[1])]
            self._column_domains = domains
        out = np.empty_like(points)
        for j, domain in enumerate(domains):
            out[:, j] = snap_to_domain(points[:, j], domain)
        return out

    def cache_extend(self) -> None:
        """Grow the cache's id -> slot tables to the current id space."""
        if not self.is_tree:
            self.cache.extend_ids(self.data.num_total)

    # ------------------------------------------------------------------
    # Filtered / tombstone-masked search
    # ------------------------------------------------------------------
    def _predicate_mask(self, predicate: Predicate | None) -> np.ndarray | None:
        if predicate is None:
            return None
        return predicate.mask(self.data.attributes, self.data.num_total)

    def _delta(self, predicate_mask: np.ndarray | None):
        """Live appended rows not represented in the index (overlay)."""
        if self.native_insert:
            return None, None
        keep = self.data.live[self.data.base_count :].copy()
        if predicate_mask is not None:
            keep &= predicate_mask[self.data.base_count :]
        ids = (np.flatnonzero(keep) + self.data.base_count).astype(np.int64)
        return ids, self.data.points[ids]

    def search(self, query, k: int | None = None, predicate: Predicate | None = None):
        k = k or self.k
        pred = self._predicate_mask(predicate)
        result = self.engine.search(query, k, predicate_mask=pred)
        delta_ids, delta_points = self._delta(pred)
        if delta_ids is None or len(delta_ids) == 0:
            return result
        return overlay_result(result, query, k, delta_ids, delta_points)

    def search_many(
        self, queries, k: int | None = None, predicate: Predicate | None = None
    ):
        k = k or self.k
        pred = self._predicate_mask(predicate)
        results = self.engine.search_many(queries, k, predicate_mask=pred)
        delta_ids, delta_points = self._delta(pred)
        if delta_ids is None or len(delta_ids) == 0:
            return results
        return [
            overlay_result(res, query, k, delta_ids, delta_points)
            for query, res in zip(np.atleast_2d(queries), results)
        ]

    # ------------------------------------------------------------------
    # Revalidation fences and the patch-vs-rebuild pass
    # ------------------------------------------------------------------
    def _selection(self, max_items: int) -> np.ndarray:
        freq = candidate_frequencies(
            self.index, self.workload, self.k, self.data.num_total, self.data.live
        )
        return hff_selection(freq, max_items, self.data.live)

    def revalidate(self) -> int:
        """Re-derive HFF content against the mutated ``F'`` in place.

        Returns the number of entries (re)loaded.  LRU caches skip the
        fence — their warm state *is* their content — and ``NoCache``
        has nothing to hold.
        """
        if self.workload is None:
            raise ValueError("revalidation needs a workload")
        if self.is_tree:
            cache = self.inner.cache
            if cache is None:
                return 0
            cache.clear()
            return cache.populate_by_frequency(
                self.index.leaf_access_frequencies(self.workload, self.k),
                self.index.leaf_contents,
            )
        cache = self.cache
        if isinstance(cache, NoCache) or cache.max_items == 0:
            return 0
        if getattr(cache, "policy", None) is CachePolicy.LRU:
            return 0
        selection = self._selection(cache.max_items)
        # Patch the selection *diff* only: entries staying in the
        # selection already hold correct codes (codes per id are
        # immutable; updates patch them at mutation time), so the fence
        # re-encodes just the entries whose HFF membership changed.
        # Content-wise this is identical to invalidate-all + repopulate
        # — which is what rebuild() does against a fresh cache.
        current = cache.cached_ids()
        stale = np.setdiff1d(current, selection)
        if len(stale):
            cache.invalidate(stale)
        missing = np.setdiff1d(selection, current)
        if len(missing) == 0:
            return 0
        loaded = cache.populate(missing, self.data.points[missing])
        self.counters.patched(int(loaded))
        return loaded

    def patch_fence(self) -> int:
        """The advisor's cheap epoch action: coherence without a retrain.

        Mutation-time patching already keeps the cache sound (deletes
        free their slots immediately, updates re-encode in place), so a
        small epoch needs no frequency pass over the workload — the HFF
        selection trained last epoch is still near-optimal when few rows
        changed.  The only incremental work is admitting appended live
        rows into whatever slots the epoch's deletes freed
        (deterministic: ascending id order).  Returns entries admitted.

        Contrast :meth:`revalidate`, the bit-identity fence that
        re-derives the full selection against the mutated ``F'`` (same
        cache content as a from-scratch rebuild), and :meth:`rebuild`,
        the full retrain-and-swap.
        """
        if self.is_tree:
            return 0
        cache = self.cache
        if isinstance(cache, NoCache) or cache.max_items == 0:
            return 0
        if getattr(cache, "policy", None) is CachePolicy.LRU:
            return 0
        spare = cache.max_items - cache.num_items
        if spare <= 0 or self.data.base_count == self.data.num_total:
            return 0
        appended = np.arange(
            self.data.base_count, self.data.num_total, dtype=np.int64
        )
        candidates = appended[self.data.live[appended]]
        missing = np.setdiff1d(candidates, cache.cached_ids())[:spare]
        if len(missing) == 0:
            return 0
        admitted = cache.populate(missing, self.data.points[missing])
        self.counters.patched(int(admitted))
        return admitted

    def rebuild(self) -> int:
        """Full retrain-and-swap: build a fresh cache and hot-swap it.

        The publish-then-swap discipline of snapshot maintenance: queries
        keep the old cache until the new one is fully populated, then one
        pointer swap makes it visible (no query ever sees a half-built
        cache).  Returns the number of entries loaded.
        """
        self.counters.rebuilt()
        if self.is_tree:
            return self.revalidate()
        old = self.cache
        if isinstance(old, NoCache):
            return 0
        from repro.core.cache import ApproximateCache, ExactCache

        if isinstance(old, ApproximateCache):
            fresh = ApproximateCache(
                old.encoder,
                old.capacity_bytes,
                self.data.num_total,
                policy=old.policy,
                kernel=getattr(old, "_kernel_choice", None),
            )
        elif isinstance(old, ExactCache):
            fresh = ExactCache(
                old.dim,
                old.capacity_bytes,
                self.data.num_total,
                value_bytes=old.value_bytes,
                policy=old.policy,
            )
        else:
            raise TypeError(f"cannot rebuild cache type {type(old).__name__}")
        loaded = 0
        if fresh.max_items and self.workload is not None:
            selection = self._selection(fresh.max_items)
            loaded = fresh.populate(selection, self.data.points[selection])
        self.engine.swap_cache(fresh)
        return loaded

    def end_epoch(
        self, recent_workload: np.ndarray | None = None
    ) -> AdvisorDecision:
        """The per-epoch stats pre-pass: patch or full retrain-and-swap."""
        decision = self.advisor.decide(self.data.num_live, recent_workload)
        if decision.action == "rebuild":
            self.rebuild()
        else:
            self.patch_fence()
        self.advisor.note_trained(recent_workload)
        return decision
