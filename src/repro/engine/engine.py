"""``QueryEngine``: one cached-search pipeline for every index family.

The engine owns the three Algorithm-1 phases (generate → reduce →
refine) over a :class:`~repro.engine.sources.CandidateSource` and runs
them per query (:meth:`QueryEngine.search`) or vectorized over a query
batch (:meth:`QueryEngine.search_many`).

The batched hot path exploits that the paper's Phase 2 is embarrassingly
batchable: cached codes decode to the *same* rectangles for every query,
so the engine probes the cache once for the union of candidate ids
across the batch, decodes each cached code exactly once, and computes
the ``rectangle_bounds`` for all (query, candidate) pairs as one
broadcasted NumPy operation.  Phases 1 and 3 stay per-query, so results
*and I/O counts* are identical to the per-query path — a property test
enforces this for every index type.  Within a query, Phase 3 fetches in
rounds (see :mod:`repro.core.multistep`): each round reads a prefix of
the lb-sorted candidates that the stopping rule is certain to fetch, in
one call, instead of one candidate per call.

Dynamic (LRU) caches mutate on every lookup and admission, making query
order observable; for them ``search_many`` degrades to the sequential
loop so batching never changes behavior.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cache import CachePolicy, LeafNodeCache, NoCache, PointCache
from repro.engine.context import ExecutionContext, PhaseHook
from repro.engine.phases import GeneratePhase, ReducePhase, RefinePhase
from repro.engine.sources import TreeLeafSource, as_source
from repro.engine.stats import COMPLETE, QueryStats, SearchResult
from repro.faults.deadline import Deadline
from repro.faults.degrade import degraded_answer
from repro.faults.errors import DEGRADABLE_ERRORS, fault_reason
from repro.faults.policy import ResiliencePolicy
from repro.storage.pointfile import PointFile


class QueryEngine:
    """The unified cached-search pipeline.

    Args:
        source: a :class:`CandidateSource` adapter or a raw index (wrapped
            automatically — tree indexes get a :class:`TreeLeafSource`).
        point_file: the disk-resident dataset ``P`` (required for
            candidate-set sources; unused by tree sources, whose leaves
            carry their own pages).
        cache: any ``PointCache`` (``NoCache`` reproduces the uncached
            baseline).  Ignored by tree sources — pass the leaf cache to
            the source instead.
        eager_miss_fetch: footnote 6 of the paper — fetch cache misses
            *before* reduction so exact distances tighten ``lb_k``/``ub_k``.
        hooks: instrumentation hooks fired around every phase of every
            query (see :class:`~repro.engine.context.PhaseHook`).
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`.
            When given, a :class:`~repro.obs.hooks.MetricsHook` is
            attached that aggregates per-phase wall time, ``Tgen`` /
            ``Trefine`` page reads and every query's ``QueryStats`` into
            the registry.  Purely observational: results and I/O counts
            are unchanged.
        resilience: optional :class:`~repro.faults.ResiliencePolicy`.
            When given, refinement I/O runs under breaker gating and
            bounded retries, per-query deadlines are enforced at phase
            boundaries, and (with ``policy.degraded``) breaker-open /
            deadline-expired / retry-exhausted queries return a
            cache-only answer with ``outcome.complete == False`` instead
            of raising.  Tree sources keep their exact semantics — the
            policy only protects the candidate-set refinement path.
    """

    def __init__(
        self,
        source,
        point_file: PointFile | None = None,
        cache: PointCache | None = None,
        eager_miss_fetch: bool = False,
        hooks: Sequence[PhaseHook] = (),
        metrics=None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.source = as_source(source)
        self.point_file = point_file
        self.cache = cache if cache is not None else NoCache()
        self.eager_miss_fetch = eager_miss_fetch
        self.metrics = metrics
        self.resilience = (
            resilience.build(registry=metrics) if resilience is not None else None
        )
        #: Tombstone bitmap over point ids (None = every id live).  Set
        #: by the mutation layer; masked right after candidate generation
        #: so reduce/refine (and therefore answers, stats and I/O) see
        #: exactly what a from-scratch rebuild over the live set would.
        self.live_mask: np.ndarray | None = None
        self._metrics_hook = None
        if metrics is not None:
            # Local import: repro.obs.hooks imports the engine package,
            # so a module-level import would be circular.
            from repro.obs.hooks import MetricsHook

            self._metrics_hook = MetricsHook(metrics)
            hooks = tuple(hooks) + (self._metrics_hook,)
        self.hooks = tuple(hooks)
        if not self.source.is_tree:
            if point_file is None:
                raise ValueError("candidate-set sources need a point file")
            self.generate = GeneratePhase(self.source)
            self.reduce = ReducePhase(
                self.cache, point_file, eager_miss_fetch=eager_miss_fetch
            )
            self.refine = RefinePhase(self.cache, point_file)

    # ------------------------------------------------------------------
    @classmethod
    def for_index(
        cls,
        index,
        point_file: PointFile,
        cache: PointCache | None = None,
        eager_miss_fetch: bool = False,
        hooks: Sequence[PhaseHook] = (),
        metrics=None,
        resilience: ResiliencePolicy | None = None,
    ) -> "QueryEngine":
        """Engine over a candidate-set index (LSH, VA-file, linear scan)."""
        return cls(
            index,
            point_file=point_file,
            cache=cache,
            eager_miss_fetch=eager_miss_fetch,
            hooks=hooks,
            metrics=metrics,
            resilience=resilience,
        )

    @classmethod
    def for_tree(
        cls,
        index,
        leaf_cache: LeafNodeCache | None = None,
        hooks: Sequence[PhaseHook] = (),
        metrics=None,
    ) -> "QueryEngine":
        """Engine over a tree index with the Section-3.6.1 leaf cache."""
        return cls(TreeLeafSource(index, leaf_cache), hooks=hooks, metrics=metrics)

    # ------------------------------------------------------------------
    @property
    def is_tree(self) -> bool:
        return self.source.is_tree

    @property
    def kernel_name(self) -> str:
        """The active bound kernel of the engine's cache (for reporting).

        ``exact``/``none`` caches compute distances rather than bounds
        and report their own label; approximate caches report the
        resolved :mod:`repro.core.kernels` kernel.
        """
        cache = self.cache
        if self.source.is_tree:
            cache = getattr(self.source, "leaf_cache", None)
        if cache is None:
            return "none"
        name = getattr(cache, "kernel_name", None)
        return name if name is not None else type(cache).__name__.lower()

    def swap_cache(self, cache: PointCache) -> PointCache:
        """Replace the engine's cache under live traffic; returns the old one.

        The hot-swap step of snapshot maintenance: after a rebuild is
        published, the maintainer loads the new cache (typically mmapped
        from the snapshot) and swaps it in between queries.  All three
        phase objects hold a reference to the cache, so every one is
        repointed; in-flight queries keep the reference they started with.
        """
        if self.source.is_tree:
            raise ValueError(
                "tree engines keep their leaf cache inside the source; "
                "build a new source instead of swapping"
            )
        old = self.cache
        self.cache = cache
        self.reduce.cache = cache
        self.refine.cache = cache
        return old

    def set_live_mask(self, mask: np.ndarray | None) -> None:
        """Install (or clear) the tombstone bitmap over point ids."""
        self.live_mask = None if mask is None else np.asarray(mask, dtype=bool)

    def _combined_filter(
        self, predicate_mask: np.ndarray | None
    ) -> np.ndarray | None:
        """The live ∧ predicate bitmap, or None when nothing masks."""
        if self.live_mask is None:
            return predicate_mask
        if predicate_mask is None:
            return self.live_mask
        return self.live_mask & predicate_mask

    def _mask_candidates(
        self, candidate_ids: np.ndarray, predicate_mask: np.ndarray | None
    ) -> np.ndarray:
        """Drop tombstoned / predicate-rejected ids, keeping order."""
        mask = self._combined_filter(predicate_mask)
        if mask is None or candidate_ids.size == 0:
            return candidate_ids
        return candidate_ids[mask[candidate_ids]]

    def make_context(self) -> ExecutionContext:
        """A fresh per-query context carrying this engine's hooks."""
        return ExecutionContext(hooks=self.hooks)

    def _make_deadline(self, deadline: Deadline | None) -> Deadline | None:
        """Resolve the effective deadline: explicit > policy default > none."""
        if deadline is not None:
            return deadline
        if self.resilience is not None and self.resilience.policy.deadline_s is not None:
            return self.resilience.deadline()
        return None

    def search(
        self,
        query: np.ndarray,
        k: int,
        ctx: ExecutionContext | None = None,
        deadline: Deadline | None = None,
        predicate_mask: np.ndarray | None = None,
    ) -> SearchResult:
        """Answer one kNN query; results match the index's uncached answer.

        Args:
            deadline: optional per-query budget; overrides the resilience
                policy's default.  When it expires (and the policy allows
                degradation) the answer comes from cached bounds alone.
            predicate_mask: optional bool array over point ids restricting
                the answer to ids whose entry is True (attribute-filtered
                kNN); combined with the engine's tombstone bitmap.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        ctx = ctx or self.make_context()
        ctx.query = query
        if self.source.is_tree:
            result = self.source.search(
                query, k, ctx, id_filter=self._combined_filter(predicate_mask)
            )
            self._observe(result.stats)
            return result
        deadline = self._make_deadline(deadline)
        with ctx.phase("generate"):
            candidate_ids = self._mask_candidates(
                self.generate.run(
                    query, k, ctx, live=self._combined_filter(predicate_mask)
                ),
                predicate_mask,
            )
        if candidate_ids.size == 0:
            return self._empty_result(ctx)
        return self._reduce_and_refine(query, candidate_ids, k, ctx, None, deadline)

    def search_many(
        self,
        queries: np.ndarray,
        k: int,
        chunk_size: int = 256,
        deadline: Deadline | None = None,
        predicate_mask: np.ndarray | None = None,
    ) -> list[SearchResult]:
        """Answer a query batch; the cache is probed once per chunk.

        Returns one :class:`SearchResult` per query, element-wise identical
        (ids, distances and I/O counts) to ``[search(q, k) for q in
        queries]``.  Tree sources and dynamic (LRU) caches fall back to
        that sequential loop — their per-query state mutations make
        execution order observable.

        Args:
            chunk_size: queries per batched cache probe; bounds the
                ``(chunk, |union of candidates|)`` bound matrices.
            deadline: optional budget.  A single :class:`Deadline` is a
                *per-batch* budget shared by every query (late queries
                degrade once it expires).  A sequence of
                ``Deadline | None``, one per query, carries independent
                per-request budgets through the batched path — the
                serving layer's SLA tiers, whose clocks started at
                admission.  Without either, the resilience policy's
                per-query default applies to each query independently.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if len(queries) == 0:
            return []
        per_query: list[Deadline | None] | None = None
        if deadline is not None and not isinstance(deadline, Deadline):
            per_query = list(deadline)
            if len(per_query) != len(queries):
                raise ValueError(
                    f"got {len(per_query)} deadlines for {len(queries)} queries"
                )
            deadline = None
        if self.source.is_tree or not self._batchable_cache():
            if per_query is not None:
                return [
                    self.search(query, k, deadline=dl, predicate_mask=predicate_mask)
                    for query, dl in zip(queries, per_query)
                ]
            return [
                self.search(query, k, deadline=deadline, predicate_mask=predicate_mask)
                for query in queries
            ]
        results: list[SearchResult] = []
        for start in range(0, len(queries), chunk_size):
            chunk_deadline = (
                per_query[start : start + chunk_size]
                if per_query is not None
                else deadline
            )
            results.extend(
                self._search_chunk(
                    queries[start : start + chunk_size],
                    k,
                    chunk_deadline,
                    predicate_mask=predicate_mask,
                )
            )
        return results

    def _search_chunk(
        self,
        queries: np.ndarray,
        k: int,
        deadline: Deadline | list[Deadline | None] | None = None,
        predicate_mask: np.ndarray | None = None,
    ) -> list[SearchResult]:
        per_query = deadline if isinstance(deadline, list) else None
        if per_query is not None:
            deadline = None
        contexts = [self.make_context() for _ in range(len(queries))]
        candidate_sets: list[np.ndarray] = []
        for query, ctx in zip(queries, contexts):
            ctx.query = query
            with ctx.phase("generate"):
                candidate_sets.append(
                    self._mask_candidates(
                        self.generate.run(
                            query,
                            k,
                            ctx,
                            live=self._combined_filter(predicate_mask),
                        ),
                        predicate_mask,
                    )
                )

        nonempty = [ids for ids in candidate_sets if ids.size]
        union = (
            np.unique(np.concatenate(nonempty))
            if nonempty
            else np.empty(0, dtype=np.int64)
        )
        if union.size:
            # The probe context carries the engine's hooks, so the
            # ``batch_probe`` phase lands in the metrics like any other;
            # its wall time is also attributed evenly to the chunk's
            # per-query contexts (the per-query path pays the cache
            # lookup inside ``reduce``, batched queries pay it here).
            batch_ctx = self.make_context()
            with batch_ctx.phase("batch_probe"):
                union_hits, lb_matrix, ub_matrix = self.cache.lookup_batch(
                    queries, union
                )
            share = batch_ctx.timings["batch_probe"] / len(queries)
            for ctx in contexts:
                ctx.timings["batch_probe"] = (
                    ctx.timings.get("batch_probe", 0.0) + share
                )

        results: list[SearchResult] = []
        for i, (query, candidate_ids, ctx) in enumerate(
            zip(queries, candidate_sets, contexts)
        ):
            if candidate_ids.size == 0:
                results.append(self._empty_result(ctx))
                continue
            positions = np.searchsorted(union, candidate_ids)
            bounds = (
                union_hits[positions],
                lb_matrix[i, positions],
                ub_matrix[i, positions],
            )
            deadline_i = per_query[i] if per_query is not None else deadline
            results.append(
                self._reduce_and_refine(
                    query, candidate_ids, k, ctx, bounds, self._make_deadline(deadline_i)
                )
            )
        return results

    # ------------------------------------------------------------------
    def _batchable_cache(self) -> bool:
        """Static caches answer a batch probe without observable mutation."""
        return getattr(self.cache, "policy", None) is not CachePolicy.LRU

    def _protected_fetcher(self, deadline: Deadline | None):
        """The point-fetch callable the refine/eager paths must use.

        Without resilience it is the raw ``PointFile.fetch``, which
        charges a whole refine round in one vectorised call.  With it,
        the round's ids are still fetched one point at a time, each
        under breaker gating + bounded retries, with the deadline
        checked between points — a stalled device cannot overrun the
        budget by more than one read.  Per-point granularity keeps
        accounting exact under retries: a failed point's
        ``point_fetches`` increment happens only on the successful
        attempt, and page charges are deduplicated by the query tracker.
        """
        runtime = self.resilience
        if runtime is None and deadline is None:
            return self.point_file.fetch
        point_file = self.point_file

        def fetch(point_ids, tracker=None):
            ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
            rows = []
            for pid in ids.tolist():
                if deadline is not None:
                    deadline.check("refine")
                one = np.asarray([pid])
                if runtime is None:
                    rows.append(point_file.fetch(one, tracker))
                else:
                    rows.append(
                        runtime.protected_call(
                            lambda one=one: point_file.fetch(one, tracker),
                            deadline,
                        )
                    )
            if rows:
                return np.concatenate(rows, axis=0)
            return point_file.points[:0]

        return fetch

    def _reduce_and_refine(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        k: int,
        ctx: ExecutionContext,
        bounds,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        fetcher = self._protected_fetcher(deadline)
        reduction = None
        try:
            with ctx.phase("reduce"):
                if deadline is not None:
                    deadline.check("reduce")
                reduction = self.reduce.run(
                    query, candidate_ids, k, ctx, bounds=bounds, fetcher=fetcher
                )
            with ctx.phase("refine"):
                if deadline is not None:
                    deadline.check("refine")
                ids, distances, exact_mask, fetched = self.refine.run(
                    query, reduction, k, ctx, fetcher=fetcher
                )
            query_outcome = COMPLETE
        except DEGRADABLE_ERRORS as exc:
            if self.resilience is None or not self.resilience.policy.degraded:
                raise
            # Answer from cached bounds alone.  If the fault struck
            # before reduction finished (eager miss-fetch failure) there
            # is nothing certified to report and the answer is empty.
            reason = fault_reason(exc)
            self.resilience.note_degraded(reason)
            ids, distances, exact_mask, query_outcome = degraded_answer(
                reduction, k, reason
            )
            fetched = 0
        stats = QueryStats(
            num_candidates=len(candidate_ids),
            cache_hits=reduction.num_hits if reduction is not None else 0,
            pruned=len(reduction.pruned_ids) if reduction is not None else 0,
            confirmed=len(reduction.confirmed_ids) if reduction is not None else 0,
            c_refine=reduction.c_refine if reduction is not None else 0,
            refined_fetches=fetched,
            refine_page_reads=ctx.refine_page_reads,
            gen_page_reads=ctx.gen_page_reads,
        )
        self._observe(stats)
        return SearchResult(
            ids=ids,
            distances=distances,
            exact_mask=exact_mask,
            stats=stats,
            outcome=query_outcome,
        )

    def _empty_result(self, ctx: ExecutionContext) -> SearchResult:
        stats = QueryStats(0, 0, 0, 0, 0, 0, 0, ctx.gen_page_reads)
        self._observe(stats)
        empty = np.empty(0)
        return SearchResult(
            ids=empty.astype(np.int64),
            distances=empty,
            exact_mask=empty.astype(bool),
            stats=stats,
        )

    def _observe(self, stats: QueryStats) -> None:
        """Fold one finished query into the metrics registry (if any)."""
        if self._metrics_hook is not None:
            self._metrics_hook.observe_query(stats)
