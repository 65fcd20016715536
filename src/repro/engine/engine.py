"""``QueryEngine``: one cached-search pipeline for every index family.

The engine owns the three Algorithm-1 phases (generate → reduce →
refine) over a :class:`~repro.engine.sources.CandidateSource` and runs
them one query at a time, whether called through
:meth:`QueryEngine.search` or :meth:`QueryEngine.search_many`.

Phase 2 bounds only the query's own candidates: ``reduce`` calls
``cache.lookup(query, own_ids, k)``, and the default native kernel reads
those codes' packed words directly, so no code is decoded and no
(query, candidate) pair is bounded for a query that did not generate
it.  With the query's ``k`` the kernel stops bounding a candidate once
its partial lower bound exceeds the running k-th upper bound, a
candidate Algorithm 1 prunes anyway; the reduction is unchanged.  The
native kernel also releases the GIL while it runs, so a replica pool's
threads overlap their probes.  Within a query, Phase 3
fetches in rounds (see :mod:`repro.core.multistep`): each round reads a
prefix of the lb-sorted candidates that the stopping rule is certain to
fetch, in one call, instead of one candidate per call.  A deadline or a
resilience policy guards that call
(:func:`~repro.faults.policy.protected_fetcher`): the deadline is checked
between rounds and the retry budget counts per page read, so a round is
never split into per-point reads.

Both entry points validate their input first: a query of the wrong
dimension, one holding NaN/inf, or a ``k`` that is not a positive
integer raises :class:`InvalidQueryError` (a ``ValueError``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cache import LeafNodeCache, NoCache, PointCache
from repro.engine.context import ExecutionContext, PhaseHook
from repro.engine.phases import GeneratePhase, ReducePhase, RefinePhase
from repro.engine.sources import TreeLeafSource, as_source
from repro.engine.stats import COMPLETE, QueryStats, SearchResult
from repro.faults.deadline import Deadline
from repro.faults.degrade import degraded_answer
from repro.faults.errors import DEGRADABLE_ERRORS, DeadlineExceeded, fault_reason
from repro.faults.policy import ResiliencePolicy, protected_fetcher
from repro.storage.pointfile import PointFile


class InvalidQueryError(ValueError):
    """A query or ``k`` the engine cannot answer (wrong shape, NaN/inf, k <= 0)."""


def check_k(k) -> int:
    """``k`` as a positive ``int``; bools and non-integers are rejected."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
        raise InvalidQueryError(f"k must be a positive integer, got {k!r}")
    if k <= 0:
        raise InvalidQueryError(f"k must be positive, got {k}")
    return int(k)


def check_queries(queries: np.ndarray, dim: int | None) -> None:
    """Reject a ``(n, d)`` query block of the wrong width or non-finite."""
    if queries.ndim != 2 or (dim is not None and queries.shape[1] != dim):
        raise InvalidQueryError(
            f"queries must have dimension {dim}, got shape {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise InvalidQueryError("queries must be finite (no NaN or inf)")


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
                self.cache, eager_miss_fetch=eager_miss_fetch
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
        kernel :func:`repro.core.kernels.kernel_for` picks.
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
        k = check_k(k)
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InvalidQueryError(
                f"search takes one query vector, got shape {query.shape}; "
                "use search_many for a batch"
            )
        check_queries(query[None, :], self.dim)
        return self._search_one(query, k, ctx, deadline, predicate_mask)

    def _search_one(
        self, query, k, ctx, deadline, predicate_mask, degrade_expired=False
    ) -> SearchResult:
        """``search`` on a validated query; see ``_reduce_and_refine``."""
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
        return self._reduce_and_refine(
            query, candidate_ids, k, ctx, deadline, degrade_expired
        )

    @property
    def dim(self) -> int | None:
        """Dimensionality queries must have (None when unknown)."""
        holder = self.point_file
        if holder is None:  # tree sources keep the points in the index
            holder = getattr(self.source, "index", None)
        points = getattr(holder, "points", None)
        return None if points is None else points.shape[1]

    def search_many(
        self,
        queries: np.ndarray,
        k: int,
        deadline: Deadline | None = None,
        predicate_mask: np.ndarray | None = None,
    ) -> list[SearchResult]:
        """Answer a query batch, one query at a time.

        Returns one :class:`SearchResult` per query, element-wise identical
        (ids, distances and I/O counts) to ``[search(q, k) for q in
        queries]``: each query bounds only its own candidates.

        Args:
            deadline: optional budget.  A single :class:`Deadline` is a
                *per-batch* budget shared by every query (late queries
                degrade once it expires).  A sequence of
                ``Deadline | None``, one per query, carries independent
                per-request budgets — the serving layer's SLA tiers,
                whose clocks started at admission.  In that form a
                request whose own budget expires is answered from cached
                bounds (reason ``"deadline"``) even without a degrading
                policy, so one late request never fails its batchmates.
                Without either, the resilience policy's per-query
                default applies to each query independently.
        """
        k = check_k(k)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if len(queries) == 0:
            return []
        check_queries(queries, self.dim)
        per_request = deadline is not None and not isinstance(deadline, Deadline)
        deadlines = list(deadline) if per_request else [deadline] * len(queries)
        if len(deadlines) != len(queries):
            raise ValueError(
                f"got {len(deadlines)} deadlines for {len(queries)} queries"
            )
        return [
            self._search_one(
                query, k, None, dl, predicate_mask, degrade_expired=per_request
            )
            for query, dl in zip(queries, deadlines)
        ]

    # ------------------------------------------------------------------
    def _reduce_and_refine(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        k: int,
        ctx: ExecutionContext,
        deadline: Deadline | None,
        degrade_expired: bool,
    ) -> SearchResult:
        """Phases 2 and 3 under the query's deadline and policy.

        A degradable fault raises unless the policy degrades; with
        ``degrade_expired`` an expired deadline degrades regardless.
        """
        fetcher = protected_fetcher(
            self.point_file.fetch, self.resilience, deadline
        )
        reduction = None
        try:
            with ctx.phase("reduce"):
                if deadline is not None:
                    deadline.check("reduce")
                reduction = self.reduce.run(
                    query, candidate_ids, k, ctx, fetcher=fetcher
                )
            with ctx.phase("refine"):
                if deadline is not None:
                    deadline.check("refine")
                ids, distances, exact_mask, fetched = self.refine.run(
                    query, reduction, k, ctx, fetcher=fetcher
                )
            query_outcome = COMPLETE
        except DEGRADABLE_ERRORS as exc:
            runtime = self.resilience
            expired = degrade_expired and isinstance(exc, DeadlineExceeded)
            if not expired and (runtime is None or not runtime.policy.degraded):
                raise
            # Answer from cached bounds alone.  If the fault struck
            # before reduction finished (eager miss-fetch failure) there
            # is nothing certified to report and the answer is empty.
            reason = fault_reason(exc)
            if runtime is not None:
                runtime.note_degraded(reason)
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
