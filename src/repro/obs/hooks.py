"""Engine instrumentation: aggregate per-phase and per-query metrics.

:class:`MetricsHook` is a :class:`~repro.engine.context.PhaseHook` that
folds every phase event and every finished query into a
:class:`~repro.obs.registry.MetricsRegistry`:

* ``engine_phase_seconds{phase=...}`` — wall-time histogram per phase
  (``generate`` / ``reduce`` / ``refine``; the cache probe runs inside
  each query's ``reduce``);
* ``engine_phase_gen_page_reads`` / ``engine_phase_refine_page_reads``
  per phase — the ``Tgen``/``Trefine`` split attributed to the phase
  that actually incurred the I/O;
* query-level totals from :class:`~repro.engine.stats.QueryStats`
  (candidates, cache hits, pruned, confirmed, ``Crefine``, fetches,
  page reads) plus live ``engine_rho_hit`` / ``engine_rho_refine``
  gauges.

The hook only observes — it never touches queries, candidates or the
cache, so an instrumented run returns byte-identical results and I/O
counts (a test enforces this).
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext, PhaseHook
from repro.engine.stats import QueryStats
from repro.obs.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry


class MetricsHook(PhaseHook):
    """Aggregates phase timings, page reads and query stats.

    Args:
        registry: destination registry (a fresh one when omitted).
        time_buckets: bucket bounds of the phase latency histograms.
        report_every: when positive, call ``reporter`` after every
            ``report_every`` observed queries (periodic snapshots for
            long-running workloads).
        reporter: callable ``registry -> None`` used by the periodic
            report (defaults to nothing).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        time_buckets=DEFAULT_TIME_BUCKETS,
        report_every: int = 0,
        reporter=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.time_buckets = time_buckets
        self.report_every = int(report_every)
        self.reporter = reporter
        # Page-read snapshots taken at phase start, keyed by (ctx, phase).
        # Contexts are per-query and phases with one name never nest, so
        # the dict stays tiny; entries are popped at phase end.
        self._page_marks: dict[tuple[int, str], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def on_phase_start(self, phase: str, ctx: ExecutionContext) -> None:
        self._page_marks[(id(ctx), phase)] = (
            ctx.gen_page_reads,
            ctx.refine_page_reads,
        )

    def on_phase_end(
        self, phase: str, ctx: ExecutionContext, elapsed_s: float
    ) -> None:
        reg = self.registry
        reg.histogram(
            "engine_phase_seconds",
            bounds=self.time_buckets,
            help="Wall time per engine phase",
            phase=phase,
        ).observe(elapsed_s)
        reg.counter(
            "engine_phase_calls", help="Phase executions", phase=phase
        ).inc()
        gen0, refine0 = self._page_marks.pop((id(ctx), phase), (0, 0))
        gen_delta = ctx.gen_page_reads - gen0
        refine_delta = ctx.refine_page_reads - refine0
        if gen_delta:
            reg.counter(
                "engine_phase_gen_page_reads",
                help="Tgen page reads attributed per phase",
                phase=phase,
            ).inc(gen_delta)
        if refine_delta:
            reg.counter(
                "engine_phase_refine_page_reads",
                help="Trefine page reads attributed per phase",
                phase=phase,
            ).inc(refine_delta)

    # ------------------------------------------------------------------
    def observe_query(self, stats: QueryStats) -> None:
        """Fold one finished query's stats into the aggregate totals."""
        reg = self.registry
        reg.counter("engine_queries_total", help="Queries answered").inc()
        reg.counter(
            "engine_candidates_total", help="Candidates generated (|C(q)|)"
        ).inc(stats.num_candidates)
        reg.counter("engine_cache_hits_total", help="Cache-hit candidates").inc(
            stats.cache_hits
        )
        reg.counter("engine_pruned_total", help="Candidates pruned early").inc(
            stats.pruned
        )
        reg.counter(
            "engine_confirmed_total", help="Candidates confirmed without I/O"
        ).inc(stats.confirmed)
        reg.counter(
            "engine_crefine_total", help="Candidates entering refinement"
        ).inc(stats.c_refine)
        reg.counter(
            "engine_refined_fetches_total", help="Points fetched by refinement"
        ).inc(stats.refined_fetches)
        reg.counter(
            "engine_gen_page_reads_total",
            help="Tgen: candidate-generation page reads",
        ).inc(stats.gen_page_reads)
        reg.counter(
            "engine_refine_page_reads_total",
            help="Trefine: refinement page reads",
        ).inc(stats.refine_page_reads)
        if stats.is_tree_query:
            reg.counter(
                "engine_leaves_streamed_total", help="Tree leaves examined"
            ).inc(stats.leaves_streamed)
            reg.counter(
                "engine_leaf_fetches_total", help="Tree leaves read from disk"
            ).inc(stats.leaf_fetches)
            reg.counter(
                "engine_cached_leaf_hits_total",
                help="Tree leaves answered from the leaf cache",
            ).inc(stats.cached_leaf_hits)
        self._update_live_ratios()
        if self.report_every and self.reporter is not None:
            if reg.value("engine_queries_total") % self.report_every == 0:
                self.reporter(reg)

    def _update_live_ratios(self) -> None:
        reg = self.registry
        candidates = reg.value("engine_candidates_total")
        hits = reg.value("engine_cache_hits_total")
        settled = reg.value("engine_pruned_total") + reg.value(
            "engine_confirmed_total"
        )
        reg.gauge(
            "engine_rho_hit", help="Live aggregate hit ratio rho_hit"
        ).set(hits / candidates if candidates else 0.0)
        reg.gauge(
            "engine_rho_refine",
            help="Live aggregate 1 - rho_prune over cache hits",
        ).set(1.0 - settled / hits if hits else 0.0)
