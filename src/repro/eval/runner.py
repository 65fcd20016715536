"""Experiment runner: execute test queries, aggregate the paper's metrics.

Measured quantities per configuration (all averaged over ``Qtest``):

* ``rho_hit``, ``rho_prune`` — Eqn. 1's cache factors,
* ``Crefine`` — candidates entering refinement,
* refinement / generation page reads and their modeled wall-clock times
  (``T = page_reads * read_latency``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cache import ApproximateCache, CachePolicy
from repro.core.encoder import PointEncoder
from repro.core.reduction import reduce_candidates
from repro.data.datasets import Dataset
from repro.engine.stats import QueryStats
from repro.eval.methods import WorkloadContext
from repro.obs.registry import MetricsRegistry
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
    ResilienceSection,
)
from repro.obs.reporter import observed_vs_predicted, publish_cache_metrics


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated metrics of one (method, parameters) configuration.

    ``per_query`` is empty unless the experiment was run with
    ``keep_per_query=True`` (retaining one record per query grows without
    bound on large sweeps).
    """

    method: str
    tau: int
    cache_bytes: int
    k: int
    num_queries: int
    avg_candidates: float
    hit_ratio: float
    prune_ratio: float
    avg_crefine: float
    avg_refine_io: float
    avg_gen_io: float
    refine_time_s: float
    gen_time_s: float
    response_time_s: float
    wall_time_s: float
    per_query: tuple[QueryStats, ...] = field(repr=False, default=())
    #: JSON-able metrics snapshot (None unless run with ``metrics=True``):
    #: the registry dump plus an ``observed_vs_predicted`` drift entry.
    metrics: dict | None = field(repr=False, default=None)
    #: Queries answered in degraded (cache-only) mode because a fault,
    #: deadline or open breaker interrupted refinement (``outcome
    #: .complete`` was False).  Zero on fault-free runs.
    degraded_queries: int = 0

    @property
    def avg_io(self) -> float:
        return self.avg_refine_io + self.avg_gen_io

    @property
    def hit_times_prune(self) -> float:
        """The ``rho_hit * rho_prune`` product of Figure 15(a)."""
        return self.hit_ratio * self.prune_ratio


@dataclass
class Experiment:
    """One experimental configuration (paper Section 5 defaults).

    Attributes mirror the paper's parameters: result size ``k``, code
    length ``tau``, cache size ``CS``, caching policy, index and file
    ordering.
    """

    dataset: Dataset
    method: str = "HC-O"
    k: int = 10
    tau: int = 8
    cache_bytes: int = 1 << 20
    index_name: str = "c2lsh"
    ordering: str = "raw"
    policy: CachePolicy = CachePolicy.HFF
    seed: int = 0
    #: Retain every per-query ``QueryStats`` on the result.  Off by
    #: default: large sweeps would otherwise accumulate one record per
    #: query per configuration without bound.
    keep_per_query: bool = False
    #: Aggregate the run into a metrics registry (``repro.obs``): phase
    #: latency histograms, ``Tgen``/``Trefine`` totals, cache telemetry
    #: and the cost-model drift view.  Pass an existing
    #: ``MetricsRegistry`` to accumulate across experiments, or ``True``
    #: for a fresh one.  The snapshot lands on ``result.metrics``.
    metrics: bool | MetricsRegistry = False
    #: Seeded disk faults and the policy guarding refinement I/O
    #: against them — retries, circuit breaker, per-query deadline and
    #: degraded cache-only answers (the spec's resilience section).
    resilience: ResilienceSection = field(default_factory=ResilienceSection)

    def to_spec(self) -> PipelineSpec:
        """The declarative :class:`PipelineSpec` of this configuration.

        The metrics registry is a live object on the experiment and is
        passed alongside the spec at build time.
        """
        return PipelineSpec(
            dataset=DatasetSection(name=self.dataset.name, seed=self.seed),
            index=IndexSection(name=self.index_name),
            cache=CacheSection(
                method=self.method,
                tau=self.tau,
                cache_bytes=self.cache_bytes,
                policy="lru" if self.policy is CachePolicy.LRU else "hff",
            ),
            resilience=self.resilience,
            k=self.k,
            ordering=self.ordering,
            seed=self.seed,
        )

    @classmethod
    def from_spec(cls, spec: PipelineSpec, dataset: Dataset, **kwargs):
        """An experiment mirroring a spec's configuration."""
        from repro.spec.build import resolve_policy

        return cls(
            dataset,
            method=spec.cache.method,
            k=spec.k,
            tau=spec.cache.tau,
            cache_bytes=spec.cache.cache_bytes,
            index_name=spec.index.name,
            ordering=spec.ordering,
            policy=resolve_policy(spec.cache.policy),
            seed=spec.seed,
            resilience=spec.resilience,
            **kwargs,
        )

    def run(
        self,
        queries: np.ndarray | None = None,
        context: WorkloadContext | None = None,
    ) -> ExperimentResult:
        """Execute the test queries and aggregate statistics.

        Construction goes through the single spec build path
        (:func:`repro.spec.build.build_pipeline`) via :meth:`to_spec`.

        Args:
            queries: query points (defaults to the dataset's ``Qtest``).
            context: pre-built workload context to share across methods.
        """
        from repro.spec.build import build_pipeline

        registry: MetricsRegistry | None = None
        if self.metrics:
            registry = (
                self.metrics
                if isinstance(self.metrics, MetricsRegistry)
                else MetricsRegistry()
            )
        pipeline = build_pipeline(
            self.to_spec(),
            dataset=self.dataset,
            context=context,
            metrics=registry,
        )
        if queries is None:
            if self.dataset.query_log is None:
                raise ValueError("no queries given and dataset has no query log")
            queries = self.dataset.query_log.test
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        started = time.perf_counter()
        results = pipeline.search_many(queries, self.k)
        wall = time.perf_counter() - started
        stats = [r.stats for r in results]
        result = summarize(
            stats,
            method=self.method,
            tau=self.tau,
            cache_bytes=self.cache_bytes,
            k=self.k,
            read_latency_s=pipeline.read_latency_s,
            seq_read_latency_s=pipeline.seq_read_latency_s,
            wall_time_s=wall,
            keep_per_query=self.keep_per_query,
        )
        degraded = sum(1 for r in results if not r.outcome.complete)
        if degraded:
            result = replace(result, degraded_queries=degraded)
        if registry is not None:
            result = replace(
                result, metrics=self._finalize_metrics(registry, pipeline)
            )
        return result

    def _finalize_metrics(self, registry: MetricsRegistry, pipeline) -> dict:
        """Publish cache telemetry + drift view; return the snapshot."""
        publish_cache_metrics(pipeline.cache, registry)
        encoder = (
            pipeline.cache.encoder
            if isinstance(pipeline.cache, ApproximateCache)
            else None
        )
        drift = observed_vs_predicted(
            registry,
            pipeline.context.cost_model(),
            cache=pipeline.cache,
            tau=self.tau if encoder is not None else None,
            encoder=encoder,
            qr_points=pipeline.context.qr_points if encoder is not None else None,
            k=self.k,
        )
        payload = registry.snapshot()
        payload["observed_vs_predicted"] = drift
        return payload


def summarize(
    stats: list[QueryStats],
    method: str,
    tau: int,
    cache_bytes: int,
    k: int,
    read_latency_s: float,
    seq_read_latency_s: float = 0.0,
    wall_time_s: float = 0.0,
    keep_per_query: bool = False,
) -> ExperimentResult:
    """Aggregate per-query stats into an ``ExperimentResult``.

    Args:
        keep_per_query: retain the individual ``QueryStats`` records on
            the result (off by default — they grow without bound on
            large sweeps).
    """
    if not stats:
        raise ValueError("no query statistics to summarize")
    refine_io = float(np.mean([s.refine_page_reads for s in stats]))
    gen_io = float(np.mean([s.gen_page_reads for s in stats]))
    return ExperimentResult(
        method=method,
        tau=tau,
        cache_bytes=cache_bytes,
        k=k,
        num_queries=len(stats),
        avg_candidates=float(np.mean([s.num_candidates for s in stats])),
        hit_ratio=float(np.mean([s.hit_ratio for s in stats])),
        prune_ratio=float(np.mean([s.prune_ratio for s in stats])),
        avg_crefine=float(np.mean([s.c_refine for s in stats])),
        avg_refine_io=refine_io,
        avg_gen_io=gen_io,
        refine_time_s=refine_io * read_latency_s,
        gen_time_s=gen_io * seq_read_latency_s,
        response_time_s=refine_io * read_latency_s + gen_io * seq_read_latency_s,
        wall_time_s=wall_time_s,
        per_query=tuple(stats) if keep_per_query else (),
    )


def measure_m1(
    encoder: PointEncoder,
    context: WorkloadContext,
    k: int | None = None,
) -> float:
    """The exact Metric (M1): candidates surviving reduction over ``WL``.

    Assumes every candidate is cached (Def. 9 evaluates ``refine_H`` over
    ``C(q) ^ Psi``), isolating the histogram's pruning power from the hit
    ratio.  Weighted by query multiplicity.

    Bounds go through the shared kernel path
    (:func:`repro.core.kernels.code_bounds`) — the exact code the query
    engine runs, and bit-identical to the historical per-query
    ``rectangle_bounds`` loop — so the validator exercises what it
    validates.
    """
    from repro.core.kernels import code_bounds

    k = k or context.k
    points = context.dataset.points
    total = 0.0
    for query, weight, cands in zip(
        context.distinct_queries, context.query_weights, context.candidate_sets
    ):
        if cands.size == 0:
            continue
        codes = encoder.encode(points[cands])
        lb, ub = code_bounds(query[None, :], codes, encoder)
        outcome = reduce_candidates(
            cands, np.ones(len(cands), dtype=bool), lb[0], ub[0], k
        )
        total += weight * outcome.c_refine
    return float(total)
