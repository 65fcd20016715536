"""The single cache-training core shared by offline build and drift loop.

``train_cache_plan(model, spec)`` runs the full pipeline the paper
describes for one caching method:

1. **Workload derivation** (:func:`derive_workload`) — per-distinct-query
   candidate sets from the index, HFF candidate frequencies, the QR
   multiset (Eqn. 2) and the workload's distance statistics;
2. **F'** — the workload frequency array (Eqn. 3);
3. **histogram DP** — Algorithm 2 (or the baseline builders) with
   ``2**tau`` buckets;
4. **cost-model tau selection** — when ``spec.tau`` is None, the
   Section-4.2 tuner (:func:`~repro.core.cost_model.optimal_tau_encoder`)
   picks ``tau*`` for the cache budget;
5. **cache population** — an :class:`~repro.core.cache.ApproximateCache`
   filled highest-frequency-first.

Every other trainer in the repo — ``spec.build.make_method_cache`` (and
through it ``build_pipeline`` / ``Experiment`` / the CLI) — delegates
here, so a :class:`WindowWorkload` holding exactly ``WL`` trains a cache
bit-identical to the offline build (an equivalence suite enforces F',
bucket boundaries, ``tau*`` and cache contents).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.builders import (
    build_equidepth,
    build_equiwidth,
    build_knn_optimal,
    build_voptimal,
)
from repro.core.cache import ApproximateCache, CachePolicy
from repro.core.cost_model import CostModel, optimal_tau_encoder
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.core.frequency import QRSet, compute_qr_distinct, fprime_global

#: Histogram builder per global HC method (the default encoder factory).
_GLOBAL_BUILDERS = {
    "HC-W": lambda domain, fprime, n: build_equiwidth(domain, n),
    "HC-D": lambda domain, fprime, n: build_equidepth(domain, n),
    "HC-V": lambda domain, fprime, n: build_voptimal(domain, n),
    "HC-O": lambda domain, fprime, n: build_knn_optimal(domain, fprime, n),
}


@dataclass(frozen=True, eq=False)
class WorkloadDerivation:
    """Everything the trainer extracts from (points, index, workload, k).

    This is the payload of ``WorkloadContext.prepare``'s workload scan,
    factored out so the online path derives exactly the same quantities
    from a live model as the offline path does from ``WL``.
    """

    distinct: np.ndarray
    weights: np.ndarray
    candidate_sets: list[np.ndarray]
    frequencies: np.ndarray
    qr: QRSet
    d_max: float
    avg_candidates: float
    distance_profiles: tuple = ()

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())


def derive_workload(
    points: np.ndarray,
    index,
    model,
    k: int,
) -> WorkloadDerivation:
    """Run the workload scan: candidate sets, frequencies, QR, distances.

    Args:
        points: ``(n, d)`` dataset.
        index: candidate generator (``candidates(query, k, tracker)``).
        model: a :class:`~repro.workload.model.WorkloadModel` or a raw
            ``(W, d)`` query array (collapsed via ``np.unique`` exactly
            as the offline path does).
        k: result size the cache is tuned for.
    """
    points = np.asarray(points, dtype=np.float64)
    if hasattr(model, "distinct"):
        distinct, weights = model.distinct()
    else:
        distinct, weights = np.unique(
            np.asarray(model, dtype=np.float64), axis=0, return_counts=True
        )
    if len(distinct) == 0:
        raise ValueError("the workload model holds no queries to train on")
    weights = np.asarray(weights, dtype=np.int64)
    candidate_sets: list[np.ndarray] = []
    frequencies = np.zeros(len(points), dtype=np.int64)
    sizes = []
    d_max = 0.0
    profiles: list[np.ndarray] = []
    for query, weight in zip(distinct, weights):
        cands = np.asarray(index.candidates(query, k, None), dtype=np.int64)
        candidate_sets.append(cands)
        sizes.append(len(cands) * weight)
        frequencies[cands] += weight
        if cands.size:
            dists = np.linalg.norm(points[cands] - query, axis=1)
            d_max = max(d_max, float(dists.max()))
            if len(profiles) < 256:
                profiles.append(np.sort(dists))
    qr = compute_qr_distinct(
        points, distinct, weights, k, candidate_sets=candidate_sets
    )
    total_weight = int(weights.sum())
    return WorkloadDerivation(
        distinct=distinct,
        weights=weights,
        candidate_sets=candidate_sets,
        frequencies=frequencies,
        qr=qr,
        d_max=d_max if d_max > 0 else 1.0,
        avg_candidates=float(np.sum(sizes) / max(total_weight, 1)),
        distance_profiles=tuple(profiles),
    )


def derivation_from_context(context) -> WorkloadDerivation:
    """Adapt a prepared ``WorkloadContext`` into a derivation.

    Lets ``make_method_cache`` reuse the context's one workload scan (and
    its memoized histograms/encoders) instead of re-deriving.
    """
    return WorkloadDerivation(
        distinct=context.distinct_queries,
        weights=context.query_weights,
        candidate_sets=context.candidate_sets,
        frequencies=context.frequencies,
        qr=context.qr,
        d_max=context.d_max,
        avg_candidates=context.avg_candidates,
        distance_profiles=context.distance_profiles,
    )


def qr_kth_points(points: np.ndarray, qr: QRSet) -> np.ndarray:
    """The k-th near candidate of each workload query (for Theorem 2)."""
    points = np.asarray(points, dtype=np.float64)
    rows = []
    for row in qr.point_ids:
        members = row[row >= 0]
        if members.size:
            rows.append(points[members[-1]])
    if not rows:
        return points[:1]
    return np.stack(rows)


@dataclass(frozen=True, eq=False)
class TrainSpec:
    """Declarative inputs of one training run.

    Attributes:
        points: the ``(n, d)`` dataset the cache serves.
        index: candidate generator used for the workload scan.
        k: result size the cache is tuned for.
        method: a global histogram method (``HC-W``/``HC-D``/``HC-V``/
            ``HC-O``) — or any method name when ``encoder_factory``
            supplies the encoders.
        tau: code length; ``None`` selects ``tau*`` via the Section-4.2
            cost-model tuner over ``tau_range``.
        cache_bytes: cache budget ``CS``.
        policy: HFF (populate offline) or LRU (fill online).
        value_bytes: stored bytes per coordinate (drives ``Lvalue``).
        domain: pre-built global value domain (derived from ``points``
            when omitted).
        derivation: pre-computed workload scan (skips
            :func:`derive_workload`; the model argument may then be None).
        encoder_factory: optional ``tau -> PointEncoder`` override —
            ``WorkloadContext`` passes its memoized builder here, which
            both avoids rebuilding histograms across methods and keeps
            the offline path's exact encoder objects.
        kernel: bound-kernel name for the trained cache
            (``repro.core.kernels``; ``None`` = ``REPRO_KERNEL``/auto).
    """

    points: np.ndarray
    index: object = None
    k: int = 10
    method: str = "HC-O"
    tau: int | None = 8
    tau_range: tuple[int, int] = (2, 12)
    cache_bytes: int = 1 << 20
    policy: CachePolicy = CachePolicy.HFF
    value_bytes: int = 4
    domain: ValueDomain | None = None
    derivation: WorkloadDerivation | None = None
    encoder_factory: object = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive (or None for tau*)")
        object.__setattr__(
            self, "points", np.asarray(self.points, dtype=np.float64)
        )


@dataclass(frozen=True, eq=False)
class CachePlan:
    """The trained artifact bundle one training run produces.

    ``cache`` is the deployable piece; the rest (F', encoder, cost
    model, predictions) feed monitoring — e.g. the obs drift view
    compares ``predicted_hit_ratio`` against the measured aggregate.
    """

    method: str
    tau: int
    domain: ValueDomain
    fprime: np.ndarray
    encoder: object
    cache: ApproximateCache
    derivation: WorkloadDerivation
    cost: CostModel
    qr_points: np.ndarray
    predicted_hit_ratio: float
    predicted_refine_io: float
    k: int = 10
    _extras: dict = field(default_factory=dict, repr=False)

    @property
    def frequencies(self) -> np.ndarray:
        return self.derivation.frequencies

    @property
    def histogram(self):
        """The global histogram behind the encoder (None for others)."""
        return getattr(self.encoder, "histogram", None)

    @property
    def histogram_buckets(self) -> int:
        hist = self.histogram
        return int(hist.num_buckets) if hist is not None else 0

    @property
    def cache_items(self) -> int:
        return int(self.cache.num_items)


def _cost_model(spec: TrainSpec, deriv: WorkloadDerivation, domain) -> CostModel:
    return CostModel(
        dim=spec.points.shape[1],
        value_span=domain.span,
        d_max=deriv.d_max,
        candidate_frequencies=deriv.frequencies,
        avg_candidates=deriv.avg_candidates,
        lvalue_bits=spec.value_bytes * 8,
        distance_profiles=deriv.distance_profiles,
    )


def train_cache_plan(model, spec: TrainSpec) -> CachePlan:
    """Train one cache from a workload model: the ONLY training path.

    Args:
        model: a :class:`~repro.workload.model.WorkloadModel`, a raw
            ``(W, d)`` query array, or ``None`` when ``spec.derivation``
            carries a pre-computed scan.
        spec: the training configuration (see :class:`TrainSpec`).

    Returns:
        A :class:`CachePlan`.  Training a :class:`WindowWorkload`
        holding exactly ``WL`` yields bit-identical F', histogram
        boundaries, ``tau*`` and cache contents to the offline
        ``WorkloadContext`` build.
    """
    deriv = spec.derivation
    if deriv is None:
        if model is None:
            raise ValueError("train_cache_plan needs a model or a derivation")
        if spec.index is None:
            raise ValueError("deriving a workload needs spec.index")
        deriv = derive_workload(spec.points, spec.index, model, spec.k)
    domain = spec.domain or ValueDomain.from_points(spec.points)
    fprime = fprime_global(domain, spec.points, deriv.qr)
    dim = spec.points.shape[1]

    factory = spec.encoder_factory
    if factory is None:
        builder = _GLOBAL_BUILDERS.get(spec.method)
        if builder is None:
            raise ValueError(
                f"method {spec.method!r} needs an encoder_factory; the "
                f"built-in builders cover {sorted(_GLOBAL_BUILDERS)}"
            )

        def factory(tau: int, _builder=builder):
            return GlobalHistogramEncoder(
                _builder(domain, fprime, 2**tau), dim
            )

    cost = _cost_model(spec, deriv, domain)
    qr_points = qr_kth_points(spec.points, deriv.qr)
    tau = spec.tau
    if tau is None:
        tau = optimal_tau_encoder(
            cost, spec.cache_bytes, factory, qr_points, tau_range=spec.tau_range
        )
    encoder = factory(tau)
    cache = ApproximateCache(
        encoder, spec.cache_bytes, len(spec.points), spec.policy,
        kernel=spec.kernel,
    )
    if spec.policy is CachePolicy.HFF:
        cache.populate_hff(deriv.frequencies, spec.points)
    n_items = cost.items_for(spec.cache_bytes, encoder.bits, encoder.n_fields)
    return CachePlan(
        method=spec.method,
        tau=int(tau),
        domain=domain,
        fprime=fprime,
        encoder=encoder,
        cache=cache,
        derivation=deriv,
        cost=cost,
        qr_points=qr_points,
        predicted_hit_ratio=cost.hit_ratio(n_items),
        predicted_refine_io=cost.estimate_io_encoder(
            spec.cache_bytes, encoder, qr_points, k=spec.k
        ),
        k=spec.k,
    )
