"""The paper's method lineup and pipeline assembly.

Methods (Section 5.1):

=========  ==========================================================
NO-CACHE   no cache; every candidate is refined from disk
EXACT      cache of exact points (fewest items, exact distances)
C-VA       the whole VA-file in cache; bits tuned so all points fit
HC-W/D/V/O global histogram cache (equi-width / equi-depth /
           V-optimal / the paper's optimal kNN histogram)
iHC-W/D/O  one histogram per dimension
mHC-R      multi-dimensional (R-tree bucket) histogram
=========  ==========================================================

``WorkloadContext`` prepares everything derived from (dataset, index,
workload): candidate sets, candidate frequencies for HFF, the QR multiset
and ``F'`` arrays, and the cost model.  Pipelines for different methods
(built by :meth:`repro.spec.PipelineSpec.build`) share one context so
comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.builders import (
    build_equidepth,
    build_equiwidth,
    build_knn_optimal,
    build_voptimal,
)
from repro.core.cost_model import CostModel
from repro.core.encoder import (
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
    PointEncoder,
)
from repro.core.frequency import (
    QRSet,
    fprime_global,
    fprime_per_dimension,
)
from repro.core.histogram import Histogram
from repro.core.multidim import RTreeBucketEncoder
from repro.data.datasets import Dataset
from repro.spec.build import build_disk
from repro.spec.registry import INDEX_NAMES, build_index
from repro.storage.disk import DiskConfig
from repro.storage.ordering import make_order
from repro.storage.pointfile import PointFile

METHOD_NAMES = (
    "NO-CACHE",
    "EXACT",
    "C-VA",
    "HC-W",
    "HC-D",
    "HC-V",
    "HC-O",
    "iHC-W",
    "iHC-D",
    "iHC-O",
    "mHC-R",
)


@dataclass
class WorkloadContext:
    """Everything derived from (dataset, index, workload, k).

    Build once per configuration with ``WorkloadContext.prepare`` and share
    across all methods being compared.
    """

    dataset: Dataset
    index: object
    point_file: PointFile
    k: int
    distinct_queries: np.ndarray
    query_weights: np.ndarray
    candidate_sets: list[np.ndarray]
    frequencies: np.ndarray
    qr: QRSet
    d_max: float
    avg_candidates: float
    distance_profiles: tuple = ()
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def prepare(
        cls,
        dataset: Dataset,
        index_name: str = "c2lsh",
        ordering: str = "raw",
        k: int = 10,
        seed: int = 0,
        disk: DiskConfig | None = None,
        index_params: dict | None = None,
    ) -> "WorkloadContext":
        """Build the index, run the workload and collect cache inputs."""
        if dataset.query_log is None:
            raise ValueError("dataset needs a query log")
        if index_name not in INDEX_NAMES:
            raise ValueError(
                f"unknown index {index_name!r}; choices: {INDEX_NAMES}"
            )
        index = build_index(
            index_name,
            dataset.points,
            seed=seed,
            value_bytes=dataset.value_bytes,
            params=index_params,
        )
        order = make_order(ordering, dataset.points, seed=seed)
        point_file = PointFile(
            dataset.points,
            disk=build_disk(disk or DiskConfig()),
            order=order,
            value_bytes=dataset.value_bytes,
        )
        from repro.workload.train import derive_workload

        deriv = derive_workload(
            dataset.points, index, dataset.query_log.workload, k
        )
        return cls(
            dataset=dataset,
            index=index,
            point_file=point_file,
            k=k,
            distinct_queries=deriv.distinct,
            query_weights=deriv.weights,
            candidate_sets=deriv.candidate_sets,
            frequencies=deriv.frequencies,
            qr=deriv.qr,
            d_max=deriv.d_max,
            avg_candidates=deriv.avg_candidates,
            distance_profiles=deriv.distance_profiles,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @cached_property
    def fprime(self) -> np.ndarray:
        """Global workload frequency array ``F'``."""
        return fprime_global(self.dataset.domain, self.dataset.points, self.qr)

    @cached_property
    def fprime_dims(self) -> list[np.ndarray]:
        """Per-dimension ``F'_j`` arrays (for iHC-* methods)."""
        domains = [self.dataset.dimension_domain(j) for j in range(self.dataset.dim)]
        return fprime_per_dimension(domains, self.dataset.points, self.qr)

    @cached_property
    def qr_points(self) -> np.ndarray:
        """The k-th near candidate of each workload query (for Theorem 2)."""
        rows = []
        for row in self.qr.point_ids:
            members = row[row >= 0]
            if members.size:
                rows.append(self.dataset.points[members[-1]])
        if not rows:
            return self.dataset.points[:1]
        return np.stack(rows)

    def cost_model(self) -> CostModel:
        """Cost model (Section 4) instantiated from this workload."""
        return CostModel(
            dim=self.dataset.dim,
            value_span=self.dataset.domain.span,
            d_max=self.d_max,
            candidate_frequencies=self.frequencies,
            avg_candidates=self.avg_candidates,
            lvalue_bits=self.dataset.value_bytes * 8,
            distance_profiles=self.distance_profiles,
        )

    # ------------------------------------------------------------------
    def histogram(self, kind: str, tau: int) -> Histogram:
        """Build (and memoize) a global histogram of the given kind."""
        key = (kind, tau)
        if key not in self._cache:
            domain = self.dataset.domain
            n_buckets = 2**tau
            if kind == "equiwidth":
                hist = build_equiwidth(domain, n_buckets)
            elif kind == "equidepth":
                hist = build_equidepth(domain, n_buckets)
            elif kind == "voptimal":
                hist = build_voptimal(domain, n_buckets)
            elif kind == "knn-optimal":
                hist = build_knn_optimal(domain, self.fprime, n_buckets)
            else:
                raise ValueError(f"unknown histogram kind {kind!r}")
            self._cache[key] = hist
        return self._cache[key]

    def dimension_histograms(self, kind: str, tau: int) -> list[Histogram]:
        """Per-dimension histograms (memoized).

        The per-dimension DPs use a reduced candidate-split grid: one
        Algorithm-2 run per dimension is exactly the construction cost the
        paper's Table 3 flags as prohibitive (23.8 days for iHC-O), so the
        reproduction trades a little optimality for tractability.
        """
        key = ("dims", kind, tau)
        if key not in self._cache:
            out = []
            n_buckets = 2**tau
            for j in range(self.dataset.dim):
                domain = self.dataset.dimension_domain(j)
                if kind == "equiwidth":
                    out.append(build_equiwidth(domain, n_buckets))
                elif kind == "equidepth":
                    out.append(build_equidepth(domain, n_buckets))
                elif kind == "knn-optimal":
                    out.append(
                        build_knn_optimal(
                            domain,
                            self.fprime_dims[j],
                            n_buckets,
                            max_positions=256,
                        )
                    )
                else:
                    raise ValueError(f"unknown per-dimension kind {kind!r}")
            self._cache[key] = out
        return self._cache[key]

    def encoder(self, method: str, tau: int) -> PointEncoder:
        """The point encoder of a caching method (memoized per tau)."""
        key = ("enc", method, tau)
        if key in self._cache:
            return self._cache[key]
        dim = self.dataset.dim
        if method == "HC-W":
            enc = GlobalHistogramEncoder(self.histogram("equiwidth", tau), dim)
        elif method == "HC-D":
            enc = GlobalHistogramEncoder(self.histogram("equidepth", tau), dim)
        elif method == "HC-V":
            enc = GlobalHistogramEncoder(self.histogram("voptimal", tau), dim)
        elif method == "HC-O":
            enc = GlobalHistogramEncoder(self.histogram("knn-optimal", tau), dim)
        elif method == "iHC-W":
            enc = IndividualHistogramEncoder(self.dimension_histograms("equiwidth", tau))
        elif method == "iHC-D":
            enc = IndividualHistogramEncoder(self.dimension_histograms("equidepth", tau))
        elif method == "iHC-O":
            enc = IndividualHistogramEncoder(
                self.dimension_histograms("knn-optimal", tau)
            )
        elif method == "mHC-R":
            enc = RTreeBucketEncoder(self.dataset.points, tau)
        else:
            raise ValueError(f"no encoder for method {method!r}")
        self._cache[key] = enc
        return enc
