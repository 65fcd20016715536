"""The paper's contribution: histogram-encoded caches for kNN search.

Modules follow the paper's structure:

* ``domain`` / ``frequency`` — value domains, data frequency ``F`` and the
  workload frequency array ``F'`` (Eqn. 3),
* ``histogram`` / ``builders`` / ``metrics`` — histograms, the four
  construction methods (equi-width, equi-depth, V-optimal, optimal-kNN)
  and their quality metrics (M1/M2/M3, Section 3.3-3.5),
* ``bitpack`` / ``encoder`` / ``bounds`` — tau-bit codes, bit-level packing
  and lower/upper distance bounds (Section 3.1-3.2),
* ``cache`` / ``reduction`` / ``multistep`` — the cache and the
  candidate-reduction and refinement steps Algorithm 1 runs (the
  pipeline itself is :class:`repro.engine.QueryEngine`),
* ``cost_model`` — Section 4's estimators and the optimal code length,
* ``multidim`` — the R-tree multi-dimensional histogram (mHC-R) and the
  Appendix-B width analysis.
"""

from repro.core.builders import (
    build_equidepth,
    build_equiwidth,
    build_knn_optimal,
    build_voptimal,
)
from repro.core.cache import ApproximateCache, CachePolicy, ExactCache
from repro.core.cost_model import CostModel, optimal_tau
from repro.core.domain import ValueDomain, discretize
from repro.core.encoder import (
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
    PointEncoder,
)
from repro.core.histogram import Histogram

__all__ = [
    "ApproximateCache",
    "CachePolicy",
    "CostModel",
    "ExactCache",
    "GlobalHistogramEncoder",
    "Histogram",
    "IndividualHistogramEncoder",
    "PointEncoder",
    "ValueDomain",
    "build_equidepth",
    "build_equiwidth",
    "build_knn_optimal",
    "build_voptimal",
    "discretize",
    "optimal_tau",
]
