"""Ablation: what goes into the F' frequency array that drives HC-O?

DESIGN.md instantiates QR with the k exact nearest candidates of each
workload query.  Alternatives: (a) *all* candidates of each query
(workload-aware but not kNN-aware), (b) uniform F' (data coverage only,
workload-blind).  Expected shape: the kNN-aware F' yields the lowest
refinement I/O; uniform is the worst of the three.
"""

import numpy as np

from common import (
    DEFAULT_K,
    DEFAULT_TAU,
    cache_bytes_for,
    emit,
    get_context,
    get_dataset,
)
from repro.core.builders import build_knn_optimal
from repro.core.cache import ApproximateCache
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import QueryEngine
from repro.eval.runner import summarize

DATASET = "sogou-sim"


def _fprime_all_candidates(context):
    domain = context.dataset.domain
    points = context.dataset.points
    fprime = np.zeros(domain.size, dtype=np.float64)
    for weight, cands in zip(context.query_weights, context.candidate_sets):
        if cands.size == 0:
            continue
        idx = domain.index_of(points[cands].ravel())
        fprime += weight * np.bincount(idx, minlength=domain.size)
    return fprime


def _measure(context, fprime, label):
    dataset = context.dataset
    hist = build_knn_optimal(dataset.domain, fprime, 2**DEFAULT_TAU)
    encoder = GlobalHistogramEncoder(hist, dataset.dim)
    cache = ApproximateCache(
        encoder, cache_bytes_for(dataset), dataset.num_points
    )
    cache.populate_hff(context.frequencies, dataset.points)
    searcher = QueryEngine.for_index(context.index, context.point_file, cache)
    stats = [
        searcher.search(q, DEFAULT_K).stats for q in dataset.query_log.test
    ]
    result = summarize(
        stats, label, DEFAULT_TAU, cache.capacity_bytes, DEFAULT_K,
        context.point_file.disk.config.read_latency_s,
    )
    return [label, round(result.avg_refine_io, 1), round(result.prune_ratio, 3)]


def run_experiment():
    context = get_context(DATASET)
    dataset = get_dataset(DATASET)
    rows = [
        _measure(context, context.fprime.astype(float), "QR = exact kNN (paper)"),
        _measure(context, _fprime_all_candidates(context), "QR = all candidates"),
        _measure(
            context, np.ones(dataset.domain.size), "F' uniform (workload-blind)"
        ),
    ]
    return rows


def test_abl_qr(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "abl_qr",
        "Ablation — F' construction for HC-O (sogou-sim)",
        ["F' source", "avg refine I/O", "prune ratio"],
        rows,
    )
    knn_io, all_io, uniform_io = rows[0][1], rows[1][1], rows[2][1]
    assert knn_io <= all_io * 1.05 + 0.5
    assert knn_io <= uniform_io * 1.05 + 0.5


if __name__ == "__main__":
    print(run_experiment())
