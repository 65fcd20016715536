"""Fault-injection benchmark: resilience overhead and degraded-mode cost.

Three questions about the ``repro.faults`` stack:

1. **Masking overhead** — how much per-query latency do retries cost
   when the disk misbehaves at realistic rates (vs the faultless run of
   the identical configuration)?  Results must stay bit-identical.
2. **Degraded-mode speed** — how fast is a cache-only answer (breaker
   forced open: zero refinement I/O) compared to the full pipeline?
   This is the floor the engine falls back to under a dying disk.
3. **Quality of degradation** — recall@k and the bound-derived error
   certificate of the degraded answers, against the faultless truth.
"""

import numpy as np
import pytest

from common import (
    DEFAULT_K,
    DEFAULT_TAU,
    cache_bytes_for,
    dump_metrics,
    get_context,
    get_dataset,
    emit,
)
from repro.faults import FaultSpec, ResiliencePolicy, RetryPolicy
from repro.faults.disk import FaultyDisk
from repro.obs.registry import MetricsRegistry
from repro.spec import CacheSection, PipelineSpec

DATASET = "nus-wide-sim"
#: Cache fraction small enough that refinement actually touches disk.
CACHE_FRACTION = 0.1
FAULTS = FaultSpec(
    seed=97, transient_rate=0.05, corrupt_rate=0.01, max_consecutive=2
)
POLICY = ResiliencePolicy(retry=RetryPolicy(max_retries=2))


@pytest.fixture(scope="module")
def setup():
    dataset = get_dataset(DATASET)
    context = get_context(DATASET)
    registry = MetricsRegistry()
    pipeline = PipelineSpec(
        cache=CacheSection(
            method="HC-O",
            tau=DEFAULT_TAU,
            cache_bytes=cache_bytes_for(dataset, CACHE_FRACTION),
        ),
        k=DEFAULT_K,
    ).build(
        dataset=dataset, context=context, metrics=registry, resilience=POLICY
    )
    return dataset, pipeline, registry


def _run_all(pipeline, queries):
    return [pipeline.search(q, DEFAULT_K) for q in queries]


def test_fault_masking_overhead(benchmark, setup):
    """Per-query latency with injected faults + retries; bit-identical."""
    dataset, pipeline, registry = setup
    queries = dataset.query_log.test
    truth = _run_all(pipeline, queries)

    point_file = pipeline.context.point_file
    original = point_file.disk
    point_file.disk = FaultyDisk(original, FAULTS, registry=registry)
    state = {"i": 0}

    def one_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return pipeline.search(q, DEFAULT_K)

    try:
        result = benchmark(one_query)
        faulted = _run_all(pipeline, queries)
    finally:
        point_file.disk = original
    assert len(result.ids) == DEFAULT_K
    for t, f in zip(truth, faulted):
        assert np.array_equal(t.ids, f.ids)
        assert np.allclose(t.distances, f.distances)
        assert f.outcome.complete
    dump_metrics("faults_masking", registry)


def test_degraded_mode_speed_and_quality(benchmark, setup):
    """Cache-only answers under a forced-open breaker: speed + recall."""
    dataset, pipeline, registry = setup
    queries = dataset.query_log.test
    truth = _run_all(pipeline, queries)

    runtime = pipeline.engine.resilience
    assert runtime is not None and runtime.breaker is not None
    runtime.breaker.force_open()
    state = {"i": 0}

    def one_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return pipeline.search(q, DEFAULT_K)

    try:
        result = benchmark(one_query)
        degraded = _run_all(pipeline, queries)
    finally:
        runtime.breaker.reset()
    assert len(result.ids) <= DEFAULT_K

    recalls, errors, exact_slots = [], [], []
    for t, d in zip(truth, degraded):
        assert not d.outcome.complete
        assert d.outcome.reason == "breaker_open"
        recalls.append(
            len(np.intersect1d(t.ids, d.ids)) / max(1, len(t.ids))
        )
        errors.append(d.outcome.max_bound_error)
        exact_slots.append(int(d.exact_mask.sum()) if d.exact_mask is not None
                           else 0)
    finite = [e for e in errors if np.isfinite(e)]
    emit(
        "faults_degraded",
        f"Degraded (cache-only) answers on {DATASET}, "
        f"cache {CACHE_FRACTION:.0%}, k={DEFAULT_K}",
        ["metric", "value"],
        [
            ["recall@k (mean)", round(float(np.mean(recalls)), 3)],
            ["exact slots/query (mean)",
             round(float(np.mean(exact_slots)), 2)],
            ["bound error (mean, finite)",
             round(float(np.mean(finite)), 4) if finite else "inf"],
            ["queries with inf certificate",
             sum(1 for e in errors if not np.isfinite(e))],
        ],
    )
    # The cache holds real points: degraded answers must overlap truth.
    assert float(np.mean(recalls)) > 0.0
