"""Microbenchmarks: per-query latency of the cached search pipeline.

Unlike the figure/table regenerations (single-shot experiments), these
use pytest-benchmark's repeated timing to measure the *CPU* cost of one
cached query — the part the simulated disk does not model.  Useful for
tracking performance regressions of the numpy kernels (bound
computation, bit unpacking, reduction).
"""

import json
import time

import numpy as np
import pytest

from common import (
    DEFAULT_K,
    DEFAULT_TAU,
    RESULTS_DIR,
    cache_bytes_for,
    dump_metrics,
    get_context,
    get_dataset,
    get_engine,
)
from repro.obs.registry import MetricsRegistry
from repro.shard import ShardedEngine, build_shard_specs
from repro.spec import CacheSection, PipelineSpec
from repro.storage.disk import DiskConfig

DATASET = "nus-wide-sim"


@pytest.fixture(scope="module")
def pipelines():
    dataset = get_dataset(DATASET)
    context = get_context(DATASET)
    out = {}
    for method in ("NO-CACHE", "EXACT", "HC-O"):
        out[method] = PipelineSpec(
            cache=CacheSection(
                method=method, tau=DEFAULT_TAU, cache_bytes=cache_bytes_for(dataset)
            ),
            k=DEFAULT_K,
        ).build(dataset=dataset, context=context)
    return dataset, out


@pytest.mark.parametrize("method", ["NO-CACHE", "EXACT", "HC-O"])
def test_query_latency(benchmark, pipelines, method):
    dataset, pipes = pipelines
    queries = dataset.query_log.test
    state = {"i": 0}

    def one_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return pipes[method].search(q, DEFAULT_K)

    result = benchmark(one_query)
    assert len(result.ids) == DEFAULT_K


def test_cache_lookup_kernel(benchmark, pipelines):
    """The Phase-2 kernel alone: bounds for the full candidate set."""
    dataset, pipes = pipelines
    cache = pipes["HC-O"].cache
    query = dataset.query_log.test[0]
    ids = np.arange(min(2000, dataset.num_points))

    hits, lb, ub = benchmark(cache.lookup, query, ids)
    assert np.all(lb <= ub + 1e-9)


def run_kernel_comparison():
    """``search_many`` under each bound kernel (decode / numpy / native).

    The engine picks its kernel from the machine, so each run pins one
    kernel object by patching ``repro.core.kernels.auto_kernel`` for its
    duration; one engine serves every run.  Kernels are bit-identical
    by contract, so the answers are asserted byte-equal across runs
    before any timing is reported.  The workload is Phase-2-bound: a
    linear candidate generator with a full-file cache, so every query
    bounds the whole cached code store.
    """
    from unittest import mock

    from repro.core import kernels

    dataset, engine = get_engine(
        DATASET, method="HC-O", index_name="linear", cache_fraction=1.0
    )
    queries = dataset.query_log.test
    candidates = [kernels._DECODE, kernels._TABLE]
    native_ok, native_reason = kernels.native_available()
    if native_ok:
        candidates.append(kernels._native_kernel())

    runs = {}
    reference = None
    for kernel in candidates:
        with mock.patch.object(kernels, "auto_kernel", lambda k=kernel: k):
            assert engine.kernel_name == kernel.name
            engine.search_many(queries[:2], DEFAULT_K)  # warm up
            started = time.perf_counter()
            results = engine.search_many(queries, DEFAULT_K)
            elapsed = time.perf_counter() - started
        if reference is None:
            reference = results
        for base, got in zip(reference, results):
            assert np.array_equal(base.ids, got.ids), kernel.name
            assert np.array_equal(base.distances, got.distances), kernel.name
            assert np.array_equal(base.exact_mask, got.exact_mask), kernel.name
            assert base.stats == got.stats, kernel.name
        runs[kernel.name] = {
            "wall_time_s": elapsed,
            "queries_per_s": len(queries) / elapsed,
        }
    for kernel, run in runs.items():
        run["speedup_vs_decode"] = (
            runs["decode"]["wall_time_s"] / run["wall_time_s"]
        )
    payload = {"tau": DEFAULT_TAU, "runs": runs}
    if not native_ok:
        payload["native_unavailable"] = native_reason
    return payload


def test_kernel_comparison_throughput(benchmark):
    """The numpy table-gather kernel must beat decode by >= 2x.

    Writes the kernel table into ``benchmarks/results/BENCH_engine.json``
    (merged into the file, which other sections may share).
    """
    payload = benchmark.pedantic(run_kernel_comparison, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged["kernels"] = payload
    path.write_text(json.dumps(merged, indent=2) + "\n")
    for kernel, run in payload["runs"].items():
        print(
            f"\nkernel={kernel}: {run['queries_per_s']:.1f} q/s "
            f"({run['speedup_vs_decode']:.2f}x vs decode)"
        )
    assert payload["runs"]["numpy"]["speedup_vs_decode"] >= 2.0
    if "native" in payload["runs"]:
        assert payload["runs"]["native"]["speedup_vs_decode"] >= 2.0


def test_metrics_instrumented_run(benchmark):
    """Engine run with the obs registry attached; persists the snapshot.

    Also the suite's metrics artifact: the dump lands in
    ``benchmarks/results/BENCH_metrics.metrics.json`` (uploaded by CI).
    """
    registry = MetricsRegistry()
    dataset, engine = get_engine(DATASET, method="HC-O", metrics=registry)
    queries = dataset.query_log.test

    results = benchmark.pedantic(
        lambda: engine.search_many(queries, DEFAULT_K), rounds=1, iterations=1
    )
    assert len(results) == len(queries)
    assert registry.value("engine_queries_total") == len(queries)
    path = dump_metrics("BENCH_metrics", registry, engine=engine)
    print(f"\nmetrics snapshot written to {path}")


def run_shard_scaling():
    """Sharded ``search_many`` throughput across shard counts and executors.

    The workload is I/O-bound the way the paper's system is: a *blocking*
    simulated disk sleeps for each random page read (60 us, one point per
    page), so per-shard refinement overlaps on the thread and process
    executors while the serial executor pays the sum.  Linear scan with no
    cache keeps the candidate path deterministic and identical across
    executors; every configuration's answers are checked against the
    1-shard serial reference before its timing is recorded.
    """
    rng = np.random.default_rng(7)
    n_points, dim, n_queries = 800, 8, 10
    points = rng.normal(size=(n_points, dim))
    queries = rng.normal(size=(n_queries, dim))
    disk = DiskConfig(
        page_size=dim * 4, read_latency_s=60e-6, blocking=True
    )

    reference = None
    runs = []
    for n_shards in (1, 2, 4):
        specs = build_shard_specs(points, n_shards, disk=disk)
        for executor in ("serial", "thread", "process"):
            with ShardedEngine(specs, executor=executor) as engine:
                engine.search_many(queries[:2], DEFAULT_K)  # warm up
                started = time.perf_counter()
                results = engine.search_many(queries, DEFAULT_K)
                elapsed = time.perf_counter() - started
            if reference is None:
                reference = results
            for base, got in zip(reference, results):
                assert np.array_equal(base.ids, got.ids)
                assert np.array_equal(base.distances, got.distances)
            runs.append({
                "shards": n_shards,
                "executor": executor,
                "wall_time_s": elapsed,
                "queries_per_s": n_queries / elapsed,
            })

    def rate(shards, executor):
        return next(
            r["queries_per_s"] for r in runs
            if r["shards"] == shards and r["executor"] == executor
        )

    best_parallel = max(
        rate(n, ex) / rate(n, "serial")
        for n in (2, 4)
        for ex in ("thread", "process")
    )
    return {
        "n_points": n_points,
        "dim": dim,
        "num_queries": n_queries,
        "k": DEFAULT_K,
        "read_latency_s": disk.read_latency_s,
        "runs": runs,
        "best_parallel_speedup": best_parallel,
    }


def test_shard_scaling_throughput(benchmark):
    """Thread/process sharding must beat the serial sharded baseline.

    Persists the scaling curves to ``benchmarks/results/BENCH_shard.json``
    and the merged shard metrics to ``BENCH_shard.metrics.json`` (both
    uploaded by CI).
    """
    payload = benchmark.pedantic(run_shard_scaling, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_shard.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # Merged-metrics artifact: one instrumented sharded run.
    rng = np.random.default_rng(7)
    points = rng.normal(size=(300, 8))
    specs = build_shard_specs(points, 3, metrics=True)
    with ShardedEngine(specs, executor="thread") as engine:
        engine.search_many(rng.normal(size=(5, 8)), DEFAULT_K)
        merged = engine.merged_metrics()
    merged.to_json(RESULTS_DIR / "BENCH_shard.metrics.json")
    for run in payload["runs"]:
        print(
            f"\nshards={run['shards']} executor={run['executor']}: "
            f"{run['queries_per_s']:.1f} q/s"
        )
    assert payload["best_parallel_speedup"] >= 1.5
