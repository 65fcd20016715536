"""Shared infrastructure for the benchmark suite.

Each ``test_*`` module under ``benchmarks/`` regenerates one table or
figure of the paper (see DESIGN.md's experiment index).  Benchmarks run
under pytest-benchmark (``pytest benchmarks/ --benchmark-only``); every
experiment prints the paper's rows/series and writes them to
``benchmarks/results/``.

Datasets are the simulated stand-ins at laptop scale; set the
``REPRO_BENCH_SCALE`` environment variable (default 1.0) to grow or
shrink every dataset proportionally.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.data.datasets import Dataset, load_dataset
from repro.eval.methods import WorkloadContext
from repro.eval.reporting import format_table, write_csv
from repro.spec import CacheSection, IndexSection, PipelineSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: Base scale per dataset, tuned so the whole suite runs in minutes.
BASE_SCALE = {
    "tiny": 1.0,
    "nus-wide-sim": 0.4,
    "imgnet-sim": 0.2,
    "sogou-sim": 0.3,
}

#: Paper default parameters (Section 5.1), adapted to the 12-bit grid:
#: the paper's tau=10 sits in a 32-bit value domain; on our 4096-level
#: grid the equivalent operating point is tau=8.
DEFAULT_K = 10
DEFAULT_TAU = 8
#: Default cache size: 30% of the data file (paper: "less than 30%").
DEFAULT_CACHE_FRACTION = 0.30

_dataset_cache: dict = {}
_context_cache: dict = {}


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def get_dataset(name: str, seed: int = 0) -> Dataset:
    key = (name, seed, bench_scale())
    if key not in _dataset_cache:
        _dataset_cache[key] = load_dataset(
            name, seed=seed, scale=BASE_SCALE[name] * bench_scale()
        )
    return _dataset_cache[key]


def get_context(
    name: str,
    index_name: str = "c2lsh",
    ordering: str = "raw",
    k: int = DEFAULT_K,
    seed: int = 0,
) -> WorkloadContext:
    key = (name, index_name, ordering, k, seed, bench_scale())
    if key not in _context_cache:
        _context_cache[key] = WorkloadContext.prepare(
            get_dataset(name, seed=seed),
            index_name=index_name,
            ordering=ordering,
            k=k,
            seed=seed,
        )
    return _context_cache[key]


def cache_bytes_for(dataset: Dataset, fraction: float = DEFAULT_CACHE_FRACTION) -> int:
    return int(dataset.file_bytes * fraction)


def get_engine(
    name: str,
    method: str = "HC-O",
    index_name: str = "c2lsh",
    k: int = DEFAULT_K,
    tau: int = DEFAULT_TAU,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
    seed: int = 0,
    metrics=None,
):
    """A ready ``QueryEngine`` for benchmark modules.

    Returns ``(dataset, engine)`` — the engine behind the standard caching
    pipeline for ``method`` over the named dataset, sharing the module's
    dataset/context caches.  Pass a ``MetricsRegistry`` as ``metrics`` to
    aggregate the run's telemetry (see :func:`dump_metrics`).
    """
    dataset = get_dataset(name, seed=seed)
    context = get_context(name, index_name=index_name, k=k, seed=seed)
    pipeline = PipelineSpec(
        index=IndexSection(name=index_name),
        cache=CacheSection(
            method=method,
            tau=tau,
            cache_bytes=cache_bytes_for(dataset, cache_fraction),
        ),
        k=k,
        seed=seed,
    ).build(dataset=dataset, context=context, metrics=metrics)
    return dataset, pipeline.engine


def dump_metrics(name: str, registry, engine=None) -> Path:
    """Persist a registry snapshot to ``benchmarks/results/<name>.json``.

    When the engine is given, its cache telemetry is published into the
    registry first so the dump carries hit/eviction/occupancy counters.
    """
    from repro.obs.reporter import publish_cache_metrics

    if engine is not None and engine.cache is not None:
        publish_cache_metrics(engine.cache, registry)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.metrics.json"
    registry.to_json(path)
    return path


def emit(name: str, title: str, headers, rows) -> str:
    """Print the experiment table and persist it (txt + csv)."""
    table = format_table(headers, rows, title=title)
    print("\n" + table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    write_csv(RESULTS_DIR / f"{name}.csv", headers, rows)
    return table
