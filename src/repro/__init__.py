"""repro — histogram-based caching for high-dimensional kNN search.

A full reproduction of:

    Bo Tang, Man Lung Yiu, Kien A. Hua.
    "Exploit Every Bit: Effective Caching for High-Dimensional Nearest
    Neighbor Search."  IEEE TKDE 28(5), 2016.

The package implements the paper's contribution (histogram-encoded point
caches with an optimal kNN histogram and a cost model for the code length)
together with every substrate the paper evaluates on: a simulated disk,
C2LSH, iDistance, VP-tree, R-tree, VA-file, synthetic datasets and Zipf
query workloads, and an experiment harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import PipelineSpec, load_dataset
    from repro.spec import CacheSection

    dataset = load_dataset("tiny", seed=0)
    spec = PipelineSpec(cache=CacheSection(method="HC-O", tau=6,
                                           cache_bytes=1 << 16))
    pipeline = spec.build(dataset=dataset)
    result = pipeline.search(dataset.query_log.test[0], k=10)
    print(result.ids, result.stats.page_reads)
"""

from importlib import import_module

__version__ = "1.0.0"

#: public name -> home module (resolved lazily so that importing one
#: subsystem never drags in the rest).
_EXPORTS = {
    "ApproximateCache": "repro.core.cache",
    "CachePolicy": "repro.core.cache",
    "CostModel": "repro.core.cost_model",
    "Dataset": "repro.data.datasets",
    "ExactCache": "repro.core.cache",
    "Experiment": "repro.eval.runner",
    "ExperimentResult": "repro.eval.runner",
    "FormatVersionError": "repro.artifacts.errors",
    "Histogram": "repro.core.histogram",
    "Pipeline": "repro.spec.build",
    "PipelineSpec": "repro.spec.sections",
    "SearchResult": "repro.engine.stats",
    "inspect_snapshot": "repro.artifacts.snapshot",
    "load_dataset": "repro.data.datasets",
    "load_snapshot": "repro.artifacts.snapshot",
    "optimal_tau": "repro.core.cost_model",
    "save_snapshot": "repro.artifacts.snapshot",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__() -> list[str]:
    return __all__
