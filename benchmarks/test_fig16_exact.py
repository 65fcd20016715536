"""Figure 16: exact kNN indexes (iDistance, VA-file, VP-tree) on IMGNET.

Paper: replacing the EXACT cache with the HC-O approximate cache cuts the
query cost of all three *exact* indexes by an order of magnitude across
k.  Expected shape: for each index and each k, HC-O response <= EXACT
response; at the default k the gap is large (>= 2x here, the paper shows
~10x at full scale).
"""

from common import (
    DEFAULT_K,
    DEFAULT_TAU,
    cache_bytes_for,
    emit,
    get_context,
    get_dataset,
)
from repro.eval.runner import Experiment
from repro.spec import CacheSection, IndexSection, PipelineSpec

DATASET = "imgnet-sim"
K_VALUES = (1, 10, 50, 100)
TREE_INDEXES = ("idistance", "vptree")
READ_LATENCY = 5e-3


def _tree_times(index_name, method, dataset, context, k_values):
    pipeline = PipelineSpec(
        index=IndexSection(name=index_name),
        cache=CacheSection(
            method=method, tau=DEFAULT_TAU, cache_bytes=cache_bytes_for(dataset)
        ),
        k=DEFAULT_K,
    ).build(dataset=dataset, context=context)
    times = {}
    for k in k_values:
        reads = [
            pipeline.search(q, k).stats.page_reads
            for q in dataset.query_log.test
        ]
        times[k] = sum(reads) / len(reads) * READ_LATENCY
    return times


def run_experiment():
    dataset = get_dataset(DATASET)
    context = get_context(DATASET, index_name="linear")
    rows = []
    checks = {}
    for index_name in TREE_INDEXES:
        exact = _tree_times(index_name, "EXACT", dataset, context, K_VALUES)
        hco = _tree_times(index_name, "HC-O", dataset, context, K_VALUES)
        for k in K_VALUES:
            rows.append(
                [index_name, k, round(exact[k], 4), round(hco[k], 4)]
            )
        checks[index_name] = (exact, hco)
    # VA-file goes through the generic Algorithm-1 pipeline.
    va_context = get_context(DATASET, index_name="vafile")
    exact_t, hco_t = {}, {}
    for k in K_VALUES:
        for method, sink in (("EXACT", exact_t), ("HC-O", hco_t)):
            result = Experiment(
                dataset, method=method, tau=DEFAULT_TAU,
                cache_bytes=cache_bytes_for(dataset),
                k=k, index_name="vafile",
            ).run(context=va_context)
            sink[k] = result.refine_time_s
        rows.append(["vafile", k, round(exact_t[k], 4), round(hco_t[k], 4)])
    checks["vafile"] = (exact_t, hco_t)
    return rows, checks


def test_fig16_exact(benchmark):
    rows, checks = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "fig16_exact",
        "Figure 16 — exact indexes: EXACT vs HC-O caching (imgnet-sim)",
        ["index", "k", "t EXACT", "t HC-O"],
        rows,
    )
    for index_name, (exact, hco) in checks.items():
        for k in K_VALUES:
            # one-page absolute tolerance: at k=1 both sides round to a
            # couple of page reads.
            assert hco[k] <= exact[k] * 1.1 + READ_LATENCY, (index_name, k)
        assert hco[DEFAULT_K] <= exact[DEFAULT_K] / 2, (
            f"{index_name}: HC-O should be far below EXACT at k={DEFAULT_K}"
        )


if __name__ == "__main__":
    print(run_experiment()[0])
