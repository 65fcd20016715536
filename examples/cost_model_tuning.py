"""Scenario: automatic tuning of the code length tau (Section 4).

Sweeps the cache size and shows how the cost model's chosen tau* moves:
small caches prefer short codes (hit ratio wins), large caches prefer
long codes (pruning wins) — until everything fits and more bits stop
helping.  Compares the model's prediction against measurement.

Run:  python examples/cost_model_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro import load_dataset
from repro.core.cost_model import optimal_tau
from repro.eval.methods import WorkloadContext
from repro.spec import CacheSection, PipelineSpec

SEED = 1
K = 10
TAUS = range(4, 13)


def measured_io(dataset, context, tau: int, cache_bytes: int) -> float:
    pipeline = PipelineSpec(
        cache=CacheSection(method="HC-W", tau=tau, cache_bytes=cache_bytes),
        k=K,
    ).build(dataset=dataset, context=context)
    reads = [
        pipeline.search(q, K).stats.refine_page_reads
        for q in dataset.query_log.test
    ]
    return float(np.mean(reads))


def main() -> None:
    dataset = load_dataset("nus-wide-sim", seed=SEED, scale=0.25)
    context = WorkloadContext.prepare(dataset, k=K, seed=SEED)
    model = context.cost_model()
    print(f"dataset: {dataset.num_points} x {dataset.dim}, "
          f"file {dataset.file_bytes >> 20} MB\n")
    print(f"{'cache':>8s} {'tau*':>5s} {'est io':>8s} "
          f"{'measured io @tau*':>18s} {'measured best tau':>18s}")
    for fraction in (0.05, 0.15, 0.3, 0.6):
        cache_bytes = int(dataset.file_bytes * fraction)
        tau_star = optimal_tau(model, cache_bytes, tau_range=(min(TAUS), max(TAUS)))
        est = model.estimate_io_equiwidth(cache_bytes, tau_star)
        measured = {tau: measured_io(dataset, context, tau, cache_bytes)
                    for tau in TAUS}
        best_tau = min(measured, key=measured.get)
        print(
            f"{fraction:7.0%} {tau_star:5d} {est:8.1f} "
            f"{measured[tau_star]:18.1f} "
            f"{best_tau:8d} ({measured[best_tau]:.1f})"
        )
    print("\nThe model's tau* tracks the measured optimum: small caches "
          "force short codes, larger caches afford finer buckets.")


if __name__ == "__main__":
    main()
