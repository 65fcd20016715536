"""Drift benchmark: inject a Zipf popularity re-seed, watch the cache recover.

The paper handles workload drift with a daily offline rebuild (§3.5);
the ``repro.workload`` drift loop makes it continuous.  This benchmark
serves a Zipf workload, then re-seeds the popularity distribution
(a disjoint hot query pool) mid-run and records:

* the hit-ratio collapse right after the shift and the recovery after
  the ``DriftController``'s retrains hot-swap a freshly trained cache;
* a differential check at the swap — the answer sets and exact
  distances of the adaptive engine must match an unswapped control
  engine on every query (zero bit-wrong results during the swap);
* the cost-model drift view (predicted vs observed ``rho_hit`` /
  ``rho_refine``) before and after the retrain.

Acceptance: the post-recovery hit ratio reaches at least 90% of a
from-scratch cache trained only on the post-shift workload, with zero
failed or bit-wrong queries.  Persists
``benchmarks/results/BENCH_drift.json`` (uploaded by CI).
"""

import json

import numpy as np

from common import DEFAULT_K, DEFAULT_TAU, RESULTS_DIR, cache_bytes_for, get_dataset
from repro.data.workload import generate_query_log
from repro.obs import MetricsRegistry, drift_comparison
from repro.spec import CacheSection, PipelineSpec
from repro.workload import DriftController, EveryNQueries, TrainSpec, WindowWorkload

#: Small enough that the cache cannot hold every candidate (at the
#: default 30% the tau-bit codes cover the whole tiny dataset and the
#: hit ratio pins at 1.0 regardless of workload).
DRIFT_CACHE_FRACTION = 0.05

PHASE_A = 400  # queries served before the popularity re-seed
PHASE_B = 500  # queries served after it
WINDOW = 250
RETRAIN_EVERY = 150
BUCKET = 50
DIFF_QUERIES = 30  # differential batch right after the first swap


def make_stream(points):
    """Phase-A stream, phase-B stream (disjoint Zipf pools), seeded."""
    log_a = generate_query_log(
        points, pool_size=60, workload_size=PHASE_A, test_size=10,
        zipf_s=1.1, seed=21,
    )
    log_b = generate_query_log(
        points, pool_size=60, workload_size=PHASE_B, test_size=10,
        zipf_s=1.1, seed=87,
    )
    return log_a, log_b


def bit_identical(a, b, points, query) -> bool:
    """Same answer set; exact where flagged; bounds actually bound."""
    true_d = np.linalg.norm(points - query, axis=1)
    return bool(
        a.outcome.complete
        and b.outcome.complete
        and np.array_equal(np.sort(a.ids), np.sort(b.ids))
        and np.allclose(
            a.distances[a.exact_mask], true_d[a.ids[a.exact_mask]]
        )
        and np.all(a.distances >= true_d[a.ids] - 1e-9)
    )


def run_drift() -> dict:
    base = get_dataset("tiny")
    log_a, log_b = make_stream(base.points)
    dataset = base.with_query_log(log_a)
    cache_bytes = cache_bytes_for(dataset, fraction=DRIFT_CACHE_FRACTION)

    registry = MetricsRegistry()
    adaptive = PipelineSpec(
        cache=CacheSection(
            method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes
        ),
        k=DEFAULT_K,
    ).build(dataset=dataset, metrics=registry)
    control = PipelineSpec(
        cache=CacheSection(
            method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes
        ),
        k=DEFAULT_K,
    ).build(dataset=dataset, context=adaptive.context)
    context = adaptive.context
    controller = DriftController(
        WindowWorkload(capacity=WINDOW),
        TrainSpec(
            points=dataset.points,
            index=context.index,
            k=DEFAULT_K,
            method="HC-O",
            tau=DEFAULT_TAU,
            cache_bytes=cache_bytes,
            domain=dataset.domain,
        ),
        engine=adaptive.engine,
        trigger=EveryNQueries(RETRAIN_EVERY),
        metrics=registry,
    )

    stream = np.concatenate([log_a.workload, log_b.workload])
    buckets: list[dict] = []
    retrain_at: list[int] = []
    ratios: list[float] = []
    before_view = None
    differential = {"queries": 0, "bit_wrong": 0, "incomplete": 0}

    for i, query in enumerate(stream):
        if i == PHASE_A + RETRAIN_EVERY - 1 and before_view is None:
            # Last stale-cache query before the first post-shift
            # retrain: snapshot the cost-model drift view.
            before_view = controller.drift_view(
                registry, plan=offline_plan(context, dataset, cache_bytes)
            )
        result = adaptive.search(query, DEFAULT_K)
        ratios.append(result.stats.hit_ratio)
        if controller.observe(query, result.stats):
            retrain_at.append(i)
            if len(retrain_at) == 1:
                # Differential batch across the first hot swap: the
                # control engine still serves the stale cache.
                for dq in log_b.workload[:DIFF_QUERIES]:
                    a = adaptive.search(dq, DEFAULT_K)
                    b = control.search(dq, DEFAULT_K)
                    differential["queries"] += 1
                    if not (a.outcome.complete and b.outcome.complete):
                        differential["incomplete"] += 1
                    if not bit_identical(a, b, dataset.points, dq):
                        differential["bit_wrong"] += 1
        if len(ratios) % BUCKET == 0:
            start = len(ratios) - BUCKET
            buckets.append({
                "start": start,
                "end": len(ratios),
                "phase": "A" if len(ratios) <= PHASE_A else "B",
                "hit_ratio": round(float(np.mean(ratios[start:])), 4),
            })

    after_view = controller.drift_view(registry)

    # From-scratch oracle: a cache trained only on the post-shift
    # workload, serving the same tail queries the adaptive engine saw.
    oracle = PipelineSpec(
        cache=CacheSection(
            method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes
        ),
        k=DEFAULT_K,
    ).build(dataset=base.with_query_log(log_b))
    tail = log_b.workload[-2 * BUCKET:]
    oracle_hit = float(np.mean(
        [oracle.search(q, DEFAULT_K).stats.hit_ratio for q in tail]
    ))
    adaptive_hit = float(np.mean(ratios[-2 * BUCKET:]))
    collapse_hit = float(np.mean(ratios[PHASE_A:PHASE_A + BUCKET]))
    baseline_hit = float(np.mean(ratios[PHASE_A - 2 * BUCKET:PHASE_A]))

    return {
        "params": {
            "dataset": "tiny", "method": "HC-O", "tau": DEFAULT_TAU,
            "k": DEFAULT_K, "cache_bytes": cache_bytes,
            "phase_a": PHASE_A, "phase_b": PHASE_B,
            "window": WINDOW, "retrain_every": RETRAIN_EVERY,
        },
        "buckets": buckets,
        "retrain_at": retrain_at,
        "retrains": controller.retrains,
        "differential": differential,
        "hit_ratio": {
            "pre_shift": round(baseline_hit, 4),
            "post_shift_stale": round(collapse_hit, 4),
            "post_recovery": round(adaptive_hit, 4),
            "from_scratch_oracle": round(oracle_hit, 4),
            "recovery_fraction": round(
                adaptive_hit / oracle_hit if oracle_hit else 1.0, 4
            ),
        },
        "cost_model": {
            "before_retrain": before_view,
            "after_retrain": after_view,
            "comparison": drift_comparison(before_view, after_view),
        },
    }


def offline_plan(context, dataset, cache_bytes):
    """The offline build's plan (for the *before* side of the view)."""
    from repro.workload import train_cache_plan
    from repro.workload.train import derivation_from_context

    return train_cache_plan(
        None,
        TrainSpec(
            points=dataset.points,
            k=context.k,
            method="HC-O",
            tau=DEFAULT_TAU,
            cache_bytes=cache_bytes,
            value_bytes=dataset.value_bytes,
            domain=dataset.domain,
            derivation=derivation_from_context(context),
        ),
    )


def test_drift_recovery(benchmark):
    payload = benchmark.pedantic(run_drift, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_drift.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    hr = payload["hit_ratio"]
    print(
        f"\npre-shift {hr['pre_shift']:.3f} -> stale {hr['post_shift_stale']:.3f}"
        f" -> recovered {hr['post_recovery']:.3f}"
        f" (oracle {hr['from_scratch_oracle']:.3f},"
        f" {hr['recovery_fraction']:.0%}); retrains at {payload['retrain_at']}"
    )
    # Zero failed / bit-wrong queries during the hot swap.
    assert payload["differential"]["queries"] > 0
    assert payload["differential"]["bit_wrong"] == 0
    assert payload["differential"]["incomplete"] == 0
    # The re-seed must actually hurt the stale cache...
    assert hr["post_shift_stale"] < hr["pre_shift"]
    # ...and the retrained cache must recover to >= 90% of from-scratch.
    assert payload["retrains"] >= 2
    assert hr["post_recovery"] >= 0.9 * hr["from_scratch_oracle"]


if __name__ == "__main__":
    print(json.dumps(run_drift()["hit_ratio"], indent=2))
