"""Churn benchmark: recall under continuous mutation, patch vs rebuild.

The static paper pipeline handles updates with a daily offline rebuild;
the ``repro.mutate`` layer makes the dataset mutable in place.  This
benchmark measures what that buys and what it must not cost:

* **recall floor** — serve a query stream under continuous 10% churn
  (one insert + one delete per ten queries, revalidation fence each
  epoch) and record per-bucket recall against a brute-force oracle over
  the live rows.  The multistep refinement is exact, so the floor must
  not dip below 1.0 even while rows come and go;
* **patch vs rebuild** — time the advisor's two actions on small-batch
  epochs: in-place cache patching (``revalidate``) must beat the full
  retrain-and-swap (``rebuild``) it replaces;
* **advisor escalation** — a Zipf popularity re-seed (disjoint hot
  pool) plus a bulk mutation epoch must flip the advisor's stats
  pre-pass from ``patch`` to ``rebuild``, and the hot swap must be
  invisible: a differential batch across the swap matches a
  from-scratch reference twin bit-for-bit (zero bit-wrong queries).

Persists ``benchmarks/results/BENCH_churn.json`` (uploaded by CI).
"""

import json
import time

import numpy as np

from common import DEFAULT_K, DEFAULT_TAU, RESULTS_DIR, cache_bytes_for, get_dataset
from repro.data.workload import generate_query_log
from repro.mutate import MutablePipeline, reference_twin
from repro.spec import CacheSection, IndexSection, PipelineSpec

#: Small cache (5% of the file) so patching has real work to do.
CHURN_CACHE_FRACTION = 0.05

STREAM = 300        # queries served under continuous churn
CHURN_EVERY = 10    # one insert + one delete per this many queries (10%)
EPOCH = 5           # mutations between revalidation fences
BUCKET = 50
TIMING_ROUNDS = 5   # patch-vs-rebuild timing repetitions
DIFF_QUERIES = 30   # differential batch across the advisor's swap
WORKLOAD = 200      # revalidation workload size (frequency pass input)
SEED = 20260808


def make_pipeline(dataset, cache_bytes):
    # VA-file: exact candidate generation, so recall under churn is a
    # pure measure of mutation correctness (an LSH cell would fold its
    # own approximation into the floor).
    inner = PipelineSpec(
        index=IndexSection(name="vafile"),
        cache=CacheSection(
            method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes
        ),
        k=DEFAULT_K,
        seed=0,
    ).build(dataset=dataset)
    return MutablePipeline(
        inner, workload=dataset.query_log.workload[:WORKLOAD]
    )


def sample_inserts(pipeline, rng, n):
    base = pipeline.data.points[: pipeline.data.base_count]
    picks = rng.integers(0, len(base), size=n)
    noise = rng.normal(scale=base.std(axis=0), size=(n, base.shape[1]))
    return pipeline.quantize(base[picks] + noise)


def recall_at_k(result, points, live, query, k):
    """Tie-robust recall: an id counts if its true distance makes top-k."""
    d = np.linalg.norm(points - query, axis=1)
    d[~live] = np.inf
    kth = np.partition(d, k - 1)[k - 1]
    return float(np.sum(d[result.ids] <= kth + 1e-9)) / k


def run_churn() -> dict:
    dataset = get_dataset("tiny")
    cache_bytes = cache_bytes_for(dataset, fraction=CHURN_CACHE_FRACTION)
    rng = np.random.default_rng(SEED)
    pipeline = make_pipeline(dataset, cache_bytes)

    # ------------------------------------------------------------------
    # Phase 1: continuous 10% churn under a live query stream.
    # ------------------------------------------------------------------
    stream = dataset.query_log.workload[:STREAM]
    recalls: list[float] = []
    buckets: list[dict] = []
    pending = 0
    for i, query in enumerate(stream):
        if i and i % CHURN_EVERY == 0:
            pipeline.insert(sample_inserts(pipeline, rng, 1))
            victim = rng.choice(pipeline.data.live_ids(), 1)
            pipeline.delete(victim)
            pending += 2
            if pending >= EPOCH:
                pipeline.revalidate()
                pending = 0
        result = pipeline.search(query, DEFAULT_K)
        recalls.append(
            recall_at_k(
                result, pipeline.data.points, pipeline.data.live,
                query, DEFAULT_K,
            )
        )
        if len(recalls) % BUCKET == 0:
            start = len(recalls) - BUCKET
            buckets.append({
                "start": start,
                "end": len(recalls),
                "recall": round(float(np.mean(recalls[start:])), 4),
                "live_rows": int(pipeline.data.num_live),
            })
    recall_floor = float(min(b["recall"] for b in buckets))
    churned = int(pipeline.counters.mutations_applied_total)

    # ------------------------------------------------------------------
    # Phase 2: patch vs rebuild on small-batch epochs.
    # ------------------------------------------------------------------
    patch_times: list[float] = []
    rebuild_times: list[float] = []
    for _ in range(TIMING_ROUNDS):
        # Each action gets its own small epoch from an equivalent state:
        # patch_fence absorbs the delta in place, rebuild pays the full
        # frequency pass + fresh-cache populate + hot swap.
        pipeline.insert(sample_inserts(pipeline, rng, 4))
        pipeline.delete(rng.choice(pipeline.data.live_ids(), 4, replace=False))
        t0 = time.perf_counter()
        pipeline.patch_fence()
        patch_times.append(time.perf_counter() - t0)
        pipeline.insert(sample_inserts(pipeline, rng, 4))
        pipeline.delete(rng.choice(pipeline.data.live_ids(), 4, replace=False))
        t0 = time.perf_counter()
        pipeline.rebuild()
        rebuild_times.append(time.perf_counter() - t0)
    patch_ms = float(np.mean(patch_times)) * 1e3
    rebuild_ms = float(np.mean(rebuild_times)) * 1e3

    # ------------------------------------------------------------------
    # Phase 3: advisor escalation on a Zipf re-seed + bulk epoch.
    # ------------------------------------------------------------------
    # The timing loop's rebuilds consolidated the cache; reset the
    # advisor's per-epoch mutation count to match.
    pipeline.advisor.note_trained()
    small = pipeline.insert(sample_inserts(pipeline, rng, 3))
    small_decision = pipeline.end_epoch(
        recent_workload=dataset.query_log.workload[:WORKLOAD]
    )

    reseed = generate_query_log(
        pipeline.data.points[: pipeline.data.base_count],
        pool_size=60, workload_size=200, test_size=10, zipf_s=1.1, seed=87,
    )
    bulk = max(64, int(0.3 * pipeline.data.num_live))
    pipeline.insert(sample_inserts(pipeline, rng, bulk))
    pipeline.delete(
        rng.choice(pipeline.data.live_ids(), bulk // 2, replace=False)
    )
    # Stats pre-pass only (no action yet): the swap happens below, with
    # a differential batch watching it.
    decision = pipeline.advisor.decide(
        pipeline.data.num_live, recent_workload=reseed.workload
    )
    bit_wrong = 0
    pipeline.rebuild()
    pipeline.advisor.note_trained(reseed.workload)
    twin = reference_twin(pipeline)
    for query in reseed.workload[:DIFF_QUERIES]:
        got = pipeline.search(query, DEFAULT_K)
        want = twin.search(query, DEFAULT_K)
        if not (
            np.array_equal(got.ids, want.ids)
            and np.array_equal(got.distances, want.distances)
            and np.array_equal(got.exact_mask, want.exact_mask)
        ):
            bit_wrong += 1

    return {
        "params": {
            "dataset": "tiny", "method": "HC-O", "index": "vafile",
            "tau": DEFAULT_TAU, "k": DEFAULT_K, "cache_bytes": cache_bytes,
            "stream": STREAM, "churn_every": CHURN_EVERY, "epoch": EPOCH,
        },
        "churn": {
            "buckets": buckets,
            "recall_floor": recall_floor,
            "mutations_applied": churned,
            "live_rows": int(pipeline.data.num_live),
        },
        "patch_vs_rebuild": {
            "rounds": TIMING_ROUNDS,
            "patch_ms": round(patch_ms, 3),
            "rebuild_ms": round(rebuild_ms, 3),
            "speedup": round(rebuild_ms / patch_ms, 2) if patch_ms else None,
        },
        "advisor": {
            "small_epoch": {
                "mutations": int(len(small)),
                "action": small_decision.action,
                "reason": small_decision.reason,
            },
            "reseed_epoch": {
                "mutations": int(bulk + bulk // 2),
                "action": decision.action,
                "mutated_fraction": round(decision.mutated_fraction, 3),
                "drift_distance": round(decision.drift_distance, 3),
                "reason": decision.reason,
            },
            "swap_differential": {
                "queries": DIFF_QUERIES,
                "bit_wrong": bit_wrong,
            },
        },
    }


def test_churn(benchmark):
    payload = benchmark.pedantic(run_churn, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_churn.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    churn = payload["churn"]
    pvr = payload["patch_vs_rebuild"]
    adv = payload["advisor"]
    print(
        f"\nrecall floor {churn['recall_floor']:.3f} over "
        f"{churn['mutations_applied']} mutations; patch {pvr['patch_ms']}ms"
        f" vs rebuild {pvr['rebuild_ms']}ms ({pvr['speedup']}x); advisor"
        f" {adv['small_epoch']['action']} -> {adv['reseed_epoch']['action']}"
    )
    # Exact refinement keeps recall pinned at 1.0 through churn.
    assert churn["recall_floor"] >= 0.999
    # Patching small epochs beats the full retrain-and-swap it replaces.
    assert pvr["patch_ms"] < pvr["rebuild_ms"]
    # The advisor patches small epochs and escalates on the re-seed...
    assert adv["small_epoch"]["action"] == "patch"
    assert adv["reseed_epoch"]["action"] == "rebuild"
    # ...and the swap is invisible at the bit level.
    assert adv["swap_differential"]["bit_wrong"] == 0
