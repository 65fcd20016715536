"""Churn differential suite: mutations are invisible to answer bits.

The guarantee, per (index family x cache method) cell and per bound
kernel: interleaving inserts and deletes with queries changes **nothing
observable** relative to a from-scratch rebuild over the mutated
dataset.  At every fence (mutate -> revalidate) the mutated pipeline and
a reference twin — same trained geometry, indexes and caches built fresh
from the post-mutation rows — return bit-identical ids, distances and
``exact_mask``, for plain and attribute-filtered kNN alike.

Three extra legs extend the chain through the outer layers:

* **sharded** — a ``ShardedEngine`` absorbing the same mutation script
  through ``mutate()`` matches the unsharded mutable pipeline;
* **snapshot** — ``save_churn_state`` / ``restore_pipeline`` replays the
  delta deterministically (the persisted pipeline answers identically);
* **mid-epoch** — between fences the answers stay exact under the
  tombstone mask (compared against brute force, which needs no cache-
  content equivalence).

Each cell rebuilds from scratch per kernel; all randomness derives from
``SEED``.  LRU cells are intentionally absent: their warm state *is*
their content, so bit-identity to a cold rebuild is not a property they
promise (the unit suite covers their masking separately).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import native_available
from repro.eval.methods import WorkloadContext
from repro.mutate import (
    MutablePipeline,
    load_churn_state,
    parse_predicate,
    reference_twin,
    restore_pipeline,
    save_churn_state,
)
from repro.spec import CacheSection, IndexSection, PipelineSpec
from repro.spec.registry import TREE_INDEX_NAMES

SEED = 20260808
K = 5
TAU = 8
CACHE_BYTES = 1 << 14

NATIVE_OK, NATIVE_REASON = native_available()
KERNELS = ("decode", "numpy") + (("native",) if NATIVE_OK else ())

#: >= 6 index x cache cells (acceptance criterion), spanning native-
#: insert families, every cache family, and both tree strategies
#: (idistance relayout-native, vptree delta overlay).
CELLS = (
    ("linear", "HC-O"),
    ("vafile", "HC-O"),
    ("e2lsh", "HC-D"),
    ("c2lsh", "NO-CACHE"),
    ("multiprobe", "EXACT"),
    ("idistance", "HC-O"),
    ("vptree", "EXACT"),
)

PREDICATE = parse_predicate("label<=6")


def build_mutable(dataset, index_name, method, kernel) -> MutablePipeline:
    spec = PipelineSpec(
        index=IndexSection(name=index_name),
        cache=CacheSection(
            method=method, tau=TAU, cache_bytes=CACHE_BYTES, kernel=kernel
        ),
        k=K,
        seed=SEED,
    )
    inner = spec.build(dataset=dataset)
    if index_name in TREE_INDEX_NAMES:
        pipeline = MutablePipeline(
            inner, workload=dataset.query_log.workload, k=K
        )
    else:
        pipeline = MutablePipeline(inner)
    # Deterministic demo attribute for filtered search: label = id mod 10,
    # carried through inserts below.
    pipeline.data.attributes["label"] = (
        np.arange(pipeline.data.num_total, dtype=np.int64) % 10
    )
    return pipeline


def sample_inserts(pipeline, rng, n):
    """Encodable insert rows: resampled base rows + noise, snapped."""
    base = pipeline.data.points[: pipeline.data.base_count]
    picks = rng.integers(0, len(base), size=n)
    rows = pipeline.quantize(
        base[picks] + rng.normal(scale=base.std(axis=0), size=(n, base.shape[1]))
    )
    return rows, {"label": picks.astype(np.int64) % 10}


def assert_bit_identical(got, want, where):
    assert np.array_equal(got.ids, want.ids), where
    assert np.array_equal(got.distances, want.distances), where
    assert np.array_equal(got.exact_mask, want.exact_mask), where


def check_fence(pipeline, queries, where):
    """Bit-identity against a from-scratch rebuild, plain and filtered."""
    twin = reference_twin(pipeline)
    for predicate in (None, PREDICATE):
        got = pipeline.search_many(queries, K, predicate=predicate)
        want = twin.search_many(queries, K, predicate=predicate)
        for qi, (g, w) in enumerate(zip(got, want)):
            assert_bit_identical(
                g, w, f"{where} predicate={predicate is not None} q{qi}"
            )


def assert_exact_topk(pipeline, query, where):
    """Mid-epoch sanity: the masked answer equals brute force."""
    result = pipeline.search(query, K)
    d = np.linalg.norm(pipeline.data.points - query, axis=1)
    d[~pipeline.data.live] = np.inf
    order = np.lexsort((np.arange(len(d)), d))[:K]
    assert result.ids.tolist() == order.tolist(), where
    assert np.allclose(result.distances, d[order]), where


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "index_name,method", CELLS, ids=[f"{i}~{m}" for i, m in CELLS]
)
def test_churn_bit_identical_to_rebuild(
    micro_dataset, index_name, method, kernel
):
    rng = np.random.default_rng(SEED)
    pipeline = build_mutable(micro_dataset, index_name, method, kernel)
    queries = micro_dataset.query_log.test
    cell = f"{index_name}~{method}~{kernel}"

    # Fence 0: no mutations yet — the twin harness itself must agree.
    pipeline.revalidate()
    check_fence(pipeline, queries, f"{cell} fence0")

    # Fence 1: pure inserts.
    rows, attrs = sample_inserts(pipeline, rng, 7)
    new_ids = pipeline.insert(rows, attributes=attrs)
    assert new_ids.tolist() == list(
        range(len(micro_dataset.points), len(micro_dataset.points) + 7)
    )
    assert_exact_topk(pipeline, queries[0], f"{cell} mid-epoch1")
    pipeline.revalidate()
    check_fence(pipeline, queries, f"{cell} fence1")

    # Fence 2: pure deletes, straddling base and append segments.
    live = pipeline.data.live_ids()
    victims = np.concatenate(
        [rng.choice(live[live < pipeline.data.base_count], 4, replace=False),
         new_ids[:2]]
    )
    assert len(pipeline.delete(victims)) == 6
    assert_exact_topk(pipeline, queries[1], f"{cell} mid-epoch2")
    pipeline.revalidate()
    check_fence(pipeline, queries, f"{cell} fence2")

    # Fence 3: interleaved insert + delete in one epoch.
    rows, attrs = sample_inserts(pipeline, rng, 4)
    added = pipeline.insert(rows, attributes=attrs)
    live = pipeline.data.live_ids()
    pipeline.delete(
        np.concatenate([added[:1], rng.choice(live[:-4], 2, replace=False)])
    )
    pipeline.revalidate()
    check_fence(pipeline, queries, f"{cell} fence3")

    assert pipeline.counters.mutations_applied_total == 7 + 6 + 4 + 3
    # Deleted ids never resurface, filtered answers respect the predicate.
    final = pipeline.search_many(queries, K, predicate=PREDICATE)
    labels = pipeline.data.attributes["label"]
    for result in final:
        assert pipeline.data.live[result.ids].all()
        assert (labels[result.ids] <= 6).all()


@pytest.mark.parametrize("kernel", ("decode", "numpy"))
def test_churn_snapshot_roundtrip(micro_dataset, tmp_path, kernel):
    """save_churn_state -> restore_pipeline reproduces answer bits."""
    rng = np.random.default_rng(SEED + 1)
    pipeline = build_mutable(micro_dataset, "vafile", "HC-O", kernel)
    rows, attrs = sample_inserts(pipeline, rng, 6)
    pipeline.insert(rows, attributes=attrs)
    pipeline.delete(rng.choice(pipeline.data.live_ids(), 5, replace=False))
    pipeline.revalidate()

    path = save_churn_state(pipeline, tmp_path / "churn")
    state = load_churn_state(path)
    restored = restore_pipeline(
        state,
        lambda base: build_mutable(micro_dataset, "vafile", "HC-O", kernel),
    )
    queries = micro_dataset.query_log.test
    for predicate in (None, PREDICATE):
        got = restored.search_many(queries, K, predicate=predicate)
        want = pipeline.search_many(queries, K, predicate=predicate)
        for qi, (g, w) in enumerate(zip(got, want)):
            assert_bit_identical(g, w, f"snapshot {kernel} q{qi}")


def test_churn_sharded_matches_unsharded(micro_dataset):
    """The sharded engine absorbs the same script to the same bits."""
    from repro.shard.engine import ShardedEngine
    from repro.shard.spec import ShardSpec

    points = micro_dataset.points
    n = len(points)
    rng = np.random.default_rng(SEED + 2)

    flat = build_mutable(micro_dataset, "linear", "NO-CACHE", "numpy")
    rows, attrs = sample_inserts(flat, rng, 9)
    victims = rng.choice(n, 7, replace=False)

    bounds = np.linspace(0, n, 4, dtype=np.int64)
    specs = [
        ShardSpec(
            shard_id=s,
            member_ids=np.arange(bounds[s], bounds[s + 1], dtype=np.int64),
            points=points[bounds[s] : bounds[s + 1]],
            index_name="linear",
            cache_spec={"kind": "none"},
        )
        for s in range(3)
    ]
    with ShardedEngine(specs) as engine:
        new_ids = engine.mutate(insert_points=rows, delete_ids=victims)
        flat_ids = flat.insert(rows, attributes=attrs)
        flat.delete(victims)
        flat.revalidate()
        assert np.array_equal(new_ids, flat_ids)
        for qi, query in enumerate(micro_dataset.query_log.test):
            got = engine.search(query, K)
            want = flat.search(query, K)
            assert_bit_identical(got, want, f"sharded q{qi}")


def test_twin_is_true_rebuild_not_identity(micro_dataset):
    """Guard the harness: the twin is built fresh from mutated rows.

    A twin that secretly shared the mutated pipeline's index or cache
    would make every fence assertion vacuous.
    """
    pipeline = build_mutable(micro_dataset, "linear", "HC-O", "numpy")
    pipeline.revalidate()
    twin = reference_twin(pipeline)
    assert twin.engine is not pipeline.engine
    assert twin.engine.cache is not pipeline.engine.cache
    # The twin sees the same live rows...
    assert np.array_equal(twin.engine.live_mask, pipeline.data.live)
    # ...but holds its own copies of the trained geometry's output.
    got = twin.search_many(micro_dataset.query_log.test[:3], K)
    want = pipeline.search_many(micro_dataset.query_log.test[:3], K)
    for g, w in zip(got, want):
        assert_bit_identical(g, w, "twin")
