"""Shared fixtures: small deterministic datasets and prepared contexts.

Expensive artifacts (the tiny dataset, its workload context) are session-
scoped; tests must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.domain import ValueDomain
from repro.data.datasets import Dataset, load_dataset
from repro.data.workload import generate_query_log
from repro.eval.methods import WorkloadContext


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """The registry 'tiny' dataset: 2000 x 16, 8-bit grid, Zipf log."""
    return load_dataset("tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_context(tiny_dataset: Dataset) -> WorkloadContext:
    """Workload context over the tiny dataset with the C2LSH index."""
    return WorkloadContext.prepare(tiny_dataset, index_name="c2lsh", k=10, seed=0)


@pytest.fixture(scope="session")
def micro_points() -> np.ndarray:
    """400 x 6 grid-valued points for fast index tests."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(20, 200, size=(3, 6))
    pts = np.concatenate(
        [c + rng.normal(scale=12, size=(140, 6)) for c in centers]
    )[:400]
    return np.rint(np.clip(pts, 0, 255))


@pytest.fixture(scope="session")
def micro_dataset(micro_points: np.ndarray) -> Dataset:
    log = generate_query_log(
        micro_points, pool_size=40, workload_size=200, test_size=12, seed=3
    )
    return Dataset(
        name="micro", points=micro_points, value_bits=8, query_log=log
    )


@pytest.fixture(scope="session")
def micro_domain(micro_points: np.ndarray) -> ValueDomain:
    return ValueDomain.from_points(micro_points)


def make_shard_merge_case(
    rng: np.random.Generator,
    n_shards: int | None = None,
    plant_ties: bool = True,
    tiny_shards: bool = False,
) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """One randomized top-k merge instance: per-shard (ids, dists) plus k.

    Ids are globally disjoint (shards partition an id space).  With
    ``plant_ties`` a shared distance value is planted across shards so a
    merge must exercise its tie-breaking; with ``tiny_shards`` shard
    sizes may be smaller than ``k`` (the merge must not pad or truncate
    wrongly).  Seeded by the caller's generator for reproducibility.
    """
    n_shards = n_shards if n_shards is not None else int(rng.integers(1, 6))
    high = 4 if tiny_shards else 30
    sizes = rng.integers(0 if tiny_shards else 1, high, size=n_shards)
    if sizes.sum() == 0:
        sizes[0] = 1
    total = int(sizes.sum())
    ids = rng.permutation(total * 3)[:total].astype(np.int64)
    dists = np.round(rng.uniform(0, 10, size=total), 2)
    if plant_ties and total >= 2:
        tie_value = float(dists[0])
        tie_count = int(rng.integers(2, min(total, 6) + 1))
        dists[rng.permutation(total)[:tie_count]] = tie_value
    id_arrays, dist_arrays, start = [], [], 0
    for size in sizes:
        stop = start + int(size)
        id_arrays.append(ids[start:stop])
        dist_arrays.append(dists[start:stop])
        start = stop
    k = int(rng.integers(1, total + 3))  # may exceed every shard's size
    return id_arrays, dist_arrays, k


@pytest.fixture()
def shard_merge_cases():
    """Seeded generator of randomized merge instances (satellite tests).

    Returns a callable ``(seed, n_cases, **kwargs) -> iterator`` so each
    property test owns an explicit, reportable seed.
    """

    def generate(seed: int, n_cases: int, **kwargs):
        case_rng = np.random.default_rng(seed)
        for _ in range(n_cases):
            yield make_shard_merge_case(case_rng, **kwargs)

    return generate


def brute_force_knn_set(points: np.ndarray, query: np.ndarray, k: int) -> set[int]:
    """All ids within the k-th smallest distance (tie-tolerant truth)."""
    d = np.linalg.norm(points - query, axis=1)
    kth = np.sort(d)[min(k, len(points)) - 1]
    return set(np.flatnonzero(d <= kth + 1e-9).tolist())


def assert_valid_knn(points: np.ndarray, query: np.ndarray, k: int, ids) -> None:
    """Result must have k ids, all within the true k-th distance."""
    ids = list(ids)
    assert len(ids) == min(k, len(points))
    assert len(set(ids)) == len(ids), "duplicate result ids"
    truth = brute_force_knn_set(points, query, k)
    assert set(ids) <= truth, f"non-kNN ids returned: {set(ids) - truth}"


@pytest.fixture
def force_kernel(monkeypatch):
    """``force_kernel(name)`` pins the bound kernel every cache picks.

    The product has no kernel option (``repro.core.kernels.kernel_for``
    decides from the machine), so tests that compare kernels through a
    whole pipeline replace ``auto_kernel`` for the test's duration.
    Encoders without bucket structure still get ``decode``.
    """

    def force(name: str) -> None:
        if name == "native":
            ok, reason = kernels.native_available()
            assert ok, reason
            kern = kernels._native_kernel()
        else:
            kern = {"decode": kernels._DECODE, "numpy": kernels._TABLE}[name]
        monkeypatch.setattr(kernels, "auto_kernel", lambda: kern)

    return force
