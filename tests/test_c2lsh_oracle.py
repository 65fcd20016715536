"""C2LSH incremental collision counting against the per-table oracle.

``reference_candidates`` is the per-hash-function loop that
``C2LSHIndex.candidates`` ran before counting became incremental: at
every virtual-rehashing level it zeroes the counts, searches every
sorted run from scratch and charges each run's range page by page.  The
incremental search (native C step or its NumPy twin) must return the
same ids in the same order and charge the same page set, on seeded
indexes covering T2, negative hashes, whole-table levels, the no-hit
fallback, spliced capacity buffers, mmapped snapshot arrays and
threads sharing one index.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.lsh.c2lsh as c2lsh_mod
from repro.artifacts.state import index_state, restore_index
from repro.artifacts.store import ObjectStore
from repro.core.kernels import (
    collision_counter,
    count_collisions_numpy,
    native_available,
)
from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams
from repro.storage.iostats import QueryIOTracker

NATIVE_OK, NATIVE_REASON = native_available()


def reference_candidates(index, query, k, tracker=None):
    """The per-table, recount-every-level C2LSH loop (test oracle)."""
    if k <= 0:
        raise ValueError("k must be positive")
    query = np.asarray(query, dtype=np.float64)
    hq = index.family.hash(query[None, :])[0]
    target = k + max(1, int(index.params.beta * index.n_points))
    counts = np.zeros(index.n_points, dtype=np.int32)
    pages_per_table = -(-index.n_points // index.entries_per_page)
    radius = 1
    for _ in range(index.params.max_levels):
        counts[:] = 0
        whole = 0
        for i in range(index.n_hashes):
            bucket = hq[i] // radius
            lo = int(np.searchsorted(index._sorted_hashes[i], bucket * radius, "left"))
            hi = int(
                np.searchsorted(index._sorted_hashes[i], (bucket + 1) * radius, "left")
            )
            if tracker is not None and hi > lo:
                first = lo // index.entries_per_page
                last = (hi - 1) // index.entries_per_page
                for page in range(first, last + 1):
                    tracker.needs_read(i * pages_per_table + page)
            counts[index._sorted_ids[i, lo:hi]] += 1
            if hi - lo == index.n_points:
                whole += 1
        hits = counts >= index.collision_threshold
        found = int(np.sum(hits))
        if found >= min(target, index.n_points) or whole == index.n_hashes:
            break
        if index._points is not None and found >= k:
            ids_now = np.flatnonzero(hits)
            dists = np.linalg.norm(index._points[ids_now] - query, axis=1)
            bound = index.params.c * radius * index.base_radius
            if int(np.sum(dists <= bound)) >= k:
                break
        radius *= index.params.c
    ids = np.flatnonzero(counts >= index.collision_threshold)
    if ids.size == 0:
        take = min(target, index.n_points)
        ids = np.argpartition(-counts, take - 1)[:take]
    order = np.lexsort((ids, -counts[ids]))
    return ids[order].astype(np.int64)


STEPS = [
    pytest.param("numpy", id="numpy"),
    pytest.param(
        "native",
        id="native",
        marks=pytest.mark.skipif(not NATIVE_OK, reason=f"native: {NATIVE_REASON}"),
    ),
]


@pytest.fixture(params=STEPS)
def step(request, monkeypatch):
    """Route ``C2LSHIndex.candidates`` through one counting step.

    Returns a dict holding the ``counts``, ``lo`` and ``hi`` arrays of
    the last call, so a test can see the level a search ended on.
    """
    if request.param == "numpy":
        count = count_collisions_numpy
    else:
        count = collision_counter()
        assert count is not count_collisions_numpy
    seen = {}

    def spy(hashes, ids, key_lo, key_hi, lo, hi, counts):
        count(hashes, ids, key_lo, key_hi, lo, hi, counts)
        seen.update(counts=counts, lo=lo, hi=hi)

    monkeypatch.setattr(c2lsh_mod, "collision_counter", lambda: spy)
    return seen


def _points(seed, n=600, d=10):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(3, d))
    pts = np.concatenate(
        [c + rng.normal(scale=6, size=(n // 3, d)) for c in centers]
    )
    return np.rint(pts)


def _queries(points, seed, count=12):
    rng = np.random.default_rng(seed + 100)
    near = points[rng.choice(len(points), count)] + rng.normal(
        scale=3, size=(count, points.shape[1])
    )
    far = rng.uniform(-150, 250, size=(count // 2, points.shape[1]))
    return np.concatenate([near, far])


def assert_matches_oracle(index, queries, ks=(1, 5, 20)):
    for query in queries:
        for k in ks:
            want_tracker, got_tracker = QueryIOTracker(), QueryIOTracker()
            want = reference_candidates(index, query, k, want_tracker)
            got = index.candidates(query, k, got_tracker)
            assert np.array_equal(got, want), k
            assert got_tracker.pages_seen == want_tracker.pages_seen
            assert got_tracker.page_reads == want_tracker.page_reads
            assert np.array_equal(index.candidates(query, k), want)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("use_t2", [False, True])
def test_matches_oracle(step, seed, use_t2):
    points = _points(seed)
    index = C2LSHIndex(points, C2LSHParams(use_t2=use_t2, c=2 + seed), seed=seed)
    # The p-stable offsets put both signs of hash value in every run.
    assert index._sorted_hashes.min() < 0 < index._sorted_hashes.max()
    assert_matches_oracle(index, _queries(points, seed))


def test_negative_query_hashes(step):
    """Query buckets below zero: numpy floors them, C would truncate."""
    points = _points(3) - 200.0
    index = C2LSHIndex(points, C2LSHParams(n_hashes=24), seed=3)
    queries = _queries(points, 3)
    assert (index.family.hash(queries) < 0).any()
    assert_matches_oracle(index, queries)


def test_whole_table_levels(step):
    """Every run's bucket spans the whole run (``whole == m``).

    The points sit in one tight cluster, so each run holds hashes of one
    sign, and ``c = 1000`` makes the second level's bucket cover them
    all; the first level leaves ids below the threshold.
    """
    rng = np.random.default_rng(0)
    points = np.rint(300 + rng.uniform(0, 20, size=(150, 6)))
    index = C2LSHIndex(points, C2LSHParams(n_hashes=16, c=1000), seed=0)
    query = points.mean(axis=0)
    tracker = QueryIOTracker()
    index.candidates(query, len(points), tracker)
    assert (step["hi"] - step["lo"] == len(points)).all()
    pages_per_table = -(-index.n_points // index.entries_per_page)
    assert tracker.page_reads == index.n_hashes * pages_per_table
    assert_matches_oracle(index, [query], ks=(1, len(points)))


def test_degenerate_fallback(step):
    """No id reaches the threshold: the heaviest colliders are returned."""
    points = _points(5)
    index = C2LSHIndex(points, C2LSHParams(max_levels=2), seed=5)
    rng = np.random.default_rng(5)
    partial = 0
    for query in rng.uniform(-60, 160, size=(40, points.shape[1])):
        got = index.candidates(query, 5)
        counts = step["counts"]
        if counts.max() >= index.collision_threshold:
            continue
        target = 5 + max(1, int(index.params.beta * index.n_points))
        assert len(got) == min(target, index.n_points)
        partial += counts.max() > 0
        assert_matches_oracle(index, [query], ks=(5,))
    assert partial > 0


def test_after_inserts_into_strided_buffers(step):
    points = _points(6, n=900)
    index = C2LSHIndex(points[:450], C2LSHParams(use_t2=True), seed=6)
    queries = _queries(points, 6, count=6)
    for start, size in ((450, 1), (451, 40), (491, 200), (691, 150)):
        index.insert_many(points[start : start + size])
        assert index._sorted_ids.base is index._id_buf
        assert not index._sorted_hashes.flags.c_contiguous
        assert_matches_oracle(index, queries, ks=(1, 10))


def test_restored_snapshot(step, tmp_path):
    """mmapped snapshot runs, then inserts into the restored index."""
    points = _points(7)
    built = C2LSHIndex(points[:500], seed=7)
    meta, arrays = index_state(built, seed=7)
    store = ObjectStore(tmp_path)
    members = store.put_members(arrays)
    index = restore_index(meta, store.load_members(members, mmap=True), points[:500])
    assert isinstance(index._sorted_hashes, np.memmap)
    queries = _queries(points, 7, count=6)
    assert_matches_oracle(index, queries, ks=(1, 10))
    index.insert_many(points[500:])
    assert_matches_oracle(index, queries, ks=(1, 10))


def test_threads_share_an_index(step):
    """The native step runs without the GIL; concurrent searches on one
    index must still each see their own counts and ranges."""
    points = _points(8)
    index = C2LSHIndex(points, seed=8)
    queries = _queries(points, 8)
    want = [reference_candidates(index, q, 10) for q in queries]
    failures = []

    def worker():
        for _ in range(3):
            for query, expected in zip(queries, want):
                if not np.array_equal(index.candidates(query, 10), expected):
                    failures.append(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
