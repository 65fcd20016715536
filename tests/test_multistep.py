"""Multi-step refinement: exactness and fetch-optimality."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import exact_distances
from repro.core.multistep import multistep_knn
from repro.storage.iostats import QueryIOTracker
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


def _fetcher(points):
    calls = []

    def fetch(ids, tracker=None):
        calls.extend(np.atleast_1d(ids).tolist())
        return points[np.atleast_1d(ids)]

    return fetch, calls


class TestCorrectness:
    def test_no_bounds_fetches_everything(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 4))
        fetch, calls = _fetcher(pts)
        res = multistep_knn(pts[0], np.arange(30), np.zeros(30), 5, fetch)
        assert len(calls) == 30
        assert_valid_knn(pts, pts[0], 5, res.ids)

    def test_tight_bounds_fetch_less(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 4))
        q = pts[0]
        dist = np.linalg.norm(pts - q, axis=1)
        fetch, calls = _fetcher(pts)
        res = multistep_knn(q, np.arange(50), dist, 5, fetch)
        # Exact lower bounds: the optimal algorithm fetches exactly k... or
        # slightly more on ties.
        assert len(calls) <= 7
        assert_valid_knn(pts, q, 5, res.ids)

    def test_confirmed_count_toward_k(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3)) + 10
        q = np.zeros(3)
        dist = np.linalg.norm(pts - q, axis=1)
        order = np.argsort(dist)
        confirmed = order[:2]
        rest = order[2:]
        fetch, calls = _fetcher(pts)
        res = multistep_knn(
            q,
            rest,
            dist[rest],
            4,
            fetch,
            confirmed_ids=confirmed,
            confirmed_ubs=dist[confirmed] + 0.01,
        )
        assert set(confirmed.tolist()) <= set(res.ids.tolist())
        assert_valid_knn(pts, q, 4, res.ids)

    def test_confirmed_never_displaced(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        q = np.array([0.0])
        res = multistep_knn(
            q,
            np.array([1, 2, 3]),
            np.array([1.0, 2.0, 3.0]),
            2,
            _fetcher(pts)[0],
            confirmed_ids=np.array([0]),
            confirmed_ubs=np.array([0.5]),
        )
        assert 0 in res.ids

    def test_fewer_candidates_than_k(self):
        pts = np.array([[0.0], [5.0]])
        fetch, _ = _fetcher(pts)
        res = multistep_knn(np.array([1.0]), np.array([0, 1]), np.zeros(2), 9, fetch)
        assert len(res.ids) == 2

    def test_empty_candidates(self):
        pts = np.zeros((1, 2))
        fetch, calls = _fetcher(pts)
        res = multistep_knn(np.zeros(2), np.empty(0, dtype=int), np.empty(0), 3, fetch)
        assert res.ids.size == 0
        assert not calls

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            multistep_knn(np.zeros(2), np.array([0]), np.array([0.0]), 0, lambda i, t: None)

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            multistep_knn(
                np.zeros(2), np.array([0, 1]), np.array([0.0]), 1, lambda i, t: None
            )

    def test_exact_mask_distinguishes_confirmed(self):
        pts = np.array([[0.0], [1.0], [9.0]])
        fetch, _ = _fetcher(pts)
        res = multistep_knn(
            np.array([0.0]),
            np.array([1, 2]),
            np.array([1.0, 9.0]),
            2,
            fetch,
            confirmed_ids=np.array([0]),
            confirmed_ubs=np.array([0.2]),
        )
        by_id = dict(zip(res.ids.tolist(), res.exact_mask.tolist()))
        assert by_id[0] is False  # confirmed: upper bound, not exact
        assert by_id[1] is True

    def test_pointfile_integration_counts_io(self):
        rng = np.random.default_rng(3)
        pts = np.rint(rng.uniform(0, 255, size=(100, 8)))
        pf = PointFile(pts)
        from repro.storage.iostats import QueryIOTracker

        tracker = QueryIOTracker()
        res = multistep_knn(
            pts[0], np.arange(100), np.zeros(100), 3, pf.fetch, tracker=tracker
        )
        assert tracker.page_reads > 0
        assert res.num_fetched == 100


class TestOptimality:
    def test_never_fetches_beyond_threshold(self):
        """Seidl-Kriegel optimality: with exact lower bounds, no candidate
        whose bound exceeds the k-th result distance is fetched."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 6))
        q = rng.normal(size=6)
        dist = np.linalg.norm(pts - q, axis=1)
        fetch, calls = _fetcher(pts)
        k = 7
        multistep_knn(q, np.arange(200), dist, k, fetch)
        kth = np.sort(dist)[k - 1]
        assert all(dist[c] <= kth + 1e-12 for c in calls)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_property_exact_with_valid_bounds(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 60))
        pts = rng.normal(size=(n, 3)) * 10
        q = rng.normal(size=3) * 10
        dist = np.linalg.norm(pts - q, axis=1)
        lb = np.maximum(dist - rng.uniform(0, 5, size=n), 0.0)
        fetch, _ = _fetcher(pts)
        res = multistep_knn(q, np.arange(n), lb, k, fetch)
        assert_valid_knn(pts, q, k, res.ids)


def reference_multistep(
    query, candidate_ids, lower_bounds, k, fetcher,
    confirmed_ids=None, confirmed_ubs=None, tracker=None,
):
    """The one-candidate-per-fetch Seidl-Kriegel loop (test oracle).

    Returns ``(ids, distances, exact_mask, fetched_ids)`` exactly as
    ``multistep_knn`` must.
    """
    query = np.asarray(query, dtype=np.float64)
    candidate_ids = np.atleast_1d(np.asarray(candidate_ids, dtype=np.int64))
    lower_bounds = np.atleast_1d(np.asarray(lower_bounds, dtype=np.float64))
    confirmed_ids = [] if confirmed_ids is None else list(confirmed_ids)
    confirmed_ubs = [] if confirmed_ubs is None else list(confirmed_ubs)
    order = np.argsort(lower_bounds, kind="stable")
    best = []
    for cid, cub in zip(confirmed_ids, confirmed_ubs):
        heapq.heappush(best, (-float(cub), int(cid), False))

    def threshold():
        return float("inf") if len(best) < k else -best[0][0]

    fetched = []
    for cid, lb in zip(candidate_ids[order].tolist(), lower_bounds[order].tolist()):
        if lb > threshold():
            break
        point = fetcher(np.asarray([cid], dtype=np.int64), tracker)
        dist = float(exact_distances(query, point)[0])
        fetched.append(cid)
        heapq.heappush(best, (-dist, cid, True))
        if len(best) > k:
            heapq.heappop(best)
    results = sorted((-neg, cid, exact) for neg, cid, exact in best)[:k]
    return (
        np.asarray([c for _, c, _ in results], dtype=np.int64),
        np.asarray([d for d, _, _ in results], dtype=np.float64),
        np.asarray([e for _, _, e in results], dtype=bool),
        np.asarray(fetched, dtype=np.int64),
    )


def _recording_fetcher(points):
    """A fetcher that logs every call's id array."""
    calls = []

    def fetch(ids, tracker=None):
        ids = np.atleast_1d(ids)
        calls.append(ids.tolist())
        return points[ids]

    return fetch, calls


def _random_case(seed):
    """A refine input with tied distances, tied and zero lower bounds,
    and optionally confirmed seeds (sometimes more of them than k)."""
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(1, 70))
    d = int(rng.integers(1, 4))
    # A coarse integer grid makes equal distances common.
    pts = rng.integers(0, 5, size=(n_points, d)).astype(np.float64)
    q = rng.integers(0, 5, size=d).astype(np.float64)
    dist = np.linalg.norm(pts - q, axis=1)
    perm = rng.permutation(n_points)
    n_conf = int(rng.integers(0, 6)) if rng.random() < 0.5 else 0
    n_conf = min(n_conf, n_points)
    conf, cand = perm[:n_conf], perm[n_conf:]
    mode = rng.integers(0, 4)
    if mode == 0:
        lb = np.zeros(len(cand))  # every candidate a cache miss
    elif mode == 1:
        lb = dist[cand].copy()  # exact bounds: ties at the k-th distance
    else:
        # Loose bounds, quantized so they tie; a share of misses.
        lb = np.floor(np.maximum(dist[cand] - rng.uniform(0, 3, len(cand)), 0) * 2) / 2
        lb[rng.random(len(cand)) < 0.2] = 0.0
    ubs = dist[conf] + rng.choice([0.0, 0.5, 2.0], size=n_conf)
    k = int(rng.integers(1, 12))
    return pts, q, cand, lb, conf, ubs, k


class TestRoundsMatchOracle:
    """``multistep_knn`` fetches in rounds, but must agree exactly with
    the one-candidate-per-fetch loop on every output."""

    def _check(self, pts, q, cand, lb, k, conf=None, ubs=None):
        ref_fetch, ref_calls = _recording_fetcher(pts)
        want = reference_multistep(q, cand, lb, k, ref_fetch, conf, ubs)
        fetch, calls = _recording_fetcher(pts)
        got = multistep_knn(
            q, cand, lb, k, fetch, confirmed_ids=conf, confirmed_ubs=ubs
        )
        assert got.ids.tolist() == want[0].tolist()
        assert got.distances.tobytes() == want[1].tobytes()
        assert got.exact_mask.tolist() == want[2].tolist()
        assert got.fetched_ids.tolist() == want[3].tolist()
        # The rounds read the same ids in the same order, in no more calls.
        assert [i for call in calls for i in call] == want[3].tolist()
        assert all(calls)
        assert len(calls) <= len(want[3])
        return got, calls

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_property_matches_oracle(self, seed):
        pts, q, cand, lb, conf, ubs, k = _random_case(seed)
        self._check(pts, q, cand, lb, k, conf, ubs)

    def test_all_misses_fetch_in_one_call(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3))
        got, calls = self._check(pts, pts[0], np.arange(40), np.zeros(40), 4)
        assert len(calls) == 1
        assert got.num_fetched == 40

    def test_tied_lower_bounds_and_distances(self):
        # Eight points at distance 1 (and their lbs tied at 1) around k=3.
        pts = np.array(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0], [0, 1], [-1, 0], [0, -1],
             [3, 0]],
            dtype=np.float64,
        )
        lb = np.array([1.0] * 8 + [2.0])
        self._check(pts, np.zeros(2), np.arange(9), lb, 3)

    def test_confirmed_seeds(self):
        pts = np.arange(12, dtype=np.float64)[:, None]
        conf = np.array([0, 1])
        cand = np.arange(2, 12)
        self._check(pts, np.zeros(1), cand, cand - 0.5, 4, conf, np.array([0.5, 1.5]))

    def test_more_confirmed_than_k(self):
        pts = np.arange(12, dtype=np.float64)[:, None]
        conf = np.arange(5)
        cand = np.arange(5, 12)
        self._check(pts, np.zeros(1), cand, cand - 4.0, 2, conf, conf + 3.0)

    def test_k_larger_than_candidates(self):
        pts = np.array([[0.0], [2.0], [5.0]])
        got, calls = self._check(pts, np.zeros(1), np.arange(3), np.array([0, 1.0, 4.0]), 9)
        assert got.num_fetched == 3

    def test_empty_candidate_set(self):
        pts = np.zeros((2, 2))
        _, calls = self._check(
            pts, np.zeros(2), np.empty(0, dtype=np.int64), np.empty(0), 3,
            np.array([1]), np.array([0.0]),
        )
        assert calls == []

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_pointfile_io_matches_oracle(self, seed):
        """Through a real ``PointFile``: identical page charges."""
        pts, q, cand, lb, conf, ubs, k = _random_case(seed)
        # 64 copies of each coordinate: 256 B records, 16 to a page, and
        # every distance (so every valid bound) scaled by exactly 8.
        wide, q = np.repeat(pts, 64, axis=1), np.repeat(q, 64)
        lb, ubs = lb * 8, ubs * 8
        pf_ref, pf_new = PointFile(wide), PointFile(wide)
        t_ref, t_new = QueryIOTracker(), QueryIOTracker()
        reference_multistep(q, cand, lb, k, pf_ref.fetch, conf, ubs, t_ref)
        multistep_knn(
            q, cand, lb, k, pf_new.fetch,
            confirmed_ids=conf, confirmed_ubs=ubs, tracker=t_new,
        )
        assert t_new.pages_seen == t_ref.pages_seen
        assert t_new.page_reads == t_ref.page_reads
        assert t_new.point_fetches == t_ref.point_fetches
        assert pf_new.disk.stats == pf_ref.disk.stats
