"""The unified QueryEngine: batched execution, phases, hooks, regressions.

Covers the engine-refactor guarantees:

* batched ``search_many`` is element-wise identical (ids, distances and
  I/O stats) to the per-query loop, for every candidate-set index and
  every tree index;
* eager miss fetching returns the same results as the lazy default, and
  admits the fetched points (the eager-admission fix);
* candidate ids are deduplicated at the reduction boundary;
* empty candidate sets return early with zeroed stats;
* phase hooks observe every phase of every query.
"""

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import (
    ApproximateCache,
    CachePolicy,
    ExactCache,
    LeafNodeCache,
    NoCache,
)
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import (
    ExecutionContext,
    InvalidQueryError,
    PhaseHook,
    QueryEngine,
    TimingHook,
    dedupe_ids,
)
from repro.index.idistance import IDistanceIndex
from repro.index.linear_scan import LinearScanIndex
from repro.index.mtree import MTreeIndex
from repro.index.rtree import RTreeIndex
from repro.index.vafile import VAFileIndex
from repro.index.vaplus import VAPlusFileIndex
from repro.index.vptree import VPTreeIndex
from repro.lsh.c2lsh import C2LSHIndex
from repro.lsh.e2lsh import E2LSHIndex
from repro.lsh.multiprobe import MultiProbeLSHIndex
from repro.lsh.sklsh import SKLSHIndex
from repro.storage.pointfile import PointFile

CANDIDATE_INDEXES = {
    "linear": lambda pts: LinearScanIndex(len(pts)),
    "vafile": lambda pts: VAFileIndex(pts),
    "vaplus": lambda pts: VAPlusFileIndex(pts),
    "c2lsh": lambda pts: C2LSHIndex(pts, seed=1),
    "e2lsh": lambda pts: E2LSHIndex(pts, seed=1),
    "multiprobe": lambda pts: MultiProbeLSHIndex(pts, seed=1),
    "sklsh": lambda pts: SKLSHIndex(pts, seed=1),
}

TREE_INDEXES = {
    "idistance": lambda pts: IDistanceIndex(pts, seed=1),
    "vptree": lambda pts: VPTreeIndex(pts, seed=1),
    "mtree": lambda pts: MTreeIndex(pts, seed=1),
    "rtree": lambda pts: RTreeIndex(pts),
}


def make_encoder(points, bins=16):
    dom = ValueDomain.from_points(points)
    return GlobalHistogramEncoder(build_equidepth(dom, bins), points.shape[1])


def make_cache(points, capacity_bytes=1 << 12, policy=CachePolicy.HFF):
    """A partially populated approximate cache (some hits, some misses)."""
    cache = ApproximateCache(
        make_encoder(points), capacity_bytes, len(points), policy=policy
    )
    if policy is not CachePolicy.LRU:
        cache.populate(
            np.arange(cache.max_items), points[: cache.max_items]
        )
    return cache


def assert_results_identical(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.exact_mask, b.exact_mask)
    assert a.stats == b.stats


@pytest.fixture(scope="module")
def queries(micro_points):
    return micro_points[::50] + 0.25


class TestBatchedEquivalence:
    @pytest.mark.parametrize("index_name", sorted(CANDIDATE_INDEXES))
    def test_matches_per_query(self, micro_points, queries, index_name):
        pf = PointFile(micro_points)
        index = CANDIDATE_INDEXES[index_name](micro_points)
        engine = QueryEngine.for_index(index, pf, make_cache(micro_points))
        per_query = [engine.search(q, 5) for q in queries]
        batched = engine.search_many(queries, 5)
        assert len(batched) == len(queries)
        for a, b in zip(per_query, batched):
            assert_results_identical(a, b)

    @pytest.mark.parametrize("cache_kind", ["exact", "none"])
    def test_matches_per_query_other_caches(
        self, micro_points, queries, cache_kind
    ):
        pf = PointFile(micro_points)
        index = LinearScanIndex(len(micro_points))
        if cache_kind == "exact":
            cache = ExactCache(micro_points.shape[1], 1 << 12, len(micro_points))
            cache.populate(
                np.arange(cache.max_items), micro_points[: cache.max_items]
            )
        else:
            cache = NoCache()
        engine = QueryEngine.for_index(index, pf, cache)
        for a, b in zip(
            [engine.search(q, 5) for q in queries],
            engine.search_many(queries, 5),
        ):
            assert_results_identical(a, b)

    @pytest.mark.parametrize("index_name", sorted(TREE_INDEXES))
    def test_tree_matches_per_query(self, micro_points, queries, index_name):
        def build_engine():
            index = TREE_INDEXES[index_name](micro_points)
            cache = LeafNodeCache(make_encoder(micro_points), 1 << 12)
            return QueryEngine.for_tree(index, cache)

        # Two independently built engines: the leaf cache is stateful, so
        # each execution order must start from the same (fresh) state.
        per_query = [build_engine().search(q, 5) for q in [*queries]]
        batched = build_engine().search_many(queries, 5)
        for a, b in zip(per_query, batched):
            assert_results_identical(a, b)

    def test_lru_cache_falls_back_to_sequential(self, micro_points, queries):
        pf = PointFile(micro_points)

        def build_engine():
            cache = make_cache(micro_points, policy=CachePolicy.LRU)
            return QueryEngine.for_index(
                LinearScanIndex(len(micro_points)), pf, cache
            )

        engine = build_engine()
        per_query = []
        seq_engine = build_engine()
        for q in queries:
            per_query.append(seq_engine.search(q, 5))
        for a, b in zip(per_query, engine.search_many(queries, 5)):
            assert_results_identical(a, b)

    def test_empty_batch(self, micro_points):
        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), pf, NoCache()
        )
        assert engine.search_many(
            np.empty((0, micro_points.shape[1])), 5
        ) == []


class TestEagerMissFetch:
    def test_matches_lazy_results(self, micro_points, queries):
        pf = PointFile(micro_points)
        index = LinearScanIndex(len(micro_points))
        lazy = QueryEngine.for_index(index, pf, make_cache(micro_points))
        eager = QueryEngine.for_index(
            index, pf, make_cache(micro_points), eager_miss_fetch=True
        )
        for q in queries:
            a, b = lazy.search(q, 5), eager.search(q, 5)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)

    def test_eager_fetches_are_admitted(self, micro_points):
        """Regression: eager-fetched misses must enter a dynamic cache."""
        pf = PointFile(micro_points)
        cache = make_cache(micro_points, policy=CachePolicy.LRU)
        assert cache.num_items == 0
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), pf, cache, eager_miss_fetch=True
        )
        engine.search(micro_points[3] + 0.5, 5)
        assert cache.num_items > 0


class TestDedupAndEmpty:
    def test_dedupe_ids_keeps_first_occurrence_order(self):
        ids = np.array([7, 2, 7, 5, 2, 9], dtype=np.int64)
        assert dedupe_ids(ids).tolist() == [7, 2, 5, 9]

    def test_duplicate_candidates_are_deduped(self, micro_points):
        """Regression: duplicate ids must not reach the reduction phase."""

        class DuplicatingIndex:
            def candidates(self, query, k, tracker=None):
                ids = np.arange(len(micro_points), dtype=np.int64)
                return np.concatenate([ids, ids[:100]])

        pf = PointFile(micro_points)
        cache = make_cache(micro_points)
        dup = QueryEngine.for_index(DuplicatingIndex(), pf, cache)
        ref = QueryEngine.for_index(LinearScanIndex(len(micro_points)), pf, cache)
        query = micro_points[11] + 0.5
        a, b = dup.search(query, 5), ref.search(query, 5)
        assert a.stats.num_candidates == len(micro_points)
        assert_results_identical(a, b)

    def test_empty_candidates_return_early(self, micro_points):
        class EmptyIndex:
            def candidates(self, query, k, tracker=None):
                return np.empty(0, dtype=np.int64)

        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(EmptyIndex(), pf, NoCache())
        result = engine.search(micro_points[0], 5)
        assert len(result.ids) == 0
        assert result.stats.num_candidates == 0
        assert result.stats.page_reads == 0
        # Batched path takes the same early exit.
        batched = engine.search_many(micro_points[:3], 5)
        assert all(len(r.ids) == 0 for r in batched)


class TestHooks:
    def test_phase_hooks_fire_per_query(self, micro_points):
        events = []

        class Recorder(PhaseHook):
            def on_phase_start(self, phase, ctx):
                events.append(("start", phase))

            def on_phase_end(self, phase, ctx, elapsed_s):
                events.append(("end", phase))
                assert elapsed_s >= 0.0

        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)),
            pf,
            make_cache(micro_points),
            hooks=(Recorder(),),
        )
        engine.search(micro_points[0] + 0.5, 5)
        phases = [name for kind, name in events if kind == "start"]
        assert phases == ["generate", "reduce", "refine"]
        assert events[0] == ("start", "generate")
        assert events[-1] == ("end", "refine")

    def test_timing_hook_accumulates(self, micro_points):
        hook = TimingHook()
        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)),
            pf,
            make_cache(micro_points),
            hooks=(hook,),
        )
        for q in micro_points[:4]:
            engine.search(q, 3)
        assert hook.calls["generate"] == 4
        assert hook.calls["reduce"] == 4
        assert hook.calls["refine"] == 4
        assert all(total >= 0.0 for total in hook.totals.values())

    def test_context_timings_recorded(self, micro_points):
        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), pf, make_cache(micro_points)
        )
        ctx = ExecutionContext()
        engine.search(micro_points[0], 5, ctx=ctx)
        assert set(ctx.timings) == {"generate", "reduce", "refine"}


class TestQueryValidation:
    """Malformed queries and k raise ``InvalidQueryError`` on every index."""

    @staticmethod
    def _engines(points):
        pf = PointFile(points)
        for name, build in CANDIDATE_INDEXES.items():
            yield name, QueryEngine.for_index(build(points), pf, make_cache(points))
        for name, build in TREE_INDEXES.items():
            yield name, QueryEngine.for_tree(
                build(points), LeafNodeCache(make_encoder(points), 1 << 12)
            )

    def test_wrong_dimension_rejected(self, micro_points):
        for name, engine in self._engines(micro_points):
            with pytest.raises(InvalidQueryError, match="dimension"):
                engine.search(np.array([0.5]), 5)
            with pytest.raises(InvalidQueryError, match="dimension"):
                engine.search_many(np.zeros((3, micro_points.shape[1] + 1)), 5)

    def test_non_finite_rejected(self, micro_points):
        d = micro_points.shape[1]
        for name, engine in self._engines(micro_points):
            for bad in (np.full(d, np.inf), np.r_[np.nan, np.zeros(d - 1)]):
                with pytest.raises(InvalidQueryError, match="finite"):
                    engine.search(bad, 5)
                with pytest.raises(InvalidQueryError, match="finite"):
                    engine.search_many(np.vstack([micro_points[0], bad]), 5)

    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "5", None])
    def test_bad_k_rejected(self, micro_points, k):
        for name, engine in self._engines(micro_points):
            with pytest.raises(InvalidQueryError, match="k must be"):
                engine.search(micro_points[0], k)
            with pytest.raises(InvalidQueryError, match="k must be"):
                engine.search_many(micro_points[:2], k)

    def test_numpy_integer_k_and_batch_of_one(self, micro_points, queries):
        pf = PointFile(micro_points)
        engine = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), pf, make_cache(micro_points)
        )
        want = engine.search(queries[0], 5)
        (got,) = engine.search_many(queries[0], np.int64(5))
        assert_results_identical(want, got)

    def test_one_element_query_on_spec_pipelines(self, tiny_dataset, tiny_context):
        """A 1-element query used to broadcast and answer silently."""
        from repro.spec import CacheSection, IndexSection, PipelineSpec

        for index_name in ("linear", "vafile"):
            pipeline = PipelineSpec(
                index=IndexSection(name=index_name),
                cache=CacheSection(method="HC-O"),
            ).build(dataset=tiny_dataset)
            with pytest.raises(InvalidQueryError):
                pipeline.engine.search(np.array([0.5]), 5)
            with pytest.raises(ValueError):
                pipeline.engine.search_many(np.array([[0.5]]), 5)

    def test_sharded_engine_validates_like_the_engine(self, tiny_dataset, tiny_context):
        from repro.spec import CacheSection, IndexSection, PipelineSpec, ShardSection

        spec = PipelineSpec(
            index=IndexSection(name="linear"),
            cache=CacheSection(method="HC-O"),
            shard=ShardSection(n_shards=2),
        )
        engine, _ = spec.build_sharded(dataset=tiny_dataset)
        with engine:
            with pytest.raises(InvalidQueryError, match="dimension"):
                engine.search(np.array([0.5]), 5)
            with pytest.raises(InvalidQueryError, match="finite"):
                engine.search_many(np.full((1, tiny_dataset.points.shape[1]), np.nan), 5)
            with pytest.raises(InvalidQueryError, match="k must be"):
                engine.search_many(tiny_dataset.query_log.test[:1], 0)
