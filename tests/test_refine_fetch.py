"""One refine-fetch path: deadlines and resilience guard the round fetch.

Refinement reads each multi-step round in one fetch call.  A deadline or
a resilience policy wraps that call (``repro.faults.policy.
protected_fetcher``) instead of splitting the round into one read per
point.  The per-point loop is kept here as the test oracle, the way
``tests/test_multistep.py`` keeps ``reference_multistep``: under seeded
fault plans that fail several pages of one round, the round path must
give the oracle's answers, ``QueryStats`` and fault-plan history.
"""

import numpy as np
import pytest

from repro.engine import QueryEngine
from repro.faults import (
    Deadline,
    FaultSpec,
    FaultyDisk,
    ResiliencePolicy,
    RetryPolicy,
    RetryState,
    TransientIOError,
    run_with_retries,
)
from repro.index.linear_scan import LinearScanIndex
from repro.index.vafile import VAFileIndex
from repro.lsh.c2lsh import C2LSHIndex
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.iostats import QueryIOTracker
from repro.storage.pointfile import PointFile
from tests.test_engine import make_cache
from tests.test_faults import make_encoder_for

K = 5
MAX_CONSECUTIVE = 2
POLICY = ResiliencePolicy(retry=RetryPolicy(max_retries=MAX_CONSECUTIVE))

#: Page sizes for the 6-d, 4-byte-value (24-byte) micro points: two
#: records per page, or every record spanning two pages.
PAGE_SIZES = {"shared-pages": 48, "multi-page": 16}

#: Fault plans that fail several pages of most rounds; ``max_retries ==
#: max_consecutive`` is exactly the budget that masks them per page.
MIXED = FaultSpec(
    seed=11, transient_rate=0.3, corrupt_rate=0.1,
    max_consecutive=MAX_CONSECUTIVE,
)
HEAVY = FaultSpec(seed=5, transient_rate=0.5, max_consecutive=MAX_CONSECUTIVE)
#: For records spanning two pages the per-point oracle shares one budget
#: between both pages and gives up under MIXED (see
#: ``test_multi_page_record_masked_per_page``); this plan it survives.
LIGHT = FaultSpec(
    seed=3, transient_rate=0.1, corrupt_rate=0.03,
    max_consecutive=MAX_CONSECUTIVE,
)
CASES = {
    "shared-pages-mixed": ("shared-pages", MIXED),
    "shared-pages-heavy": ("shared-pages", HEAVY),
    "multi-page-light": ("multi-page", LIGHT),
}

INDEXES = {
    "linear": lambda pts: LinearScanIndex(len(pts)),
    "vafile": lambda pts: VAFileIndex(pts),
    "c2lsh": lambda pts: C2LSHIndex(pts, seed=1),
}


def per_point_fetcher(fetch, runtime, deadline=None):
    """The per-point protected fetch the round path replaced (oracle).

    Each id of a round is read in its own call, under its own breaker
    gating and retry budget, with the deadline checked before every
    point.
    """
    if runtime is None and deadline is None:
        return fetch

    def fetcher(point_ids, tracker=None):
        rows = []
        for pid in np.atleast_1d(np.asarray(point_ids, dtype=np.int64)).tolist():
            if deadline is not None:
                deadline.check("refine")
            one = np.asarray([pid])
            if runtime is None:
                rows.append(fetch(one, tracker))
            else:
                rows.append(
                    runtime.protected_call(
                        lambda one=one: fetch(one, tracker), deadline
                    )
                )
        return np.concatenate(rows, axis=0)

    return fetcher


@pytest.fixture()
def oracle(monkeypatch):
    """Route both refine paths through the per-point oracle."""

    def install():
        monkeypatch.setattr(
            "repro.engine.engine.protected_fetcher", per_point_fetcher
        )
        monkeypatch.setattr(
            "repro.shard.spec.protected_fetcher", per_point_fetcher
        )

    return install


def build_engine(points, index_name, page_size, faults=None, policy=None):
    disk = SimulatedDisk(DiskConfig(page_size=page_size))
    if faults is not None:
        disk = FaultyDisk(disk, faults)
    pf = PointFile(points, disk=disk)
    engine = QueryEngine.for_index(
        INDEXES[index_name](points), pf, make_cache(points), resilience=policy
    )
    return engine, disk


def count_round_faults(engine):
    """Record the faults injected inside each protected round fetch."""
    runtime = engine.resilience
    plan = engine.point_file.disk.plan
    per_call = []
    original = runtime.protected_call

    def counted(fn, deadline=None, progress=None):
        before = plan.injected
        try:
            return original(fn, deadline, progress=progress)
        finally:
            per_call.append(plan.injected - before)

    runtime.protected_call = counted
    return per_call


def assert_same_answers(want, got):
    assert len(want) == len(got)
    for w, g in zip(want, got):
        assert g.ids.tolist() == w.ids.tolist()
        assert g.distances.tobytes() == w.distances.tobytes()
        assert g.exact_mask.tolist() == w.exact_mask.tolist()
        assert g.stats == w.stats
        assert g.outcome.complete == w.outcome.complete


def assert_complete(results):
    """The oracle masked every fault: the comparison is about retries
    that worked, not about which path gave up first."""
    assert all(r.outcome.complete for r in results)


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("index_name", sorted(INDEXES))
    def test_round_fetch_matches_per_point_fetch(
        self, micro_points, oracle, case, index_name
    ):
        queries = micro_points[::40] + 0.25
        layout, spec = CASES[case]
        page_size = PAGE_SIZES[layout]

        engine, disk = build_engine(
            micro_points, index_name, page_size, spec, POLICY
        )
        per_round = count_round_faults(engine)
        got = [engine.search(q, K) for q in queries]

        oracle()
        ref_engine, ref_disk = build_engine(
            micro_points, index_name, page_size, spec, POLICY
        )
        want = [ref_engine.search(q, K) for q in queries]

        assert_complete(want)
        assert_same_answers(want, got)
        assert disk.plan.attempts == ref_disk.plan.attempts
        assert disk.plan.counters == ref_disk.plan.counters
        assert disk.stats.page_reads == ref_disk.stats.page_reads
        # Some round saw more faults than one call's budget: a per-call
        # retry budget would have given up where the per-page one masks.
        assert max(per_round) > POLICY.retry.max_retries

    def test_eager_miss_fetch_matches_oracle(self, micro_points, oracle):
        def build():
            disk = FaultyDisk(
                SimulatedDisk(DiskConfig(page_size=48)), MIXED
            )
            engine = QueryEngine.for_index(
                LinearScanIndex(len(micro_points)),
                PointFile(micro_points, disk=disk),
                make_cache(micro_points),
                eager_miss_fetch=True,
                resilience=POLICY,
            )
            return engine, disk

        queries = micro_points[::40] + 0.25
        engine, disk = build()
        got = [engine.search(q, K) for q in queries]
        oracle()
        ref_engine, ref_disk = build()
        want = [ref_engine.search(q, K) for q in queries]
        assert_complete(want)
        assert_same_answers(want, got)
        assert disk.plan.attempts == ref_disk.plan.attempts
        assert disk.plan.counters == ref_disk.plan.counters

    @pytest.mark.parametrize("index_name", sorted(INDEXES))
    def test_multi_page_record_masked_per_page(
        self, micro_points, oracle, index_name
    ):
        """A record spanning two pages gets the budget once per page.

        The per-point oracle gave both pages of a record one budget, so
        ``max_retries == max_consecutive`` could run out on a record
        whose two pages each failed; the round path restarts the budget
        on every charged page and masks every fault.
        """
        queries = micro_points[::40] + 0.25
        clean, clean_disk = build_engine(micro_points, index_name, 16)
        truth = [clean.search(q, K) for q in queries]
        engine, disk = build_engine(micro_points, index_name, 16, MIXED, POLICY)
        got = [engine.search(q, K) for q in queries]
        oracle()
        ref_engine, _ = build_engine(
            micro_points, index_name, 16, MIXED, POLICY
        )
        want = [ref_engine.search(q, K) for q in queries]

        assert not all(r.outcome.complete for r in want)
        assert disk.plan.injected > 0
        assert_complete(got)
        assert_same_answers(truth, got)
        assert disk.stats.page_reads == clean_disk.stats.page_reads


class TestShardedMatchesOracle:
    def _specs(self, points, page_size, faults):
        from repro.shard import build_shard_specs

        rng = np.random.default_rng(3)
        return build_shard_specs(
            points, 3, index_name="linear",
            cache_spec={
                "kind": "approx",
                "capacity_bytes": 1 << 12,
                "policy": "hff",
                "encoder": make_encoder_for(points),
            },
            frequencies=rng.random(len(points)),
            disk=DiskConfig(page_size=page_size),
            faults=faults, resilience=POLICY,
        )

    @staticmethod
    def _fault_counts(engine):
        """Per-kind injections summed over the shards (from metrics, so
        process workers, whose plans the test cannot reach, report too)."""
        merged = engine.merged_metrics()
        return {
            kind: int(merged.value("fault_injected_total", kind=kind))
            for kind in ("transient", "corrupt")
        }

    @staticmethod
    def _plans(engine):
        """Each in-process shard's (attempts, counters); [] for workers."""
        return [
            (rt.point_file.disk.plan.attempts,
             dict(rt.point_file.disk.plan.counters))
            for rt in getattr(engine.executor, "runtimes", [])
        ]

    @pytest.mark.parametrize("case", ["shared-pages-mixed", "multi-page-light"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sharded_round_fetch_matches_oracle(
        self, micro_points, oracle, case, executor
    ):
        from repro.shard import ShardedEngine

        queries = micro_points[::40] + 0.25
        layout, spec = CASES[case]
        specs = self._specs(micro_points, PAGE_SIZES[layout], spec)
        with ShardedEngine(specs, executor=executor) as engine:
            got = engine.search_many(queries, K)
            got_counts = self._fault_counts(engine)
            got_plans = self._plans(engine)
        oracle()
        with ShardedEngine(specs, executor="serial") as ref:
            want = ref.search_many(queries, K)
            want_counts = self._fault_counts(ref)
            want_plans = self._plans(ref)
        assert_complete(want)
        assert sum(want_counts.values()) > 0, "fault plan never fired"
        # Equal stats (so equal page reads) and equal injections mean
        # equal plan attempts: each attempt either failed or read a page.
        assert_same_answers(want, got)
        assert got_counts == want_counts
        if executor != "process":
            assert got_plans == want_plans


class TestOneFetchPerRound:
    """A deadline or a policy guards the round; it does not split it."""

    @staticmethod
    def _calls_per_query(engine, queries, **search_kwargs):
        calls = []
        original = engine.point_file.fetch

        def counted(ids, tracker=None):
            calls.append(len(np.atleast_1d(ids)))
            return original(ids, tracker)

        engine.point_file.fetch = counted
        results = [engine.search(q, K, **search_kwargs) for q in queries]
        return len(calls), results

    @pytest.mark.parametrize("index_name", sorted(INDEXES))
    def test_deadline_and_policy_keep_round_count(self, micro_points, index_name):
        queries = micro_points[::40] + 0.25
        plain, _ = build_engine(micro_points, index_name, 48)
        n_plain, want = self._calls_per_query(plain, queries)

        timed, _ = build_engine(micro_points, index_name, 48)
        n_timed, with_deadline = self._calls_per_query(
            timed, queries, deadline=Deadline(60.0)
        )
        guarded, _ = build_engine(
            micro_points, index_name, 48, policy=ResiliencePolicy()
        )
        n_guarded, with_policy = self._calls_per_query(guarded, queries)

        assert n_plain > 0
        assert n_timed == n_plain
        assert n_guarded == n_plain
        # More ids than calls: the rounds really batch several points.
        assert sum(r.stats.refined_fetches for r in want) > n_plain
        assert_same_answers(want, with_deadline)
        assert_same_answers(want, with_policy)

    def test_expired_deadline_stops_between_rounds(self, micro_points):
        from repro.serve import ManualClock

        clock = ManualClock()
        engine, _ = build_engine(
            micro_points, "linear", 48, policy=ResiliencePolicy()
        )
        calls = []
        original = engine.point_file.fetch

        def slow(ids, tracker=None):
            calls.append(len(np.atleast_1d(ids)))
            clock.advance(1.0)  # every round overruns the budget
            return original(ids, tracker)

        engine.point_file.fetch = slow
        result = engine.search(
            micro_points[0] + 0.25, K, deadline=Deadline(0.5, clock=clock.now)
        )
        assert not result.outcome.complete
        assert result.outcome.reason == "deadline"
        # The first round runs whole; the check before the next stops it.
        assert len(calls) == 1 and calls[0] > 1


class TestRetryBudgetPerPage:
    def test_new_page_restarts_the_budget(self):
        """Each failure follows a newly charged page: never exhausted."""
        tracker = QueryIOTracker()
        pages = iter(range(10))
        calls = {"n": 0}

        def reads_one_more_page():
            calls["n"] += 1
            if calls["n"] <= 6:
                tracker.needs_read(next(pages))
                raise TransientIOError("next page failed")
            return "ok"

        state = RetryState()
        out = run_with_retries(
            reads_one_more_page, RetryPolicy(max_retries=1), state,
            sleep=lambda _t: None, progress=lambda: tracker.page_reads,
        )
        assert out == "ok"
        assert state.retries == 6 and state.exhausted == 0
        assert state.retried_calls == 1

    def test_back_to_back_failures_on_one_page_exhaust(self):
        tracker = QueryIOTracker()
        calls = {"n": 0}

        def stuck_after_one_page():
            calls["n"] += 1
            tracker.needs_read(0)  # charged once, then the same page fails
            raise TransientIOError("page 1 failed")

        state = RetryState()
        with pytest.raises(TransientIOError):
            run_with_retries(
                stuck_after_one_page, RetryPolicy(max_retries=2), state,
                sleep=lambda _t: None, progress=lambda: tracker.page_reads,
            )
        # First failure charged page 0 (progress, budget restarts); the
        # next max_retries failures add nothing and exhaust it.
        assert calls["n"] == 1 + 2
        assert state.exhausted == 1

    def test_budget_backoff_restarts_with_progress(self):
        tracker = QueryIOTracker()
        calls = {"n": 0}
        slept = []

        def fails_twice_per_page():
            calls["n"] += 1
            if calls["n"] in (3, 5):
                tracker.needs_read(calls["n"])
            if calls["n"] < 6:
                raise TransientIOError("again")
            return "ok"

        policy = RetryPolicy(max_retries=2, base_delay_s=1.0, max_delay_s=8.0)
        run_with_retries(
            fails_twice_per_page, policy, RetryState(),
            sleep=slept.append, progress=lambda: tracker.page_reads,
        )
        assert slept == [1.0, 2.0, 1.0, 2.0, 1.0]
