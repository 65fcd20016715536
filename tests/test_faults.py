"""Fault injection, resilience policies and degraded-mode search.

The contract under test, in order of importance:

1. **Differential guarantee** — transient faults fully masked by retries
   leave results *bit-identical* (ids, distances, exact masks, stats and
   total page reads) across index × cache cells and across the
   serial/thread/process shard executors.
2. **Graceful degradation** — a forced-open breaker or an expired
   deadline yields ``complete=False`` cache-only answers whose recall@k
   clears the cost model's cache-only hit-ratio estimate (Theorem 1
   machinery) and never surfaces a spurious exception.
3. **Determinism** — a ``FaultSpec`` seed fixes the entire injection
   schedule; the same plan replayed gives the same faults.
4. **Classification** — ``PageRangeError`` is fatal (non-retryable,
   not degradable); transient/corrupt errors are retryable; policy
   signals never count against the breaker.
"""

import numpy as np
import pytest

from repro.core.cache import ApproximateCache, CachePolicy, ExactCache
from repro.engine import QueryEngine
from repro.faults import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    CorruptPageError,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    FaultyDisk,
    PageRangeError,
    ResiliencePolicy,
    RetryPolicy,
    RetryState,
    TransientIOError,
    degraded_answer,
    is_breaker_fault,
    is_retryable,
    parse_fault_spec,
    run_with_retries,
)
from repro.index.linear_scan import LinearScanIndex
from repro.index.vafile import VAFileIndex
from repro.lsh.c2lsh import C2LSHIndex
from repro.lsh.e2lsh import E2LSHIndex
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile

from tests.test_engine import make_cache

# A fault mix aggressive enough to hit most queries, yet fully maskable:
# max_consecutive=2 guarantees two retries absorb every injection burst.
MASKABLE = FaultSpec(
    seed=11, transient_rate=0.3, corrupt_rate=0.1, max_consecutive=2
)
RETRIES = ResiliencePolicy(retry=RetryPolicy(max_retries=2))

FAULT_INDEXES = {
    "linear": lambda pts: LinearScanIndex(len(pts)),
    "vafile": lambda pts: VAFileIndex(pts),
    "c2lsh": lambda pts: C2LSHIndex(pts, seed=1),
    "e2lsh": lambda pts: E2LSHIndex(pts, seed=1),
}


def make_exact_cache(points, capacity_bytes=1 << 12):
    cache = ExactCache(points.shape[1], capacity_bytes, len(points))
    cache.populate(np.arange(cache.max_items), points[: cache.max_items])
    return cache


CACHE_BUILDERS = {
    "approx": lambda pts: make_cache(pts),
    "exact": lambda pts: make_exact_cache(pts),
}


def build_engine(points, index_name, cache_kind, faults=None, policy=None):
    disk = SimulatedDisk(DiskConfig())
    if faults is not None:
        disk = FaultyDisk(disk, faults)
    pf = PointFile(points, disk=disk)
    index = FAULT_INDEXES[index_name](points)
    cache = CACHE_BUILDERS[cache_kind](points)
    engine = QueryEngine.for_index(index, pf, cache, resilience=policy)
    return engine, disk


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_deterministic_schedule(self):
        spec = FaultSpec(seed=5, transient_rate=0.4, corrupt_rate=0.2,
                         max_consecutive=3)

        def run(plan):
            events = []
            for page in range(200):
                try:
                    plan.on_read(page)
                    events.append(None)
                except OSError as exc:
                    events.append(type(exc).__name__)
            return events, dict(plan.counters)

        a = run(spec.build())
        b = run(spec.build())
        assert a == b
        assert any(e == "TransientIOError" for e in a[0])
        assert any(e == "CorruptPageError" for e in a[0])

    def test_max_consecutive_cap(self):
        plan = FaultSpec(seed=1, transient_rate=1.0, max_consecutive=2).build()
        streak = worst = 0
        for page in range(100):
            try:
                plan.on_read(page)
                streak = 0
            except OSError:
                streak += 1
                worst = max(worst, streak)
        assert worst == 2  # never exceeds the cap -> 2 retries mask all

    def test_periodic_and_bad_sectors(self):
        plan = FaultSpec(seed=0, transient_period=3, fail_pages=(7,)).build()
        with pytest.raises(TransientIOError):
            plan.on_read(7)  # bad sector fires first
        plan2 = FaultSpec(seed=0, transient_period=2,
                          max_consecutive=10).build()
        errors = 0
        for page in range(10):
            try:
                plan2.on_read(page)
            except TransientIOError:
                errors += 1
        assert errors == 5  # every 2nd attempt

    def test_parse_fault_spec(self):
        spec = parse_fault_spec("period=3,corrupt_rate=0.01,seed=7")
        assert spec.transient_period == 3
        assert spec.corrupt_rate == 0.01
        assert spec.seed == 7
        spec = parse_fault_spec("rate=0.5,fail_pages=1+2+9")
        assert spec.transient_rate == 0.5
        assert spec.fail_pages == (1, 2, 9)
        with pytest.raises(ValueError):
            parse_fault_spec("nonsense=1")

    def test_epoch_rearms_page_triggers(self):
        spec = FaultSpec(seed=2, fail_pages=(0,), max_consecutive=1)
        plan = spec.build()
        with pytest.raises(TransientIOError):
            plan.on_read(0)
        plan.on_read(0)  # capped: second consecutive injection suppressed
        plan.new_epoch()
        with pytest.raises(TransientIOError):
            plan.on_read(0)


# ----------------------------------------------------------------------
# Error classification / retry / breaker / deadline primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_classification(self):
        assert is_retryable(TransientIOError("x"))
        assert is_retryable(CorruptPageError("x"))
        assert is_retryable(OSError("x"))
        assert not is_retryable(PageRangeError(9, 4))
        assert not is_retryable(DeadlineExceeded("x"))
        assert not is_retryable(CircuitOpenError("x"))
        assert is_breaker_fault(TransientIOError("x"))
        assert not is_breaker_fault(PageRangeError(9, 4))
        assert not is_breaker_fault(DeadlineExceeded("x"))

    def test_retries_mask_transients(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("try again")
            return "ok"

        state = RetryState()
        out = run_with_retries(
            flaky, RetryPolicy(max_retries=2), state, sleep=lambda _t: None
        )
        assert out == "ok"
        assert state.retries == 2 and state.exhausted == 0

    def test_retries_exhausted_raises_last(self):
        def always():
            raise TransientIOError("still broken")

        state = RetryState()
        with pytest.raises(TransientIOError):
            run_with_retries(
                always, RetryPolicy(max_retries=2), state,
                sleep=lambda _t: None,
            )
        assert state.exhausted == 1

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise PageRangeError(99, 10)

        with pytest.raises(PageRangeError):
            run_with_retries(
                fatal, RetryPolicy(max_retries=5), RetryState(),
                sleep=lambda _t: None,
            )
        assert calls["n"] == 1

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(max_retries=3, base_delay_s=0.01,
                             max_delay_s=1.0, jitter=0.5)
        delays = [policy.delay_for(i) for i in range(3)]
        assert delays == [policy.delay_for(i) for i in range(3)]
        assert delays[1] > delays[0] * 1.5  # exponential growth

    def test_breaker_lifecycle(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2, reset_timeout_s=1.0),
            clock=lambda: now["t"],
        )
        breaker.allow()
        breaker.record_failure()
        breaker.allow()
        breaker.record_failure()  # threshold -> open
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        now["t"] = 2.0  # cooldown elapsed -> half-open probe
        breaker.allow()
        breaker.record_success()
        breaker.allow()  # closed again

    def test_force_open_pins_until_reset(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            BreakerConfig(reset_timeout_s=0.001), clock=lambda: now["t"]
        )
        breaker.force_open()
        now["t"] = 1e9  # no cooldown can reopen a forced breaker
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        breaker.reset()
        breaker.allow()

    def test_deadline(self):
        now = {"t": 0.0}
        deadline = Deadline(0.5, clock=lambda: now["t"])
        deadline.check("start")
        assert deadline.remaining_s() == pytest.approx(0.5)
        now["t"] = 1.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check("refine")
        Deadline.unlimited().check("never")


# ----------------------------------------------------------------------
# Storage-layer validation (satellite b)
# ----------------------------------------------------------------------
class TestPageRangeValidation:
    def test_read_page_validates_range(self):
        disk = SimulatedDisk(DiskConfig(), n_pages=4)
        disk.read_page(3)
        with pytest.raises(PageRangeError) as err:
            disk.read_page(4)
        assert err.value.page_id == 4 and err.value.n_pages == 4
        with pytest.raises(PageRangeError):
            disk.read_page(-1)

    def test_pointfile_declares_its_pages(self, micro_points):
        pf = PointFile(micro_points)
        pf.fetch(np.array([0, len(micro_points) - 1]))
        with pytest.raises(PageRangeError):
            pf.disk.read_page(pf.num_pages)

    def test_faulty_disk_delegates_invalid_reads(self):
        inner = SimulatedDisk(DiskConfig(), n_pages=2)
        disk = FaultyDisk(inner, FaultSpec(seed=0, transient_rate=1.0,
                                           max_consecutive=10))
        with pytest.raises(PageRangeError):
            disk.read_page(7)
        assert disk.plan.attempts == 0  # invalid reads burn no schedule


# ----------------------------------------------------------------------
# Differential guarantee (tentpole acceptance)
# ----------------------------------------------------------------------
class TestEngineDifferential:
    @pytest.mark.parametrize("index_name", sorted(FAULT_INDEXES))
    @pytest.mark.parametrize("cache_kind", sorted(CACHE_BUILDERS))
    def test_masked_faults_bit_identical(
        self, micro_points, index_name, cache_kind
    ):
        queries = micro_points[::50] + 0.25
        clean_engine, clean_disk = build_engine(
            micro_points, index_name, cache_kind
        )
        truth = [clean_engine.search(q, 5) for q in queries]

        engine, disk = build_engine(
            micro_points, index_name, cache_kind,
            faults=MASKABLE, policy=RETRIES,
        )
        got = [engine.search(q, 5) for q in queries]
        injected = sum(disk.plan.counters.values())
        assert injected > 0, "fault mix never fired; test is vacuous"
        for t, g in zip(truth, got):
            assert np.array_equal(t.ids, g.ids)
            assert np.array_equal(t.distances, g.distances)
            assert np.array_equal(t.exact_mask, g.exact_mask)
            assert t.stats == g.stats
            assert g.outcome.complete
        # Retries must re-charge nothing: total I/O identical.
        assert disk.stats.page_reads == clean_disk.stats.page_reads

    def test_batched_matches_per_query_under_faults(self, micro_points):
        queries = micro_points[::50] + 0.25
        a_engine, _ = build_engine(
            micro_points, "vafile", "approx",
            faults=MASKABLE, policy=RETRIES,
        )
        per_query = [a_engine.search(q, 5) for q in queries]
        b_engine, _ = build_engine(
            micro_points, "vafile", "approx",
            faults=MASKABLE, policy=RETRIES,
        )
        for a, b in zip(per_query, b_engine.search_many(queries, 5)):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats == b.stats

    def test_unmasked_fault_without_policy_raises(self, micro_points):
        engine, _ = build_engine(
            micro_points, "linear", "approx",
            faults=FaultSpec(seed=0, transient_rate=1.0,
                             max_consecutive=1_000_000),
            policy=None,
        )
        with pytest.raises(OSError):
            for q in micro_points[::50] + 0.25:
                engine.search(q, 5)


# ----------------------------------------------------------------------
# Degraded answers
# ----------------------------------------------------------------------
class TestDegradedAnswers:
    def test_breaker_open_cache_only_recall(self, tiny_dataset, tiny_context):
        """Forced-open breaker: complete=False, recall clears the cost
        model's cache-only hit-ratio estimate, no spurious exceptions."""
        from repro.spec import CacheSection, PipelineSpec

        cache_bytes = int(tiny_dataset.file_bytes * 0.1)
        pipeline = PipelineSpec(
            cache=CacheSection(method="EXACT", cache_bytes=cache_bytes),
            k=10,
        ).build(
            dataset=tiny_dataset,
            context=tiny_context,
            resilience=ResiliencePolicy(retry=RetryPolicy()),
        )
        queries = tiny_dataset.query_log.test
        truth = [pipeline.search(q, 10) for q in queries]
        runtime = pipeline.engine.resilience
        runtime.breaker.force_open()
        try:
            degraded = [pipeline.search(q, 10) for q in queries]
        finally:
            runtime.breaker.reset()

        recalls, n_degraded = [], 0
        for t, d in zip(truth, degraded):
            if t.stats.refine_page_reads == 0:
                # No refinement I/O -> the breaker is never consulted and
                # the answer must still be complete and exact.
                assert d.outcome.complete
                assert np.array_equal(t.ids, d.ids)
            else:
                assert not d.outcome.complete
                assert d.outcome.reason == "breaker_open"
                # Exact-cache hits are certified exact in the answer.
                assert np.all(d.distances[d.exact_mask] >= 0)
                n_degraded += 1
            recalls.append(
                len(np.intersect1d(t.ids, d.ids)) / max(1, len(t.ids))
            )
        assert n_degraded, "no query exercised the degraded path"
        # Workload recall@k must clear the cost model's cache-only
        # hit-ratio estimate: the cache holds (at least) that fraction
        # of the relevant mass, and degraded answers rank it exactly.
        model = tiny_context.cost_model()
        bound = model.hit_ratio(model.exact_items_for(cache_bytes))
        assert float(np.mean(recalls)) >= bound
        assert runtime.degraded_counts.get("breaker_open", 0) == n_degraded

    def test_deadline_zero_degrades_every_query(self, micro_points):
        engine, _ = build_engine(micro_points, "linear", "approx",
                                 policy=ResiliencePolicy(deadline_s=0.0))
        for q in micro_points[::80]:
            result = engine.search(q, 5)
            assert not result.outcome.complete
            assert result.outcome.reason == "deadline"

    def test_explicit_deadline_overrides_policy(self, micro_points):
        engine, _ = build_engine(micro_points, "linear", "approx",
                                 policy=ResiliencePolicy(deadline_s=0.0))
        result = engine.search(
            micro_points[0] + 0.1, 5, deadline=Deadline(60.0)
        )
        assert result.outcome.complete

    def test_degraded_false_propagates(self, micro_points):
        engine, _ = build_engine(
            micro_points, "linear", "approx",
            policy=ResiliencePolicy(deadline_s=0.0, degraded=False),
        )
        with pytest.raises(DeadlineExceeded):
            engine.search(micro_points[0] + 0.1, 5)

    def test_degraded_answer_ordering_and_certificate(self):
        """Confirmed fill first; hits precede misses; certificate = gap."""
        from repro.core.reduction import ReductionOutcome

        inf = float("inf")
        reduction = ReductionOutcome(
            remaining_ids=np.array([10, 11, 12]),
            remaining_lb=np.array([0.5, 0.0, 2.0]),
            remaining_ub=np.array([2.5, inf, 3.0]),
            confirmed_ids=np.array([3]),
            confirmed_lb=np.array([1.0]),
            confirmed_ub=np.array([1.0]),
            pruned_ids=np.empty(0, dtype=np.int64),
            lb_k=0.0,
            ub_k=inf,
            num_hits=3,
        )
        ids, dist, exact, outcome = degraded_answer(reduction, 3, "deadline")
        assert list(ids) == [3, 10, 12]  # miss 11 loses to both hits
        assert dist[0] == 1.0 and exact[0]
        assert not outcome.complete
        assert outcome.max_bound_error == pytest.approx(2.0)

        ids, dist, exact, outcome = degraded_answer(reduction, 4, "deadline")
        assert list(ids) == [3, 10, 12, 11]
        assert outcome.max_bound_error == inf  # a blind slot -> inf

        ids, _, _, outcome = degraded_answer(None, 5, "io_failure")
        assert ids.size == 0 and outcome.max_bound_error == inf


class TestQueueWaitBudget:
    """Queue wait is charged against the per-query budget.

    A served request's :class:`Deadline` starts at *admission*; if it
    then sits in a queue past its budget, the expiry must bite between
    the wait and the first phase — not be silently forgiven by a budget
    that restarts at dispatch.
    """

    def test_expiry_between_wait_and_phase_execution(self, micro_points):
        from repro.serve import ManualClock

        engine, _ = build_engine(micro_points, "linear", "approx",
                                 policy=ResiliencePolicy())
        clock = ManualClock()
        deadline = Deadline(0.010, clock=clock.now)  # admission
        clock.advance(0.011)  # queue wait alone exceeds the budget
        assert deadline.expired and deadline.elapsed_s() == pytest.approx(0.011)
        result = engine.search(micro_points[0] + 0.1, 5, deadline=deadline)
        assert not result.outcome.complete
        assert result.outcome.reason == "deadline"

    def test_wait_within_budget_serves_complete(self, micro_points):
        from repro.serve import ManualClock

        engine, _ = build_engine(micro_points, "linear", "approx",
                                 policy=ResiliencePolicy())
        clock = ManualClock()
        deadline = Deadline(0.010, clock=clock.now)
        clock.advance(0.004)
        result = engine.search(micro_points[0] + 0.1, 5, deadline=deadline)
        assert result.outcome.complete

    def test_per_query_deadlines_through_batched_path(self, micro_points):
        from repro.serve import ManualClock

        engine, _ = build_engine(micro_points, "linear", "approx",
                                 policy=ResiliencePolicy())
        clock = ManualClock()
        expired = Deadline(0.001, clock=clock.now)
        clock.advance(0.002)
        fresh = Deadline(60.0, clock=clock.now)
        queries = np.stack([micro_points[0] + 0.1, micro_points[1] + 0.1])
        results = engine.search_many(queries, 5, deadline=[expired, fresh])
        assert not results[0].outcome.complete
        assert results[0].outcome.reason == "deadline"
        assert results[1].outcome.complete

    def test_deadline_count_mismatch_rejected(self, micro_points):
        engine, _ = build_engine(micro_points, "linear", "approx")
        with pytest.raises(ValueError, match="deadlines"):
            engine.search_many(micro_points[:3], 5, deadline=[None])

    def test_server_charges_queue_wait(self, micro_points):
        """End to end: a request expiring while queued is answered
        without the engine ever running."""
        from repro.serve import ManualClock, ServeConfig, Server, SlaTier

        engine, _ = build_engine(micro_points, "linear", "approx")
        clock = ManualClock()
        server = Server(
            engine,
            config=ServeConfig(
                max_batch=8, tiers=(SlaTier("gold", deadline_ms=10.0),)
            ),
            default_k=5,
            clock=clock,
        )
        ticket = server.submit(micro_points[0] + 0.1, tier="gold")
        clock.advance(0.011)  # expire mid-queue
        server.drain()
        server.close()
        response = ticket.response
        assert response.degraded
        assert response.result.outcome.reason == "deadline"
        # Dispatch-time expiry short-circuits: no candidates generated.
        assert response.result.stats.num_candidates == 0


# ----------------------------------------------------------------------
# Sharded execution under faults
# ----------------------------------------------------------------------
class TestShardedFaults:
    @pytest.fixture(scope="class")
    def shard_setup(self, micro_points):
        rng = np.random.default_rng(3)
        return {
            "points": micro_points,
            "queries": micro_points[::50] + 0.25,
            "cache_spec": {
                "kind": "approx",
                "capacity_bytes": 1 << 12,
                "policy": "hff",
                "encoder": make_encoder_for(micro_points),
            },
            "frequencies": rng.random(len(micro_points)),
        }

    def _build(self, setup, faults=None, policy=None, **kwargs):
        from repro.shard import ShardedEngine, build_shard_specs

        specs = build_shard_specs(
            setup["points"], 3, index_name="linear",
            cache_spec=setup["cache_spec"],
            frequencies=setup["frequencies"],
            faults=faults, resilience=policy,
        )
        return ShardedEngine(specs, **kwargs)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_masked_faults_bit_identical_across_executors(
        self, shard_setup, executor
    ):
        with self._build(shard_setup, executor="serial") as clean:
            truth = clean.search_many(shard_setup["queries"], 5)
        with self._build(
            shard_setup, faults=MASKABLE, policy=RETRIES, executor=executor
        ) as engine:
            got = engine.search_many(shard_setup["queries"], 5)
        for t, g in zip(truth, got):
            assert np.array_equal(t.ids, g.ids)
            assert np.array_equal(t.distances, g.distances)
            assert t.stats == g.stats
            assert g.outcome.complete

    def test_degraded_merge_of_surviving_shards(self, shard_setup):
        """One shard's disk is beyond saving: the coordinator reports an
        incomplete merge of the other two instead of failing."""
        import dataclasses

        from repro.shard import ShardedEngine, build_shard_specs

        unmaskable = FaultSpec(
            seed=3, transient_rate=1.0, max_consecutive=1_000_000
        )
        strict = ResiliencePolicy(
            retry=RetryPolicy(max_retries=0), degraded=False
        )
        specs = build_shard_specs(
            shard_setup["points"], 3, index_name="linear",
            cache_spec=shard_setup["cache_spec"],
            frequencies=shard_setup["frequencies"],
        )
        specs = [
            dataclasses.replace(
                s,
                faults=unmaskable if s.shard_id == 1 else None,
                resilience=strict,
            )
            for s in specs
        ]
        dead = set(specs[1].member_ids)
        with ShardedEngine(
            specs, executor="serial", degraded=True
        ) as engine:
            results = engine.search_many(shard_setup["queries"], 5)
        for r in results:
            assert not r.outcome.complete
            assert r.outcome.reason == "shard_failure"
            assert r.outcome.shards_failed == 1
            assert r.outcome.shards_total == 3
            assert not (set(r.ids) & dead)

    def test_coordinator_deadline_degrades(self, shard_setup):
        with self._build(
            shard_setup, executor="serial", degraded=True, deadline_s=0.0
        ) as engine:
            results = engine.search_many(shard_setup["queries"], 5)
        for r in results:
            assert not r.outcome.complete
            assert r.outcome.reason == "deadline"

    def test_coordinator_deadline_strict_raises(self, shard_setup):
        with self._build(
            shard_setup, executor="serial", degraded=False, deadline_s=0.0
        ) as engine:
            with pytest.raises(DeadlineExceeded):
                engine.search_many(shard_setup["queries"], 5)


def make_encoder_for(points):
    from repro.core.builders import build_equidepth
    from repro.core.domain import ValueDomain
    from repro.core.encoder import GlobalHistogramEncoder

    dom = ValueDomain.from_points(points)
    return GlobalHistogramEncoder(build_equidepth(dom, 16), points.shape[1])


# ----------------------------------------------------------------------
# Global chaos mode (satellite e: the CI chaos job's mechanism)
# ----------------------------------------------------------------------
class TestChaosMode:
    @pytest.fixture()
    def chaos_env(self, monkeypatch, tmp_path):
        import repro.faults.chaos as chaos

        out = tmp_path / "chaos.json"
        monkeypatch.setenv("REPRO_CHAOS", "rate=0.2,corrupt_rate=0.1,seed=5")
        monkeypatch.setenv("REPRO_CHAOS_OUT", str(out))
        monkeypatch.setattr(chaos, "_monitor", None)
        yield out
        monkeypatch.setattr(chaos, "_monitor", None)

    def test_chaos_masks_itself(self, chaos_env, micro_points):
        """With REPRO_CHAOS set, every read succeeds (the monitor retries
        internally) while the injection counters advance."""
        from repro.faults.chaos import chaos_from_env

        pf = PointFile(micro_points)
        pf.fetch(np.arange(64))
        monitor = chaos_from_env()
        snap = monitor.snapshot()
        assert snap["attempts"] > 0
        assert sum(snap["injected"].values()) > 0
        assert snap["masked_by_internal_retry"] >= sum(
            snap["injected"].values()
        )

    def test_chaos_leaves_results_identical(self, chaos_env, micro_points):
        queries = micro_points[::80] + 0.25
        engine, _ = build_engine(micro_points, "linear", "approx")
        chaotic = [engine.search(q, 5) for q in queries]
        # Fresh, chaos-free engine for the ground truth.
        import repro.faults.chaos as chaos
        import os

        del os.environ["REPRO_CHAOS"]
        chaos._monitor = None
        clean_engine, _ = build_engine(micro_points, "linear", "approx")
        truth = [clean_engine.search(q, 5) for q in queries]
        for t, g in zip(truth, chaotic):
            assert np.array_equal(t.ids, g.ids)
            assert np.array_equal(t.distances, g.distances)
            assert t.stats == g.stats

    def test_chaos_dump_written_at_exit(self, chaos_env, micro_points):
        """The atexit dump is registered; exercise _dump directly."""
        from repro.faults.chaos import _dump, chaos_from_env
        import json

        PointFile(micro_points).fetch(np.arange(16))
        _dump(chaos_from_env(), str(chaos_env))
        payload = json.loads(chaos_env.read_text())
        assert payload["attempts"] > 0
        assert "injected" in payload and "spec" in payload
