"""Deterministic-time unit suite for the serving layer (``repro.serve``).

Every test here runs on the :class:`~repro.serve.ManualClock` + inline
executor: time moves only when a test advances it, so flush-on-max-batch
vs flush-on-max-wait boundaries, admission windows, SLA-deadline expiry
mid-queue and hot cache swaps are all exactly reproducible — no real
sleeps anywhere (the single threaded-executor smoke test waits on a
completion event, never on wall-clock time).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import ApproximateCache, CachePolicy
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.obs.registry import MetricsRegistry
from repro.obs.reporter import serve_summary
from repro.serve import (
    InlineExecutor,
    ManualClock,
    Overloaded,
    RealClock,
    ServeConfig,
    Server,
    SlaTier,
    ThreadedExecutor,
    run_open_loop,
)
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile

SEED = 20260808
N_POINTS = 200
DIM = 4
K = 5
CACHE_BYTES = 1 << 11


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(SEED)
    points = rng.normal(size=(N_POINTS, DIM))
    queries = rng.normal(size=(24, DIM))
    frequencies = rng.integers(0, 9, size=N_POINTS).astype(np.int64)
    return {"points": points, "queries": queries, "frequencies": frequencies}


def make_engine(data) -> QueryEngine:
    """A small static-cache engine (batchable, deterministic)."""
    points = data["points"]
    encoder = GlobalHistogramEncoder(
        build_equidepth(ValueDomain.from_points(points), 16), DIM
    )
    cache = ApproximateCache(encoder, CACHE_BYTES, N_POINTS, CachePolicy.HFF)
    cache.populate_hff(data["frequencies"], points)
    point_file = PointFile(points, disk=SimulatedDisk(DiskConfig()))
    return QueryEngine.for_index(LinearScanIndex(N_POINTS), point_file, cache)


def make_server(data, **kwargs):
    clock = kwargs.pop("clock", None) or ManualClock()
    engine = kwargs.pop("engine", None) or make_engine(data)
    config = kwargs.pop("config", None) or ServeConfig(
        max_queue_depth=8, max_batch=4, max_wait_us=1000.0
    )
    server = Server(engine, config=config, default_k=K, clock=clock, **kwargs)
    return server, engine, clock


def assert_same_result(response, baseline, where=""):
    result = response.result
    assert np.array_equal(result.ids, baseline.ids), where
    assert np.array_equal(result.distances, baseline.distances), where
    assert np.array_equal(result.exact_mask, baseline.exact_mask), where


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
class TestManualClock:
    def test_moves_only_when_advanced(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.advance(1.5) == 6.5
        assert clock.now() == 6.5

    def test_sleep_advances(self):
        clock = ManualClock()
        clock.sleep(0.25)
        assert clock.now() == 0.25

    def test_time_never_reverses(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


# ----------------------------------------------------------------------
# Micro-batcher flush boundaries
# ----------------------------------------------------------------------
class TestFlushBoundaries:
    def test_no_flush_below_batch_and_before_wait(self, data):
        server, _, clock = make_server(data)
        for q in data["queries"][:3]:
            server.submit(q)
        assert server.pump() == 0
        assert server.queue_depth == 3
        # One tick under the max-wait boundary: still no flush.
        clock.advance(server.config.max_wait_s - 1e-9)
        assert server.pump() == 0
        server.close()

    def test_flush_exactly_at_max_batch(self, data):
        server, _, clock = make_server(data)
        tickets = [server.submit(q) for q in data["queries"][:4]]
        assert server.pump() == 4  # 4 == max_batch, no time has passed
        assert all(t.done for t in tickets)
        assert {t.response.batch_size for t in tickets} == {4}
        server.close()

    def test_flush_exactly_at_max_wait(self, data):
        server, _, clock = make_server(data)
        ticket = server.submit(data["queries"][0])
        clock.advance(server.config.max_wait_s)  # inclusive boundary
        assert server.pump() == 1
        assert ticket.response.batch_size == 1
        assert ticket.response.queue_wait_s == pytest.approx(
            server.config.max_wait_s
        )
        server.close()

    def test_wait_measured_from_oldest_request(self, data):
        server, _, clock = make_server(data)
        first = server.submit(data["queries"][0])
        clock.advance(server.config.max_wait_s / 2)
        second = server.submit(data["queries"][1])
        clock.advance(server.config.max_wait_s / 2)
        # The *oldest* request hit the boundary; both flush together.
        assert server.pump() == 2
        assert first.response.batch_size == 2
        assert second.response.batch_size == 2
        assert second.response.queue_wait_s == pytest.approx(
            server.config.max_wait_s / 2
        )
        server.close()

    def test_oversize_drain_preserves_max_batch(self, data):
        server, _, _ = make_server(
            data, config=ServeConfig(max_queue_depth=64, max_batch=4)
        )
        tickets = [server.submit(q) for q in data["queries"][:10]]
        assert server.drain() == 10
        sizes = [t.response.batch_size for t in tickets]
        assert sizes == [4, 4, 4, 4, 4, 4, 4, 4, 2, 2]
        server.close()

    def test_zero_wait_flushes_every_pump(self, data):
        server, _, _ = make_server(
            data, config=ServeConfig(max_batch=8, max_wait_us=0.0)
        )
        ticket = server.submit(data["queries"][0])
        assert server.pump() == 1  # no time advanced, flushes anyway
        assert ticket.done
        server.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_at_exact_queue_depth(self, data):
        server, _, _ = make_server(
            data, config=ServeConfig(max_queue_depth=3, max_batch=100)
        )
        accepted = [server.submit(data["queries"][i]) for i in range(3)]
        assert all(not t.done for t in accepted)
        rejected = server.submit(data["queries"][3])
        assert rejected.done
        response = rejected.response
        assert not response.ok
        assert response.result is None
        assert response.overloaded == Overloaded(
            queue_depth=3, max_depth=3, tier="default"
        )
        # Draining frees the queue: the next submit is admitted.
        server.drain()
        assert not server.submit(data["queries"][3]).done
        server.close()

    def test_rejection_is_not_counted_as_served(self, data):
        registry = MetricsRegistry()
        server, _, _ = make_server(
            data,
            config=ServeConfig(max_queue_depth=1, max_batch=100),
            metrics=registry,
        )
        server.submit(data["queries"][0])
        server.submit(data["queries"][1])  # rejected
        server.drain()
        assert registry.value("serve_requests_total", tier="default") == 1
        assert registry.value("serve_rejected_total", tier="default") == 1
        server.close()

    def test_submit_after_close_raises(self, data):
        server, _, _ = make_server(data)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(data["queries"][0])

    def test_close_drains_pending(self, data):
        server, _, _ = make_server(data)
        tickets = [server.submit(q) for q in data["queries"][:2]]
        server.close()
        assert all(t.done for t in tickets)
        assert all(t.response.ok for t in tickets)


# ----------------------------------------------------------------------
# SLA tiers and deadlines
# ----------------------------------------------------------------------
TIERED = ServeConfig(
    max_queue_depth=16,
    max_batch=4,
    max_wait_us=1000.0,
    tiers=(SlaTier("gold", deadline_ms=10.0), SlaTier("batch", 0.0)),
)


class TestSlaDeadlines:
    def test_expiry_mid_queue_degrades_with_certificate(self, data):
        server, engine, clock = make_server(data, config=TIERED)
        expired = server.submit(data["queries"][0], tier="gold")
        fresh = server.submit(data["queries"][1], tier="batch")
        clock.advance(0.020)  # past gold's 10 ms budget, while queued
        server.drain()
        response = expired.response
        assert response.degraded
        outcome = response.result.outcome
        assert not outcome.complete
        assert outcome.reason == "deadline"
        # The certificate: an empty degraded answer carries an unbounded
        # error bound — the caller can see exactly how much to trust it.
        assert outcome.max_bound_error == float("inf")
        assert response.result.ids.size == 0
        assert not response.result.exact_mask.any()
        # Its batchmate without a budget is served completely.
        assert fresh.response.ok and not fresh.response.degraded
        assert_same_result(
            fresh.response, engine.search(data["queries"][1], K)
        )
        server.close()

    def test_queue_wait_charged_against_budget(self, data):
        """The budget clock starts at admission, not dispatch."""
        server, _, clock = make_server(data, config=TIERED)
        ticket = server.submit(data["queries"][0], tier="gold")
        queued = server._pending[0]
        assert queued.deadline is not None
        clock.advance(0.004)
        assert queued.deadline.elapsed_s() == pytest.approx(0.004)
        assert not queued.deadline.expired
        clock.advance(0.007)  # total 11 ms in queue > 10 ms budget
        assert queued.deadline.expired
        server.drain()
        assert ticket.response.degraded
        server.close()

    def test_unexpired_tier_serves_normally(self, data):
        server, engine, clock = make_server(data, config=TIERED)
        ticket = server.submit(data["queries"][2], tier="gold")
        clock.advance(0.002)  # within budget
        server.drain()
        assert ticket.response.ok and not ticket.response.degraded
        assert ticket.response.tier == "gold"
        assert_same_result(ticket.response, engine.search(data["queries"][2], K))
        server.close()

    def test_unknown_tier_rejected_loudly(self, data):
        server, _, _ = make_server(data, config=TIERED)
        with pytest.raises(ValueError, match="unknown SLA tier"):
            server.submit(data["queries"][0], tier="platinum")
        server.close()

    def test_deadline_expiry_counted_in_metrics(self, data):
        registry = MetricsRegistry()
        server, _, clock = make_server(data, config=TIERED, metrics=registry)
        server.submit(data["queries"][0], tier="gold")
        clock.advance(1.0)
        server.drain()
        assert registry.value("serve_deadline_expired_total", tier="gold") == 1
        assert registry.value("serve_degraded_total", tier="gold") == 1
        server.close()


# ----------------------------------------------------------------------
# Correctness through the batcher
# ----------------------------------------------------------------------
class TestBatchedIdentity:
    def test_each_ticket_gets_its_own_answer(self, data):
        server, engine, _ = make_server(
            data, config=ServeConfig(max_batch=8, max_queue_depth=64)
        )
        tickets = [server.submit(q) for q in data["queries"][:8]]
        server.pump()
        for i, ticket in enumerate(tickets):
            assert_same_result(
                ticket.response, engine.search(data["queries"][i], K),
                where=f"query={i} seed={SEED}",
            )
        server.close()

    def test_mixed_k_grouping(self, data):
        server, engine, _ = make_server(
            data, config=ServeConfig(max_batch=6, max_queue_depth=64)
        )
        ks = [3, 7, 3, 1, 7, 3]
        tickets = [
            server.submit(q, k=k) for q, k in zip(data["queries"], ks)
        ]
        server.pump()
        for i, (ticket, k) in enumerate(zip(tickets, ks)):
            assert len(ticket.response.result.ids) == k
            assert_same_result(
                ticket.response, engine.search(data["queries"][i], k),
                where=f"query={i} k={k} seed={SEED}",
            )
        server.close()

    def test_serve_one_is_immediate_inline(self, data):
        server, engine, _ = make_server(data)
        response = server.serve_one(data["queries"][0])
        assert response.ok
        assert_same_result(response, engine.search(data["queries"][0], K))
        server.close()

    def test_sharded_engine_target(self, data):
        from repro.shard import ShardedEngine, build_shard_specs

        specs = build_shard_specs(
            data["points"], 2, index_name="linear", seed=0
        )
        with ShardedEngine(specs, executor="serial") as engine:
            baseline = [engine.search(q, K) for q in data["queries"][:6]]
            server, _, _ = make_server(
                data, engine=engine,
                config=ServeConfig(max_batch=6, max_queue_depth=64),
            )
            tickets = [server.submit(q) for q in data["queries"][:6]]
            server.pump()
            for ticket, base in zip(tickets, baseline):
                assert_same_result(ticket.response, base)
            server.close()


# ----------------------------------------------------------------------
# Hot snapshot swap mid-stream
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_swap_mid_stream_zero_dropped_zero_bit_wrong(
        self, micro_dataset, tmp_path
    ):
        """A DriftController retrain (publish-then-swap) between batches
        must not drop or corrupt a single in-flight answer."""
        from repro.spec import CacheSection, PipelineSpec
        from repro.workload.drift import DriftController, EveryNQueries
        from repro.workload.model import WindowWorkload
        from repro.workload.train import TrainSpec

        spec = PipelineSpec(
            cache=CacheSection(method="HC-O", cache_bytes=CACHE_BYTES), k=K
        )
        pipeline = spec.build(dataset=micro_dataset)
        baseline_pipeline = spec.build(dataset=micro_dataset)
        controller = DriftController(
            WindowWorkload(capacity=256),
            TrainSpec(
                points=pipeline.point_file.points,
                index=pipeline.index,
                k=K,
                method="HC-O",
                tau=spec.cache.tau,
                cache_bytes=CACHE_BYTES,
            ),
            engine=pipeline.engine,
            trigger=EveryNQueries(6),
            snapshot_root=tmp_path / "maintenance",
        )
        server = Server(
            pipeline,
            config=ServeConfig(max_batch=4, max_queue_depth=64),
            default_k=K,
            clock=ManualClock(),
            controller=controller,
        )
        queries = micro_dataset.query_log.test
        original_cache = pipeline.engine.reduce.cache
        tickets = [server.submit(q) for q in queries]
        server.drain()
        server.close()
        assert controller.retrains >= 1
        assert pipeline.engine.reduce.cache is not original_cache
        # Publish-then-swap left a versioned artifact behind.
        assert (tmp_path / "maintenance" / "CURRENT").exists()
        # Zero dropped...
        assert all(t.done and t.response.ok for t in tickets)
        # ...and zero bit-wrong: every answer equals the never-swapped twin.
        for i, (ticket, q) in enumerate(zip(tickets, queries)):
            base = baseline_pipeline.search(q, K)
            result = ticket.response.result
            assert np.array_equal(result.ids, base.ids), f"query={i}"
            assert np.array_equal(result.distances, base.distances), (
                f"query={i}"
            )

    def test_manual_swap_between_pumps(self, data):
        """Direct engine.swap_cache between batches: later batches serve
        from the new cache, answers stay identical."""
        server, engine, _ = make_server(
            data, config=ServeConfig(max_batch=4, max_queue_depth=64)
        )
        first = [server.submit(q) for q in data["queries"][:4]]
        server.pump()
        replacement = make_engine(data).reduce.cache
        old = engine.swap_cache(replacement)
        assert old is not replacement
        second = [server.submit(q) for q in data["queries"][4:8]]
        server.pump()
        for i, ticket in enumerate(first + second):
            assert_same_result(
                ticket.response, engine.search(data["queries"][i], K),
                where=f"query={i}",
            )
        server.close()


# ----------------------------------------------------------------------
# Metrics and summary
# ----------------------------------------------------------------------
class TestServeMetrics:
    def test_counters_histograms_and_summary(self, data):
        registry = MetricsRegistry()
        server, _, clock = make_server(
            data,
            config=ServeConfig(
                max_queue_depth=4, max_batch=4,
                tiers=(SlaTier("gold", 10.0),),
            ),
            metrics=registry,
        )
        for q in data["queries"][:4]:
            server.submit(q)
        server.submit(data["queries"][4])  # rejected (depth 4)
        server.pump()  # one full batch
        expired = server.submit(data["queries"][5], tier="gold")
        clock.advance(1.0)
        server.drain()
        assert expired.response.degraded
        assert registry.value("serve_requests_total", tier="default") == 4
        assert registry.value("serve_requests_total", tier="gold") == 1
        assert registry.value("serve_rejected_total", tier="default") == 1
        assert registry.value("serve_batches_total") == 2
        assert registry.get("serve_batch_size").count == 2
        assert registry.get("serve_queue_wait_seconds").count == 5
        summary = serve_summary(registry)
        assert summary["tiers"]["default"]["served"] == 4
        assert summary["tiers"]["default"]["rejected"] == 1
        assert summary["tiers"]["gold"]["degraded"] == 1
        assert summary["tiers"]["gold"]["deadline_expired"] == 1
        assert summary["batches"] == 2
        assert summary["tiers"]["default"]["latency_p50_ms"] is not None
        server.close()

    def test_queue_depth_gauge_tracks(self, data):
        registry = MetricsRegistry()
        server, _, _ = make_server(data, metrics=registry)
        server.submit(data["queries"][0])
        server.submit(data["queries"][1])
        assert registry.value("serve_queue_depth") == 2
        server.drain()
        assert registry.value("serve_queue_depth") == 0
        server.close()


# ----------------------------------------------------------------------
# Open-loop load generator on the fake clock
# ----------------------------------------------------------------------
class TestLoadGen:
    def test_paced_arrivals_batch_by_wait(self, data):
        # 1000 q/s arrivals, 2 ms max wait -> ~2 requests per flush.
        server, _, _ = make_server(
            data,
            config=ServeConfig(max_batch=32, max_wait_us=2000.0,
                               max_queue_depth=64),
        )
        report = run_open_loop(
            server, data["queries"], rate_qps=1000.0
        )
        server.close()
        assert report.submitted == len(data["queries"])
        assert report.served == report.submitted
        assert report.rejected == 0
        assert 1.0 < report.mean_batch_size <= 3.0
        # Latency is queue wait + (zero-duration) execution on the fake
        # clock, so p99 is bounded by the flush wait.
        assert report.latency_p99_ms <= 2.1

    def test_saturating_load_fills_batches(self, data):
        server, _, _ = make_server(
            data,
            config=ServeConfig(max_batch=8, max_queue_depth=256),
        )
        report = run_open_loop(server, data["queries"], rate_qps=0.0)
        server.close()
        assert report.served == len(data["queries"])
        assert report.mean_batch_size == 8.0

    def test_overload_is_reported_not_raised(self, data):
        server, _, _ = make_server(
            data,
            config=ServeConfig(max_queue_depth=4, max_batch=100,
                               max_wait_us=1e9),
        )
        report = run_open_loop(server, data["queries"], rate_qps=0.0)
        server.close()
        assert report.rejected == len(data["queries"]) - 4
        assert report.served == 4


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_threaded_requires_real_clock(self, data):
        engine = make_engine(data)
        with pytest.raises(TypeError, match="RealClock"):
            Server(
                engine,
                clock=ManualClock(),
                executor=ThreadedExecutor(),
            )

    def test_threaded_smoke_event_driven(self, data):
        """Background dispatcher serves without the caller pumping.

        Event-driven (ticket.wait blocks on completion, not on a timer);
        the generous timeout only bounds a hang on failure.
        """
        engine = make_engine(data)
        baseline = [engine.search(q, K) for q in data["queries"][:4]]
        server = Server(
            engine,
            config=ServeConfig(max_batch=4, max_wait_us=500.0),
            default_k=K,
            clock=RealClock(),
            executor=ThreadedExecutor(),
        )
        tickets = [server.submit(q) for q in data["queries"][:4]]
        responses = [t.wait(timeout=30.0) for t in tickets]
        server.close()
        for response, base in zip(responses, baseline):
            assert_same_result(response, base)

    def test_inline_is_default(self, data):
        server, _, _ = make_server(data)
        assert isinstance(server.executor, InlineExecutor)
        assert server.executor.inline
        server.close()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_batch": 0},
            {"max_wait_us": -1.0},
            {"tiers": (SlaTier("a"), SlaTier("a"))},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_default_tier_implicit_and_unlimited(self):
        config = ServeConfig()
        tier = config.tier()
        assert tier.name == "default"
        assert tier.budget_s is None

    def test_named_default_tier_keeps_budget(self):
        config = ServeConfig(tiers=(SlaTier("default", 5.0),))
        assert config.tier().budget_s == pytest.approx(0.005)

    def test_from_section_round_trip(self):
        from repro.spec.sections import ServeSection

        section = ServeSection(
            enabled=True, max_queue_depth=9, max_batch=3, max_wait_us=42.0,
            tiers={"gold": 7.0, "batch": 0.0},
        )
        config = ServeConfig.from_section(section)
        assert config.max_queue_depth == 9
        assert config.max_batch == 3
        assert config.max_wait_us == 42.0
        assert config.tier("gold").budget_s == pytest.approx(0.007)
        assert config.tier("batch").budget_s is None


# ----------------------------------------------------------------------
# Bounded dispatcher shutdown (escalation, not a hang)
# ----------------------------------------------------------------------
class TestThreadedStopEscalation:
    def test_join_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(join_timeout_s=0.0)

    def test_stuck_dispatch_is_abandoned_with_warning(self, data):
        """A dispatcher wedged inside the engine cannot hang close().

        ``stop`` bounds its join; past the bound it escalates the same
        way the shard executors treat hung workers — warn and abandon
        the daemon thread instead of waiting forever.
        """
        release = threading.Event()
        engine = make_engine(data)

        class _StuckEngine:
            def search_many(self, queries, k):
                release.wait(30.0)
                return [engine.search(q, k) for q in queries]

        executor = ThreadedExecutor(join_timeout_s=0.2)
        server = Server(
            _StuckEngine(),
            config=ServeConfig(max_batch=1, max_wait_us=0.0),
            default_k=K,
            clock=RealClock(),
            executor=executor,
        )
        server.submit(data["queries"][0])
        with pytest.warns(RuntimeWarning, match="abandoning"):
            server.close()
        assert executor.abandoned
        release.set()  # let the abandoned daemon finish quietly

    def test_clean_shutdown_does_not_escalate(self, data):
        executor = ThreadedExecutor(join_timeout_s=5.0)
        server = Server(
            make_engine(data),
            default_k=K,
            clock=RealClock(),
            executor=executor,
        )
        server.serve_one(data["queries"][0])
        server.close()
        assert not executor.abandoned


# ----------------------------------------------------------------------
# Load-report outcome split (shed never pollutes latency)
# ----------------------------------------------------------------------
class TestLoadReportSplit:
    def test_shed_split_out_of_served_and_percentiles(self, data):
        server, _, _ = make_server(
            data,
            config=ServeConfig(max_queue_depth=4, max_batch=100,
                               max_wait_us=1e9),
        )
        report = run_open_loop(server, data["queries"], rate_qps=0.0)
        server.close()
        assert report.served == 4
        assert report.rejected == len(data["queries"]) - 4
        counts = report.per_tier["default"]
        assert counts["served"] == 4
        assert counts["shed"] == report.rejected
        assert counts["degraded"] == 0
        assert counts["expired"] == 0
        # served + shed covers every submission, exactly once.
        assert counts["served"] + counts["shed"] == report.submitted

    def test_expired_is_the_deadline_slice_of_degraded(self, data):
        # 0.5 ms budget, 2 ms flush wait: requests queued longer than
        # their budget expire (the freshest request in a flush may still
        # be inside its budget, so expired < served).
        server, _, _ = make_server(
            data,
            config=ServeConfig(
                max_batch=32, max_wait_us=2000.0, max_queue_depth=64,
                default_tier="gold", tiers=(SlaTier("gold", 0.5),),
            ),
        )
        report = run_open_loop(
            server, data["queries"], tier="gold", rate_qps=1000.0
        )
        server.close()
        assert report.served == len(data["queries"])
        assert report.degraded > 0
        # Every degraded answer here came from the SLA deadline alone.
        assert report.expired == report.degraded
        counts = report.per_tier["gold"]
        assert counts["expired"] == counts["degraded"] == report.degraded
        assert counts["shed"] == 0

    def test_brownout_degraded_is_not_counted_expired(self, data):
        from repro.serve import FaultyReplica, ReplicaPool, ReplicaPoolConfig

        pool = ReplicaPool(
            [FaultyReplica(make_engine(data), crash_batches=range(1, 100))],
            config=ReplicaPoolConfig(restart_base_s=0.1),
        )
        server = Server(
            pool,
            config=ServeConfig(max_queue_depth=64, max_batch=4,
                               max_wait_us=1000.0),
            default_k=K,
            clock=ManualClock(),
        )
        report = run_open_loop(server, data["queries"][:6], rate_qps=0.0)
        server.close()
        assert report.degraded == 6
        assert report.expired == 0  # brownout is degraded, not expired
        counts = report.per_tier["default"]
        assert counts["degraded"] == 6 and counts["expired"] == 0

    def test_report_round_trips_per_tier(self, data):
        server, _, _ = make_server(
            data, config=ServeConfig(max_queue_depth=4, max_batch=100,
                                     max_wait_us=1e9),
        )
        report = run_open_loop(server, data["queries"], rate_qps=0.0)
        server.close()
        payload = report.to_dict()
        assert payload["expired"] == report.expired
        assert payload["per_tier"]["default"]["shed"] == report.rejected
