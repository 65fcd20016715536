"""Supervised replica pool: failover, hedging, crash-safe recovery.

Everything here runs on a ``ManualClock`` with the inline executor and
the *sync* pool — every crash, stall, hedge, quarantine and restart is
a deterministic function of the injected fault schedule and the clock,
with no real sleeps.  The one threaded test at the end smokes the
``parallel=True`` + ``ThreadedExecutor`` production mode on a real
clock.

The acceptance property (kill a replica mid-stream): every accepted
request completes exactly once, answers are bit-identical to a
no-fault twin, and the pool returns to full health within the backoff
schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import ApproximateCache, CachePolicy
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine.engine import QueryEngine
from repro.faults.plan import FaultSpec
from repro.index.linear_scan import LinearScanIndex
from repro.obs.registry import MetricsRegistry
from repro.obs.reporter import serve_summary
from repro.serve import (
    BatchHold,
    FaultyReplica,
    InlineExecutor,
    ManualClock,
    RealClock,
    ReplicaCrashError,
    ReplicaPool,
    ReplicaPoolConfig,
    ServeConfig,
    Server,
    SlaTier,
    ThreadedExecutor,
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
    """One replica engine; identical construction => identical answers."""
    points = data["points"]
    encoder = GlobalHistogramEncoder(
        build_equidepth(ValueDomain.from_points(points), 16), DIM
    )
    cache = ApproximateCache(encoder, CACHE_BYTES, N_POINTS, CachePolicy.HFF)
    cache.populate_hff(data["frequencies"], points)
    point_file = PointFile(points, disk=SimulatedDisk(DiskConfig()))
    return QueryEngine.for_index(LinearScanIndex(N_POINTS), point_file, cache)


@pytest.fixture(scope="module")
def baseline(data):
    """The no-fault twin's answers (per-query ground truth)."""
    engine = make_engine(data)
    return [engine.search(q, K) for q in data["queries"]]


def make_pool_server(data, engines, pool_config=None, **kwargs):
    clock = kwargs.pop("clock", None) or ManualClock()
    metrics = kwargs.pop("metrics", None)
    if metrics is None:
        metrics = MetricsRegistry()
    config = kwargs.pop("config", None) or ServeConfig(
        max_queue_depth=64, max_batch=4, max_wait_us=1000.0
    )
    pool = ReplicaPool(engines, config=pool_config)
    server = Server(
        pool, config=config, default_k=K, clock=clock, metrics=metrics,
        **kwargs,
    )
    return server, pool, clock, metrics


def assert_same_result(response, base, where=""):
    result = response.result
    assert np.array_equal(result.ids, base.ids), where
    assert np.array_equal(result.distances, base.distances), where
    assert np.array_equal(result.exact_mask, base.exact_mask), where


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestReplicaPoolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_budget_s": 0.0},
            {"hedge_delay_s": -1.0},
            {"failure_threshold": 0},
            {"restart_base_s": -0.1},
            {"heartbeat_interval_s": 0.0},
            {"max_redispatch": -1},
            {"tier_stall_budget_s": {"gold": 0.0}},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplicaPoolConfig(**kwargs)

    def test_tightest_tier_stall_budget_wins(self):
        config = ReplicaPoolConfig(
            stall_budget_s=1.0,
            tier_stall_budget_s={"gold": 0.2, "batch": 5.0},
        )
        assert config.stall_budget_for(["default"]) == 1.0
        assert config.stall_budget_for(["batch", "gold"]) == 0.2
        assert config.stall_budget_for(["batch"]) == 5.0
        assert config.stall_budget_for([]) == 1.0

    def test_from_section_converts_milliseconds(self):
        from repro.spec.sections import ReplicaSection

        section = ReplicaSection(
            enabled=True,
            n_replicas=3,
            stall_budget_ms=500.0,
            hedge_delay_ms=30.0,
            failure_threshold=2,
            restart_backoff_ms=20.0,
            restart_max_backoff_ms=640.0,
            heartbeat_interval_ms=100.0,
            max_redispatch=5,
            tier_stall_budget_ms={"gold": 50.0},
        )
        config = ReplicaPoolConfig.from_section(section)
        assert config.stall_budget_s == pytest.approx(0.5)
        assert config.hedge_delay_s == pytest.approx(0.03)
        assert config.failure_threshold == 2
        assert config.restart_base_s == pytest.approx(0.02)
        assert config.restart_max_s == pytest.approx(0.64)
        assert config.heartbeat_interval_s == pytest.approx(0.1)
        assert config.max_redispatch == 5
        assert config.tier_stall_budget_s["gold"] == pytest.approx(0.05)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ReplicaPool([])


# ----------------------------------------------------------------------
# FaultyReplica schedules
# ----------------------------------------------------------------------
class TestFaultyReplica:
    def test_transparent_when_fault_free(self, data, baseline):
        faulty = FaultyReplica(make_engine(data))
        results = faulty.search_many(data["queries"][:4], K)
        for result, base in zip(results, baseline[:4]):
            assert np.array_equal(result.ids, base.ids)
            assert np.array_equal(result.distances, base.distances)
        assert faulty.batches == 1

    def test_crash_schedule_is_one_shot(self, data):
        faulty = FaultyReplica(make_engine(data), crash_batches=(2,))
        faulty.search_many(data["queries"][:2], K)
        with pytest.raises(ReplicaCrashError):
            faulty.search_many(data["queries"][:2], K)
        assert faulty.crashes == 1
        # Batch 3 works again (a restarted replica serves).
        results = faulty.search_many(data["queries"][:2], K)
        assert len(results) == 2

    def test_stall_and_slow_return_holds(self, data):
        faulty = FaultyReplica(
            make_engine(data), stall_batches=(1,), slow_batches={2: 0.75}
        )
        hold = faulty.search_many(data["queries"][:2], K)
        assert isinstance(hold, BatchHold)
        assert hold.delay_s is None and hold.results is None
        slow = faulty.search_many(data["queries"][:2], K)
        assert isinstance(slow, BatchHold)
        assert slow.delay_s == pytest.approx(0.75)
        assert len(slow.results) == 2  # results computed eagerly, held

    def test_ping_failure_schedule(self, data):
        faulty = FaultyReplica(make_engine(data), fail_pings=(2,))
        faulty.ping()
        with pytest.raises(ReplicaCrashError):
            faulty.ping()
        faulty.ping()
        assert faulty.pings == 3

    def test_fault_spec_drives_crashes_and_stalls(self, data):
        # transient_period=2: attempts 2, 4, ... raise -> replica crash.
        faulty = FaultyReplica(
            make_engine(data), spec=FaultSpec(transient_period=2)
        )
        faulty.search_many(data["queries"][:2], K)
        with pytest.raises(ReplicaCrashError):
            faulty.search_many(data["queries"][:2], K)
        # stall_period=2: every second attempt stalls (a hold, no sleep).
        stalling = FaultyReplica(
            make_engine(data), spec=FaultSpec(stall_period=2, stall_s=3.0)
        )
        stalling.search_many(data["queries"][:2], K)
        hold = stalling.search_many(data["queries"][:2], K)
        assert isinstance(hold, BatchHold)
        assert hold.delay_s is None

    def test_fault_spec_latency_becomes_slow_hold(self, data):
        faulty = FaultyReplica(
            make_engine(data),
            spec=FaultSpec(latency_rate=1.0, latency_s=0.5),
        )
        hold = faulty.search_many(data["queries"][:2], K)
        assert isinstance(hold, BatchHold)
        assert hold.delay_s == pytest.approx(0.5)
        assert len(hold.results) == 2


# ----------------------------------------------------------------------
# The acceptance test: kill a replica mid-stream
# ----------------------------------------------------------------------
class TestKillReplicaMidStream:
    def test_exactly_once_bit_identical_and_recovered(self, data, baseline):
        queries = data["queries"]
        server, pool, clock, metrics = make_pool_server(
            data,
            [
                FaultyReplica(make_engine(data), crash_batches=(1,)),
                make_engine(data),
            ],
            pool_config=ReplicaPoolConfig(
                stall_budget_s=0.5, restart_base_s=0.05
            ),
        )
        tickets = [server.submit(q) for q in queries]
        served = server.pump(force=True)

        # Every accepted request completed exactly once.
        assert served == len(queries)
        assert all(t.done for t in tickets)
        assert metrics.value(
            "serve_requests_total", tier="default"
        ) == len(queries)
        assert metrics.value(
            "serve_completion_discarded_total", tier="default"
        ) == 0

        # Bit-identical to the no-fault twin, crash or not.
        for i, (ticket, base) in enumerate(zip(tickets, baseline)):
            assert ticket.response.result.outcome.complete
            assert_same_result(ticket.response, base, where=f"query {i}")

        # The crash quarantined replica 0 and failed its batch over.
        assert pool.healthy_count == 1
        assert pool.quarantined_count == 1
        assert metrics.value("serve_failover_total") == 1
        assert metrics.value(
            "serve_replica_crash_total", replica="0"
        ) == 1
        assert metrics.value(
            "serve_redispatch_total", tier="default"
        ) == 4  # the crashed batch's requests, re-enqueued at the front

        # Full health returns within the backoff schedule: one crash ->
        # one base cool-down, after which the heartbeat probe restarts
        # the replica.  No real sleeps — the ManualClock does the waiting.
        clock.advance(0.05 + 0.25)  # cool-down + heartbeat interval
        server.pump(force=True)
        assert pool.healthy_count == 2
        assert metrics.value(
            "serve_replica_restart_total", replica="0"
        ) == 1
        assert metrics.value("serve_replicas_healthy") == 2
        server.close()

    def test_recovered_requests_jump_the_queue(self, data, baseline):
        """Failover preserves FIFO: recovered requests flush first."""
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), crash_batches=(1,)),
             make_engine(data)],
        )
        tickets = [server.submit(q) for q in data["queries"][:8]]
        server.pump(force=True)
        # The first four (crashed, recovered) still completed, and their
        # queue wait reflects re-dispatch, not losing their place.
        for ticket, base in zip(tickets, baseline):
            assert_same_result(ticket.response, base)
        assert metrics.value(
            "serve_redispatch_total", tier="default"
        ) == 4
        server.close()


# ----------------------------------------------------------------------
# Stall detection
# ----------------------------------------------------------------------
class TestStallDetection:
    def test_stalled_batch_quarantines_and_recovers(self, data, baseline):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), stall_batches=(1,)),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(stall_budget_s=0.5),
        )
        tickets = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        # The drain advanced the clock exactly to the stall budget —
        # escalation, not patience.
        assert clock.now() == pytest.approx(0.5)
        for ticket, base in zip(tickets, baseline):
            assert_same_result(ticket.response, base)
        assert metrics.value("serve_replica_stall_total", replica="0") == 1
        assert pool.quarantined_count == 1
        server.close()

    def test_tightest_tier_budget_bounds_the_wait(self, data):
        config = ServeConfig(
            max_queue_depth=64, max_batch=4, max_wait_us=1000.0,
            tiers=(SlaTier("gold"),),
        )
        server, pool, clock, _ = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), stall_batches=(1,)),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(
                stall_budget_s=5.0, tier_stall_budget_s={"gold": 0.1}
            ),
            config=config,
        )
        for q in data["queries"][:4]:
            server.submit(q, tier="gold")
        server.pump(force=True)
        assert clock.now() == pytest.approx(0.1)
        server.close()

    def test_slow_but_scheduled_batch_is_not_a_stall(self, data, baseline):
        """A hold with a reveal time completes; the budget ignores it."""
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), slow_batches={1: 0.3})],
            pool_config=ReplicaPoolConfig(stall_budget_s=10.0),
        )
        tickets = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        assert clock.now() == pytest.approx(0.3)
        for ticket, base in zip(tickets, baseline):
            assert_same_result(ticket.response, base)
        assert metrics.value("serve_replica_stall_total", replica="0") == 0
        assert pool.healthy_count == 1
        server.close()


# ----------------------------------------------------------------------
# Hedged dispatch
# ----------------------------------------------------------------------
class TestHedging:
    def test_hedge_wins_loser_discarded(self, data, baseline):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), slow_batches={1: 2.0}),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(
                stall_budget_s=10.0, hedge_delay_s=0.3
            ),
        )
        tickets = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        assert all(t.done for t in tickets)
        for ticket, base in zip(tickets, baseline):
            assert ticket.response.result.outcome.complete
            assert_same_result(ticket.response, base)
        # Each of the four slow requests was hedged onto the idle
        # replica and the hedge won; the slow copy's reveal at t=2.0
        # lost the at-most-once guard and was discarded — counted, never
        # double-served.
        assert metrics.value("serve_hedge_total") == 4
        assert metrics.value("serve_hedge_win_total") == 4
        assert metrics.value(
            "serve_completion_discarded_total", tier="default"
        ) == 4
        assert metrics.value(
            "serve_requests_total", tier="default"
        ) == 4
        # The slow replica is not punished: its batch completed (late).
        assert pool.healthy_count == 2
        server.close()

    def test_dispatcher_waits_while_every_replica_is_busy(self, data):
        """A due flush with no replica free must not spin the dispatcher:
        its wait is the next supervision event, not zero."""
        server, pool, clock, _ = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), slow_batches={1: 0.5}),
             FaultyReplica(make_engine(data), slow_batches={1: 0.5})],
            pool_config=ReplicaPoolConfig(
                stall_budget_s=10.0, hedge_delay_s=0.0
            ),
        )
        for q in data["queries"][:8]:
            server.submit(q)
        server.pump()
        assert all(r.inflight is not None for r in pool.replicas)
        for q in data["queries"][8:12]:
            server.submit(q)
        with server._cond:
            assert len(server._pending) >= server.config.max_batch
            assert server._time_to_flush_locked() == 0.0
            assert server._dispatch_wait_locked() == pytest.approx(0.5)
        server.pump(force=True)
        server.close()

    def test_no_hedging_when_disabled(self, data):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), slow_batches={1: 0.4}),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(
                stall_budget_s=10.0, hedge_delay_s=0.0
            ),
        )
        for q in data["queries"][:4]:
            server.submit(q)
        server.pump(force=True)
        assert metrics.value("serve_hedge_total") == 0
        assert clock.now() == pytest.approx(0.4)
        server.close()


# ----------------------------------------------------------------------
# Brownout and re-dispatch exhaustion
# ----------------------------------------------------------------------
class TestDegradedModes:
    def test_all_replicas_down_brownout(self, data):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), crash_batches=range(1, 100))],
            pool_config=ReplicaPoolConfig(restart_base_s=0.1),
        )
        tickets = [server.submit(q) for q in data["queries"][:6]]
        server.pump(force=True)
        for ticket in tickets:
            result = ticket.response.result
            assert not result.outcome.complete
            assert result.outcome.reason == "brownout"
            assert np.all(result.ids == -1) or len(result.ids) == 0 or (
                not result.exact_mask.any()
            )
        assert metrics.value("serve_brownout_total", tier="default") == 6
        assert pool.healthy_count == 0
        server.close()

    def test_redispatch_budget_exhaustion(self, data):
        # max_redispatch=0: one crash already exceeds the budget, and
        # the healthy twin means brownout never kicks in first.
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), crash_batches=(1,)),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(max_redispatch=0),
        )
        tickets = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        for ticket in tickets:
            result = ticket.response.result
            assert not result.outcome.complete
            assert result.outcome.reason == "replica_failure"
        assert metrics.value(
            "serve_degraded_total", tier="default"
        ) == 4
        server.close()

    def test_brownout_lifts_after_cooldown(self, data, baseline):
        """Requests submitted after the cool-down are served normally."""
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), crash_batches=(1,))],
            pool_config=ReplicaPoolConfig(restart_base_s=0.1),
        )
        first = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        assert all(
            t.response.result.outcome.reason == "brownout" for t in first
        )
        clock.advance(0.5)
        second = [server.submit(q) for q in data["queries"][:4]]
        server.pump(force=True)
        for ticket, base in zip(second, baseline):
            assert ticket.response.result.outcome.complete
            assert_same_result(ticket.response, base)
        server.close()


# ----------------------------------------------------------------------
# Quarantine backoff and heartbeats
# ----------------------------------------------------------------------
class TestSupervision:
    def test_exponential_backoff_doubles_and_caps(self, data):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), fail_pings=range(1, 10))],
            pool_config=ReplicaPoolConfig(
                restart_base_s=0.1, restart_max_s=0.4,
                heartbeat_interval_s=0.05,
            ),
        )
        replica = pool.replicas[0]
        delays = []
        for _ in range(4):
            # Wait out the heartbeat interval and any cool-down, then
            # pump: the probe ping fails and re-quarantines.
            clock.advance(
                max(0.05, replica.retry_at - clock.now() + 0.05)
            )
            server.pump()
            delays.append(replica.retry_at - clock.now())
        # 0.1, 0.2, 0.4, then capped at 0.4.
        assert delays[0] == pytest.approx(0.1, abs=0.02)
        assert delays[1] == pytest.approx(0.2, abs=0.04)
        assert delays[2] == pytest.approx(0.4, abs=0.08)
        assert delays[3] <= 0.4 + 1e-9
        assert replica.open_count == 4
        server.close()

    def test_heartbeat_recovery_resets_backoff(self, data):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), fail_pings=(1,))],
            pool_config=ReplicaPoolConfig(
                restart_base_s=0.1, heartbeat_interval_s=0.05
            ),
        )
        replica = pool.replicas[0]
        clock.advance(0.06)
        server.pump()  # ping #1 fails -> quarantine
        assert pool.quarantined_count == 1
        clock.advance(0.2)
        server.pump()  # cooled down: probe ping succeeds -> healthy
        assert pool.healthy_count == 1
        assert replica.open_count == 0  # backoff index reset on recovery
        assert metrics.value(
            "serve_replica_restart_total", replica="0"
        ) == 1
        # Recovery time observed on the histogram.
        recovery = metrics.get("serve_recovery_seconds")
        assert recovery is not None and recovery.count == 1
        server.close()

    def test_parallel_pool_requires_real_clock(self, data):
        pool = ReplicaPool([make_engine(data)], parallel=True)
        with pytest.raises(TypeError, match="RealClock"):
            Server(pool, clock=ManualClock())

    def test_single_healthy_replica_matches_plain_server(
        self, data, baseline
    ):
        """A pool of one with no faults is just the server, bit for bit."""
        server, pool, clock, metrics = make_pool_server(
            data, [make_engine(data)]
        )
        tickets = [server.submit(q) for q in data["queries"]]
        server.pump(force=True)
        for ticket, base in zip(tickets, baseline):
            assert_same_result(ticket.response, base)
        assert metrics.value("serve_failover_total") == 0
        server.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestReplicaSummary:
    def test_serve_summary_includes_pool_block(self, data):
        server, pool, clock, metrics = make_pool_server(
            data,
            [FaultyReplica(make_engine(data), crash_batches=(1,)),
             make_engine(data)],
            pool_config=ReplicaPoolConfig(restart_base_s=0.05),
        )
        for q in data["queries"][:8]:
            server.submit(q)
        server.pump(force=True)
        clock.advance(0.5)
        server.pump(force=True)  # heartbeat restores full health
        summary = serve_summary(metrics)
        block = summary["replicas"]
        assert block["healthy"] == 2
        assert block["quarantined"] == 0
        assert block["failovers"] == 1
        assert block["crashes"] == 1
        assert block["restarts"] == 1
        assert block["recoveries"] == 1
        assert block["recovery_p50_s"] > 0
        server.close()

    def test_no_pool_no_block(self, data):
        engine = make_engine(data)
        metrics = MetricsRegistry()
        server = Server(
            engine, default_k=K, clock=ManualClock(), metrics=metrics
        )
        server.serve_one(data["queries"][0])
        assert "replicas" not in serve_summary(metrics)
        server.close()


# ----------------------------------------------------------------------
# Spec / factory integration
# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_server_from_spec_builds_pool(self):
        from repro.serve import server_from_spec
        from repro.spec import (
            DatasetSection, PipelineSpec, ReplicaSection, ServeSection,
        )

        spec = PipelineSpec(
            dataset=DatasetSection(name="tiny", seed=3),
            serve=ServeSection(enabled=True, max_batch=4),
            replica=ReplicaSection(enabled=True, n_replicas=2),
            k=K,
        )
        server, pipeline = server_from_spec(spec, clock=ManualClock())
        assert server._pool is pipeline.pool
        assert len(pipeline.pool.replicas) == 2
        response = server.serve_one(np.zeros(16))  # tiny dataset: 16-d
        assert response.ok
        server.close()
        pipeline.close()

    def test_replica_spec_round_trips(self):
        from repro.spec import PipelineSpec, ReplicaSection

        spec = PipelineSpec(
            replica=ReplicaSection(
                enabled=True, n_replicas=3, hedge_delay_ms=25.0,
                tier_stall_budget_ms={"gold": 50.0},
            )
        )
        again = PipelineSpec.from_json(spec.to_json())
        assert again.replica == spec.replica

    def test_sharded_plus_replicas_rejected(self):
        from repro.serve import server_from_spec
        from repro.spec import PipelineSpec, ReplicaSection, ShardSection

        spec = PipelineSpec(
            shard=ShardSection(n_shards=2),
            replica=ReplicaSection(enabled=True, n_replicas=2),
        )
        with pytest.raises(ValueError, match="replica pools over sharded"):
            server_from_spec(spec)


# ----------------------------------------------------------------------
# Parallel (threaded) mode — real clock, real threads
# ----------------------------------------------------------------------
class TestParallelPool:
    def test_threaded_parallel_pool_survives_crash(self, data, baseline):
        pool = ReplicaPool(
            [
                FaultyReplica(make_engine(data), crash_batches=(2,)),
                make_engine(data),
            ],
            config=ReplicaPoolConfig(
                stall_budget_s=5.0, restart_base_s=0.01
            ),
            parallel=True,
        )
        metrics = MetricsRegistry()
        server = Server(
            pool,
            config=ServeConfig(
                max_queue_depth=256, max_batch=8, max_wait_us=500.0
            ),
            default_k=K,
            clock=RealClock(),
            metrics=metrics,
            executor=ThreadedExecutor(),
        )
        tickets = [server.submit(q) for q in data["queries"]]
        responses = [t.wait(timeout=30.0) for t in tickets]
        server.close()
        assert metrics.value(
            "serve_requests_total", tier="default"
        ) == len(tickets)
        for i, (response, base) in enumerate(zip(responses, baseline)):
            assert response.result.outcome.complete, i
            assert_same_result(response, base, where=f"query {i}")

    def test_finished_unpolled_batch_wakes_the_dispatcher(self, data):
        """A worker that finished before the dispatcher began to wait has
        already sent its notify; the wait must not sleep past it."""
        pool = ReplicaPool(
            [make_engine(data), make_engine(data)],
            config=ReplicaPoolConfig(stall_budget_s=5.0),
            parallel=True,
        )
        server = Server(
            pool,
            config=ServeConfig(max_queue_depth=64, max_batch=4),
            default_k=K,
            clock=RealClock(),
            executor=InlineExecutor(),
        )
        tickets = [server.submit(q) for q in data["queries"][:8]]
        server.pump()
        for replica in pool.replicas:
            assert replica.inflight.future.event.wait(30.0)
        with server._cond:
            assert server._dispatch_wait_locked() == 0.0
        server.pump(force=True)
        server.close()
        assert all(t.done for t in tickets)
