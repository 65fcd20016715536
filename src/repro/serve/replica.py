"""Supervised replica pool: failover, hedging, and crash-safe recovery.

PR 8's :class:`~repro.serve.server.Server` dispatches every micro-batch
on one engine — a single stuck or crashed dispatch silently stops the
world.  A :class:`ReplicaPool` puts N engine replicas behind the same
bounded admission queue and supervises them off the server's injected
:class:`~repro.serve.clock.Clock`:

* **heartbeats** — idle replicas exposing ``ping()`` are probed every
  ``heartbeat_interval_s``; a failed ping quarantines the replica just
  like a crashed batch.
* **stall detection** — an in-flight batch older than its stall budget
  (per-tier override, tightest tier in the batch wins) quarantines the
  replica and recovers its requests.  Like the hung-worker escalation in
  ``repro.shard.executors``, a hang is never waited out: the dispatch is
  abandoned, the work re-routed.
* **quarantine + restart** — each replica sits behind its own
  :class:`~repro.faults.breaker.CircuitBreaker`; the cool-down grows
  per the exponential-backoff schedule of
  :class:`~repro.faults.retry.RetryPolicy`, and the first post-cool-down
  dispatch is the half-open probe (calling the engine's ``restart()``
  hook when it has one).
* **crash-safe recovery** — requests in flight on a dead replica are
  re-enqueued at the *front* of the queue (their SLA budget kept
  running) and served by a healthy replica.  The
  :meth:`~repro.serve.server.Ticket.try_complete` guard makes
  completion at-most-once: a recovered or hedged request can never be
  answered twice, late losers are discarded and counted.
* **hedged dispatch** — the oldest in-flight request past
  ``hedge_delay_s`` is re-issued to an idle replica; first completion
  wins.
* **brownout** — when every replica is quarantined and cooling, queued
  requests get certified ``degraded_answer`` results (reason
  ``"brownout"``) instead of hanging.

Determinism: the pool never reads real time — every decision flows
through the server's clock, so with a ``ManualClock`` and inline
pumping every failover, hedge, and restart is reproducible without
sleeps.  ``parallel=True`` (real clock only) runs each dispatch on a
worker thread for genuine multi-core serving throughput.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.engine.engine import QueryEngine
from repro.engine.stats import SearchResult
from repro.faults.breaker import (
    CLOSED,
    OPEN,
    STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.faults.errors import CorruptPageError, TransientIOError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.serve.server import (
    _Pending,
    _server_degraded_result,
    run_engine_group,
)

#: Time-to-recovery histogram buckets (seconds since first quarantine).
RECOVERY_BUCKETS = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class ReplicaCrashError(RuntimeError):
    """A replica died mid-batch (injected or real); its work is recoverable."""


@dataclass(frozen=True)
class BatchHold:
    """Sentinel a (faulty) replica returns instead of batch results.

    ``delay_s`` seconds after dispatch the held ``results`` become
    visible to the supervisor; ``delay_s=None`` is a hard stall — the
    results never arrive and only the stall budget frees the requests.
    Results are computed eagerly at dispatch time, which is sound for
    the static read-only engines replicas serve (the answer cannot
    change while held).
    """

    delay_s: float | None
    results: list[SearchResult] | None


@dataclass(frozen=True)
class ReplicaPoolConfig:
    """Supervision parameters for a :class:`ReplicaPool`.

    Attributes:
        stall_budget_s: default age at which an in-flight batch is
            declared stalled and its replica quarantined.
        tier_stall_budget_s: per-tier overrides; a batch's effective
            budget is the tightest budget among its requests' tiers.
        hedge_delay_s: age past which the oldest in-flight request is
            re-issued to an idle replica (0 disables hedging).
        failure_threshold: consecutive failures before quarantine (1 =
            quarantine on first crash, the production default — a dead
            replica should not get a second batch).
        restart_base_s / restart_max_s: exponential-backoff schedule for
            quarantine cool-downs (doubles per consecutive quarantine,
            capped).
        heartbeat_interval_s: how often idle replicas are pinged
            (engines without a ``ping()`` skip heartbeating).
        max_redispatch: how many times one request may be re-dispatched
            after replica failures before it is answered with a
            certified degraded result (reason ``"replica_failure"``) —
            the poison-query guard.
    """

    stall_budget_s: float = 1.0
    tier_stall_budget_s: dict = field(default_factory=dict)
    hedge_delay_s: float = 0.0
    failure_threshold: int = 1
    restart_base_s: float = 0.05
    restart_max_s: float = 2.0
    heartbeat_interval_s: float = 0.25
    max_redispatch: int = 3

    def __post_init__(self) -> None:
        if self.stall_budget_s <= 0:
            raise ValueError("stall_budget_s must be positive")
        if self.hedge_delay_s < 0:
            raise ValueError("hedge_delay_s must be non-negative")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.restart_base_s < 0 or self.restart_max_s < 0:
            raise ValueError("restart backoffs must be non-negative")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.max_redispatch < 0:
            raise ValueError("max_redispatch must be non-negative")
        for name, budget in self.tier_stall_budget_s.items():
            if budget <= 0:
                raise ValueError(f"stall budget for tier {name!r} must be > 0")

    def stall_budget_for(self, tiers) -> float:
        """Effective stall budget for a batch: tightest tier wins."""
        budgets = [
            self.tier_stall_budget_s.get(t, self.stall_budget_s) for t in tiers
        ]
        return min(budgets) if budgets else self.stall_budget_s

    @property
    def restart_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=0,
            base_delay_s=self.restart_base_s,
            max_delay_s=self.restart_max_s,
        )

    @classmethod
    def from_section(cls, section) -> "ReplicaPoolConfig":
        """Build from a spec ``ReplicaSection`` (milliseconds -> seconds)."""
        return cls(
            stall_budget_s=section.stall_budget_ms / 1e3,
            tier_stall_budget_s={
                name: ms / 1e3
                for name, ms in sorted(section.tier_stall_budget_ms.items())
            },
            hedge_delay_s=section.hedge_delay_ms / 1e3,
            failure_threshold=section.failure_threshold,
            restart_base_s=section.restart_backoff_ms / 1e3,
            restart_max_s=section.restart_max_backoff_ms / 1e3,
            heartbeat_interval_s=section.heartbeat_interval_ms / 1e3,
            max_redispatch=section.max_redispatch,
        )


class FaultyReplica:
    """Deterministic fault-injection wrapper around one replica engine.

    Schedules are expressed against the wrapper's own 1-based batch
    counter (one ``search_many`` call = one batch):

    * ``crash_batches`` — these batches raise :class:`ReplicaCrashError`
      (the engine "dies" mid-batch; a later dispatch after ``restart()``
      works again).
    * ``stall_batches`` — these batches hang forever (a
      :class:`BatchHold` with no reveal time); only the supervisor's
      stall budget frees the requests.
    * ``slow_batches`` — ``{batch_no: delay_s}``; results arrive
      ``delay_s`` after dispatch (the hedging target).
    * ``fail_pings`` — these 1-based heartbeat probes raise.
    * ``spec`` — optionally derive the schedule from a seeded
      :class:`~repro.faults.plan.FaultSpec` instead: transient/corrupt
      injections crash the batch, stall injections stall it, latency
      injections slow it by the spec's ``latency_s``.

    The wrapper is transparent otherwise: a batch is one ``search_many``
    call on the wrapped engine, per-request deadlines included, so a
    fault-free batch is bit-identical to the unwrapped engine.
    """

    #: Keeps Replica from unwrapping the wrapper away via ``.engine``.
    is_replica_wrapper = True

    def __init__(
        self,
        engine,
        crash_batches=(),
        stall_batches=(),
        slow_batches=None,
        fail_pings=(),
        spec: FaultSpec | None = None,
    ) -> None:
        self.engine = getattr(engine, "engine", engine)
        self.crash_batches = frozenset(int(b) for b in crash_batches)
        self.stall_batches = frozenset(int(b) for b in stall_batches)
        self.slow_batches = {
            int(b): float(s) for b, s in (slow_batches or {}).items()
        }
        self.fail_pings = frozenset(int(p) for p in fail_pings)
        self._plan = (
            FaultPlan(spec, sleep=self._collect_delay)
            if spec is not None and spec.active
            else None
        )
        self._collected: list[float] = []
        self.batches = 0
        self.pings = 0
        self.restarts = 0
        self.crashes = 0

    def _collect_delay(self, seconds: float) -> None:
        # FaultPlan "sleeps" for latency/stall injections; collect the
        # duration instead so the wrapper never blocks — the supervisor
        # models the delay on the server clock via BatchHold.
        self._collected.append(float(seconds))

    def _consult_plan(self, batch_no: int):
        """Map one FaultPlan decision onto (crash | stall | delay | ok)."""
        if self._plan is None:
            return None
        self._collected.clear()
        stalls_before = self._plan.counters["stall"]
        try:
            self._plan.on_read(batch_no)
        except (TransientIOError, CorruptPageError) as exc:
            raise ReplicaCrashError(
                f"injected replica crash on batch {batch_no}: {exc}"
            ) from exc
        if self._plan.counters["stall"] > stalls_before:
            return BatchHold(None, None)
        if self._collected:
            return BatchHold(sum(self._collected), None)
        return None

    def search_many(self, queries, k, deadline=None):
        self.batches += 1
        batch_no = self.batches
        if batch_no in self.crash_batches:
            self.crashes += 1
            raise ReplicaCrashError(
                f"injected replica crash on batch {batch_no}"
            )
        if batch_no in self.stall_batches:
            return BatchHold(None, None)
        delay = self.slow_batches.get(batch_no)
        planned = self._consult_plan(batch_no)
        if planned is not None and planned.delay_s is None:
            return planned
        if planned is not None and delay is None:
            delay = planned.delay_s
        results = self.engine.search_many(queries, k, deadline=deadline)
        if delay is not None:
            return BatchHold(delay, results)
        return results

    def search(self, query, k):
        return self.engine.search(query, k)

    def ping(self) -> None:
        self.pings += 1
        if self.pings in self.fail_pings:
            raise ReplicaCrashError(f"injected ping failure #{self.pings}")

    def restart(self) -> None:
        self.restarts += 1
        inner = getattr(self.engine, "restart", None)
        if inner is not None:
            inner()


class _Future:
    """Completion box for one parallel-mode dispatch."""

    __slots__ = ("event", "results", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.results: list[SearchResult] | None = None
        self.error: BaseException | None = None


@dataclass
class _InFlight:
    """One dispatched batch awaiting completion on a replica."""

    pendings: list[_Pending]
    k: int
    dispatch_t: float
    batch_size: int
    stall_budget_s: float
    is_hedge: bool = False
    #: Sync protocol: results held until ``dispatch_t + hold.delay_s``.
    hold: BatchHold | None = None
    #: Parallel protocol: fulfilled by the worker thread.
    future: _Future | None = None

    def ready_at(self) -> float | None:
        if self.hold is not None and self.hold.delay_s is not None:
            return self.dispatch_t + self.hold.delay_s
        return None

    def stall_deadline(self) -> float:
        return self.dispatch_t + self.stall_budget_s


class Replica:
    """Pool-internal state for one engine replica."""

    def __init__(self, index: int, engine, config: ReplicaPoolConfig) -> None:
        self.index = index
        self.name = str(index)
        if getattr(engine, "is_replica_wrapper", False):
            self.target = engine
            inner = engine.engine
        else:
            self.target = getattr(engine, "engine", engine)
            inner = self.target
        self.per_query_deadlines = isinstance(inner, QueryEngine)
        self.breaker = CircuitBreaker(
            BreakerConfig(
                failure_threshold=config.failure_threshold,
                reset_timeout_s=config.restart_base_s,
            ),
        )
        self.inflight: _InFlight | None = None
        #: Consecutive quarantines (resets on recovery) — backoff index.
        self.open_count = 0
        #: Absolute cool-down end of the current quarantine.
        self.retry_at = 0.0
        self.needs_restart = False
        self.last_beat = 0.0
        self.crashes = 0
        self.stalls = 0
        self.restarts = 0

    @property
    def state(self) -> str:
        return self.breaker.state

    @property
    def healthy(self) -> bool:
        return self.breaker.state == CLOSED

    def available(self, clock_now: float) -> bool:
        """Idle and the breaker would admit a dispatch right now."""
        if self.inflight is not None:
            return False
        return self.breaker.would_allow()


class ReplicaPool:
    """N supervised engine replicas behind one admission queue.

    Hand the pool to :class:`~repro.serve.server.Server` in place of an
    engine; the server keeps admission/SLA/batching and routes dispatch
    here.  All supervision decisions run on the server's clock — no real
    time, no sleeps of its own.

    Args:
        engines: the replicas.  Build them identically (same spec/seed)
            and failover is bit-identical; wrap any of them in
            :class:`FaultyReplica` for deterministic chaos.
        config: supervision parameters.
        parallel: run each dispatch on a worker thread (real clock
            only) so replicas genuinely overlap — the serving-throughput
            mode.  The default (sync) mode dispatches inline on the
            pumping thread, which is what makes ``ManualClock`` tests
            deterministic.
    """

    is_replica_pool = True

    def __init__(
        self,
        engines,
        config: ReplicaPoolConfig | None = None,
        parallel: bool = False,
    ) -> None:
        engines = list(engines)
        if not engines:
            raise ValueError("a replica pool needs at least one engine")
        self.config = config or ReplicaPoolConfig()
        self.parallel = parallel
        self.replicas = [
            Replica(i, engine, self.config) for i, engine in enumerate(engines)
        ]
        self._server = None
        self._unhealthy_since: float | None = None

    # ------------------------------------------------------------------
    # Server protocol
    # ------------------------------------------------------------------
    def bind(self, server) -> None:
        from repro.serve.clock import RealClock

        if self.parallel and not isinstance(server.clock, RealClock):
            raise TypeError(
                "a parallel ReplicaPool needs a RealClock; use the sync "
                "pool (parallel=False) with ManualClock in tests"
            )
        self._server = server
        now = server.clock.now()
        for replica in self.replicas:
            replica.breaker._clock = server.clock.now
            replica.last_beat = now
            self._gauge_state(replica)
        self._gauge_healthy()

    def has_inflight(self) -> bool:
        return any(r.inflight is not None for r in self.replicas)

    def close(self) -> None:
        """Final drain guard (the executor's stop already force-pumped)."""
        if self._server is None:
            return
        if self._server._pending or self.has_inflight():
            self.pump(self._server, force=True)

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def pump(self, server, force: bool = False) -> int:
        """One supervision round; with ``force``, drain to completion.

        Force mode is the shutdown path: it keeps running passes —
        advancing the server clock to the next supervision event when a
        pass makes no progress — until every accepted request has been
        answered.  Termination is guaranteed: every pass either answers
        a ticket or moves toward one (backoffs are capped, re-dispatches
        are capped, brownout answers whatever remains).
        """
        served = 0
        while True:
            progress, n = self._pass(server, force)
            served += n
            if progress:
                continue
            if not force:
                return served
            if not server._pending and not self.has_inflight():
                return served
            delay = self.next_event_delay(server.clock.now())
            if delay is None:
                raise RuntimeError(
                    "replica pool wedged: work remains but no supervision "
                    "event is scheduled"
                )
            if self.parallel:
                with server._cond:
                    server._cond.wait(max(delay, 1e-4))
            else:
                # ManualClock.sleep *advances* time: the drain drives
                # the clock to the next stall/cool-down/reveal event.
                server.clock.sleep(max(delay, 0.0))

    def _pass(self, server, force: bool) -> tuple[bool, int]:
        progress = False
        served = 0

        n = self._poll(server)
        served += n
        progress = progress or n > 0

        progress = self._heartbeat(server) or progress
        progress = self._detect_stalls(server) or progress

        n = self._dispatch(server, force)
        served += n
        progress = progress or n > 0

        progress = self._hedge(server) or progress

        n = self._brownout(server)
        served += n
        progress = progress or n > 0
        return progress, served

    # -- completions ---------------------------------------------------
    def _poll(self, server) -> int:
        served = 0
        now = server.clock.now()
        for replica in self.replicas:
            inflight = replica.inflight
            if inflight is None:
                continue
            if inflight.future is not None:
                if not inflight.future.event.is_set():
                    continue
                replica.inflight = None
                if inflight.future.error is not None:
                    self._on_replica_failure(
                        server, replica, inflight, kind="crash"
                    )
                    continue
                served += self._complete(
                    server, replica, inflight, inflight.future.results
                )
            elif inflight.hold is not None:
                ready = inflight.ready_at()
                if ready is None or now < ready:
                    continue
                replica.inflight = None
                served += self._complete(
                    server, replica, inflight, inflight.hold.results
                )
        return served

    def _complete(self, server, replica, inflight, results) -> int:
        done_t = server.clock.now()
        answered = []
        won_any = False
        for pending, result in zip(inflight.pendings, results):
            pending.inflight -= 1
            won = server._finish_one(
                pending, result, inflight.dispatch_t, done_t,
                inflight.batch_size,
            )
            if won:
                won_any = True
                answered.append((pending, result))
        if inflight.is_hedge and won_any:
            self._count("serve_hedge_win_total")
        replica.breaker.record_success()
        self._after_transition(replica, done_t)
        server._observe_served(answered)
        return len(answered)

    # -- failure handling ----------------------------------------------
    def _on_replica_failure(self, server, replica, inflight, kind) -> None:
        """Quarantine a crashed/stalled replica and recover its work."""
        now = server.clock.now()
        if kind == "stall":
            replica.stalls += 1
            self._count_labeled(
                "serve_replica_stall_total", replica=replica.name
            )
        else:
            replica.crashes += 1
            self._count_labeled(
                "serve_replica_crash_total", replica=replica.name
            )
        self._count("serve_failover_total")
        replica.breaker.record_failure()
        self._after_transition(replica, now)
        if inflight is not None:
            self._recover(server, inflight)

    def _recover(self, server, inflight: _InFlight) -> None:
        """Re-enqueue a dead dispatch's requests (at-most-once intact)."""
        requeue: list[_Pending] = []
        degraded: list[_Pending] = []
        for pending in inflight.pendings:
            pending.inflight -= 1
            if pending.ticket.done:
                continue
            if pending.inflight > 0:
                # A hedge twin still carries this request; if it also
                # dies, *its* recovery pass re-enqueues.
                continue
            if pending.dispatches > self.config.max_redispatch:
                degraded.append(pending)
                continue
            self._count_tier("serve_redispatch_total", pending.tier)
            requeue.append(pending)
        server._requeue_front(requeue)
        if degraded:
            now = server.clock.now()
            answered = []
            for pending in degraded:
                result = _server_degraded_result(
                    pending.k, reason="replica_failure"
                )
                if server._finish_one(
                    pending, result, now, now, inflight.batch_size
                ):
                    answered.append((pending, result))
            server._observe_served(answered)

    def _after_transition(self, replica, now: float) -> None:
        """Re-sync gauges/backoff/recovery tracking after breaker moves."""
        if replica.state == OPEN:
            # Exponential cool-down: each consecutive quarantine doubles
            # the breaker's reset timeout (capped at restart_max_s).
            delay = self.config.restart_policy.delay_for(replica.open_count)
            replica.open_count += 1
            replica.retry_at = now + delay
            replica.breaker.config = dataclasses.replace(
                replica.breaker.config, reset_timeout_s=delay
            )
            replica.needs_restart = True
        elif replica.state == CLOSED:
            replica.open_count = 0
        self._gauge_state(replica)
        self._gauge_healthy(now)

    # -- heartbeats ----------------------------------------------------
    def _heartbeat(self, server) -> bool:
        now = server.clock.now()
        progress = False
        for replica in self.replicas:
            ping = getattr(replica.target, "ping", None)
            if ping is None or replica.inflight is not None:
                continue
            if now - replica.last_beat < self.config.heartbeat_interval_s:
                continue
            if not replica.available(now):
                continue
            replica.last_beat = now
            try:
                replica.breaker.allow()
                self._maybe_restart(replica)
                ping()
            except ReplicaCrashError:
                self._on_replica_failure(server, replica, None, kind="crash")
                progress = True
                continue
            was_unhealthy = not replica.healthy
            replica.breaker.record_success()
            self._after_transition(replica, now)
            progress = progress or (was_unhealthy and replica.healthy)
        return progress

    # -- stall detection -----------------------------------------------
    def _detect_stalls(self, server) -> bool:
        now = server.clock.now()
        progress = False
        for replica in self.replicas:
            inflight = replica.inflight
            if inflight is None or now < inflight.stall_deadline():
                continue
            if inflight.hold is not None and inflight.ready_at() is not None:
                continue  # slow but scheduled: _poll owns it
            # Escalation, not patience (shard-executor idiom): abandon
            # the dispatch — in parallel mode the daemon worker is left
            # behind and its late completion loses the ticket guard.
            replica.inflight = None
            self._on_replica_failure(server, replica, inflight, kind="stall")
            progress = True
        return progress

    # -- dispatch ------------------------------------------------------
    def _next_available(self, now: float):
        for replica in self.replicas:
            if replica.available(now):
                return replica
        return None

    def _maybe_restart(self, replica) -> None:
        """First use after cool-down: run the engine's restart hook."""
        if not replica.needs_restart:
            return
        replica.needs_restart = False
        replica.restarts += 1
        self._count_labeled(
            "serve_replica_restart_total", replica=replica.name
        )
        restart = getattr(replica.target, "restart", None)
        if restart is not None:
            restart()

    def _dispatch(self, server, force: bool) -> int:
        served = 0
        while True:
            now = server.clock.now()
            if self._next_available(now) is None:
                return served
            with server._cond:
                batch = server._take_batch(force)
            if not batch:
                return served
            batch_size = len(batch)
            server._record_batch(batch_size)
            answered, live = server._expire_split(batch)
            for pending, result in answered:
                server._finish_one(pending, result, now, now, batch_size)
                served += 1
            server._observe_served(answered)

            by_k: dict[int, list[_Pending]] = {}
            for pending in live:
                by_k.setdefault(pending.k, []).append(pending)
            leftovers: list[_Pending] = []
            for k, group in by_k.items():
                replica = self._next_available(server.clock.now())
                if replica is None:
                    leftovers.extend(group)
                    continue
                served += self._launch(server, replica, group, k, batch_size)
            leftovers.sort(key=lambda p: p.enqueue_t)
            server._requeue_front(leftovers)
            if leftovers:
                return served

    def _launch(
        self, server, replica, group, k, batch_size, is_hedge=False
    ) -> int:
        now = server.clock.now()
        replica.breaker.allow()  # OPEN->HALF_OPEN probe when cooled down
        self._maybe_restart(replica)
        self._gauge_state(replica)
        for pending in group:
            pending.dispatches += 1
            pending.inflight += 1
        inflight = _InFlight(
            pendings=group,
            k=k,
            dispatch_t=now,
            batch_size=batch_size,
            stall_budget_s=self.config.stall_budget_for(
                [p.tier for p in group]
            ),
            is_hedge=is_hedge,
        )
        queries = np.stack([p.query for p in group])
        deadlines = [p.deadline for p in group]
        if self.parallel:
            inflight.future = _Future()
            replica.inflight = inflight
            thread = threading.Thread(
                target=self._worker,
                args=(server, replica, inflight, queries, deadlines),
                name=f"repro-replica-{replica.name}",
                daemon=True,
            )
            thread.start()
            return 0
        try:
            out = run_engine_group(
                replica.target, replica.per_query_deadlines,
                queries, k, deadlines,
            )
        except ReplicaCrashError:
            self._on_replica_failure(server, replica, inflight, kind="crash")
            return 0
        if isinstance(out, BatchHold):
            inflight.hold = out
            replica.inflight = inflight
            return 0
        return self._complete(server, replica, inflight, out)

    def _worker(self, server, replica, inflight, queries, deadlines) -> None:
        future = inflight.future
        try:
            out = run_engine_group(
                replica.target, replica.per_query_deadlines,
                queries, inflight.k, deadlines,
            )
            if isinstance(out, BatchHold):
                if out.delay_s is None:
                    return  # hard stall: the budget frees the requests
                server.clock.sleep(out.delay_s)
                out = out.results
            future.results = out
        except BaseException as exc:  # noqa: BLE001 - routed to supervisor
            future.error = exc
        future.event.set()
        with server._cond:
            server._cond.notify_all()

    # -- hedging -------------------------------------------------------
    def _hedge(self, server) -> bool:
        if self.config.hedge_delay_s <= 0:
            return False
        now = server.clock.now()
        oldest: _Pending | None = None
        oldest_t = float("inf")
        for replica in self.replicas:
            inflight = replica.inflight
            if inflight is None or inflight.is_hedge:
                continue
            if now - inflight.dispatch_t < self.config.hedge_delay_s:
                continue
            for pending in inflight.pendings:
                if pending.hedged or pending.ticket.done:
                    continue
                if inflight.dispatch_t < oldest_t:
                    oldest, oldest_t = pending, inflight.dispatch_t
                break  # one hedge candidate per in-flight batch per pass
        if oldest is None:
            return False
        idle = self._next_available(now)
        if idle is None:
            return False
        oldest.hedged = True
        self._count("serve_hedge_total")
        self._launch(
            server, idle, [oldest], oldest.k, batch_size=1, is_hedge=True
        )
        return True

    # -- brownout ------------------------------------------------------
    def _brownout(self, server) -> int:
        """All replicas quarantined and cooling: degrade, don't hang."""
        now = server.clock.now()
        if self.has_inflight():
            return 0
        if any(
            r.state != OPEN or r.breaker.would_allow() for r in self.replicas
        ):
            return 0
        with server._cond:
            if not server._pending:
                return 0
            stranded = list(server._pending)
            server._pending.clear()
            server._gauge_depth(0)
        answered = []
        for pending in stranded:
            self._count_tier("serve_brownout_total", pending.tier)
            result = _server_degraded_result(pending.k, reason="brownout")
            if server._finish_one(pending, result, now, now, len(stranded)):
                answered.append((pending, result))
        server._observe_served(answered)
        return len(answered)

    # ------------------------------------------------------------------
    def next_event_delay(self, now: float) -> float | None:
        """Seconds until the nearest scheduled supervision event.

        Bounds the threaded dispatcher's wait and drives the force-drain
        clock; None means nothing is scheduled (fully idle and healthy,
        modulo heartbeats which only matter for ping-able targets).
        """
        events: list[float] = []
        for replica in self.replicas:
            inflight = replica.inflight
            if inflight is not None:
                ready = inflight.ready_at()
                if inflight.future is not None and inflight.future.event.is_set():
                    # Finished but not yet polled: its worker's notify may
                    # have come before the dispatcher began to wait.
                    events.append(now)
                elif ready is not None:
                    # Slow-but-scheduled: _poll owns it; its stall
                    # deadline is inert (listing it would pin the delay
                    # at zero once passed, without anyone acting on it).
                    events.append(ready)
                else:
                    events.append(inflight.stall_deadline())
                hedge_at = inflight.dispatch_t + self.config.hedge_delay_s
                if (
                    self.config.hedge_delay_s > 0
                    and not inflight.is_hedge
                    and hedge_at > now
                    and any(not p.hedged for p in inflight.pendings)
                ):
                    # A hedge already *due* is attempted every pass; only
                    # a future one needs a wake-up.
                    events.append(hedge_at)
            if replica.state == OPEN and replica.retry_at > now:
                events.append(replica.retry_at)
            if (
                replica.inflight is None
                and getattr(replica.target, "ping", None) is not None
                # A cooling replica's wake-up is its retry_at; listing
                # its (overdue, unserviceable) heartbeat here would pin
                # the delay at zero without _heartbeat ever being able
                # to act on it.
                and replica.breaker.would_allow()
            ):
                events.append(
                    replica.last_beat + self.config.heartbeat_interval_s
                )
        if not events:
            return None
        return max(0.0, min(events) - now)

    # ------------------------------------------------------------------
    # Pool health / metrics
    # ------------------------------------------------------------------
    @property
    def healthy_count(self) -> int:
        return sum(1 for r in self.replicas if r.healthy)

    @property
    def quarantined_count(self) -> int:
        return sum(1 for r in self.replicas if r.state == OPEN)

    def _gauge_state(self, replica) -> None:
        metrics = self._metrics()
        if metrics is None:
            return
        metrics.gauge(
            "serve_replica_state",
            "0 healthy / 1 probing / 2 quarantined",
            replica=replica.name,
        ).set(STATE_CODES[replica.state])

    def _gauge_healthy(self, now: float | None = None) -> None:
        healthy = self.healthy_count
        metrics = self._metrics()
        if metrics is not None:
            metrics.gauge(
                "serve_replicas_healthy", "replicas with a closed breaker"
            ).set(healthy)
        if now is None:
            return
        if healthy < len(self.replicas):
            if self._unhealthy_since is None:
                self._unhealthy_since = now
        elif self._unhealthy_since is not None:
            if metrics is not None:
                metrics.histogram(
                    "serve_recovery_seconds",
                    bounds=RECOVERY_BUCKETS,
                    help="first quarantine -> all replicas healthy again",
                ).observe(now - self._unhealthy_since)
            self._unhealthy_since = None

    def _metrics(self):
        return self._server.metrics if self._server is not None else None

    def _count(self, name: str) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(name).inc()

    def _count_labeled(self, name: str, **labels) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(name, **labels).inc()

    def _count_tier(self, name: str, tier: str) -> None:
        self._count_labeled(name, tier=tier)
