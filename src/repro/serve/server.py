"""The long-lived serving front end over the query engines.

``Server`` owns an engine (a :class:`~repro.engine.engine.QueryEngine`,
a :class:`~repro.shard.ShardedEngine`, or any pipeline exposing
``.engine``), a bounded request queue with admission control, and a
dynamic micro-batcher that coalesces concurrently waiting requests into
one ``search_many`` call — amortizing the per-batch cache probe and
kernel table build the same way the offline batched path does.

Guarantees:

* **bit-identity** — a request served through the micro-batcher returns
  exactly the ids/distances/exact_mask that ``engine.search`` would have
  returned for the same query (the engine's batched path already proves
  this; the differential suite re-proves it through the queue).
* **typed admission** — a ``submit`` past ``max_queue_depth`` completes
  immediately with an :class:`Overloaded` outcome; nothing is silently
  dropped.
* **SLA budgets start at admission** — each tier's
  :class:`~repro.faults.deadline.Deadline` is created when the request
  is accepted, on the server's clock, so queue wait is charged against
  the per-query budget.  A request that expires while queued is answered
  with a degraded (certified-incomplete) result without touching the
  engine.
* **determinism** — all timing decisions read the injected
  :class:`~repro.serve.clock.Clock`; with a ``ManualClock`` and the
  inline executor every flush/reject/expiry decision is reproducible
  without sleeps.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.engine.engine import QueryEngine
from repro.engine.stats import QueryStats, SearchResult
from repro.faults.deadline import Deadline
from repro.faults.degrade import degraded_answer
from repro.faults.errors import DeadlineExceeded
from repro.serve.clock import Clock, RealClock
from repro.serve.config import ServeConfig
from repro.serve.executors import InlineExecutor

#: Batch-size histogram buckets (requests per flush).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class Overloaded:
    """Typed admission-control rejection (queue past its depth bound)."""

    queue_depth: int
    max_depth: int
    tier: str


@dataclass(frozen=True)
class ServeResponse:
    """The served outcome of one submitted request.

    Exactly one of ``result`` / ``overloaded`` is set.  ``queue_wait_s``
    is admission -> dispatch; ``latency_s`` is admission -> completion
    (what a client observes); ``batch_size`` is how many requests were
    coalesced into the flush that served this one.
    """

    tier: str
    result: SearchResult | None = None
    overloaded: Overloaded | None = None
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        """Accepted and served (possibly degraded; see ``degraded``)."""
        return self.overloaded is None

    @property
    def degraded(self) -> bool:
        """Served but incomplete (deadline/fault degraded answer)."""
        return self.result is not None and not self.result.outcome.complete


class Ticket:
    """Handle to one submitted request; completed *at most once*.

    The completion guard is the at-most-once primitive the replica pool
    builds on: a request that was re-dispatched after a replica crash,
    or hedged onto a second replica, may see several completion
    attempts — the first wins, every later one is refused (and counted
    by the caller).  A ticket can therefore never be answered twice.
    """

    __slots__ = ("_event", "_lock", "_response")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._response: ServeResponse | None = None

    def try_complete(self, response: ServeResponse) -> bool:
        """Complete the ticket unless it already has a response.

        Returns True when this attempt won; False when a competing
        completion (hedge twin, late stalled batch) got there first.
        """
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
        self._event.set()
        return True

    def _complete(self, response: ServeResponse) -> None:
        self.try_complete(response)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def response(self) -> ServeResponse | None:
        """The response, or None while still queued/executing."""
        return self._response

    def wait(self, timeout: float | None = None) -> ServeResponse:
        """Block until served (threaded executor); inline tickets are
        already complete when the pump that served them returns."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not served within timeout")
        assert self._response is not None
        return self._response


@dataclass
class _Pending:
    """One queued request.

    ``dispatches`` counts how many times the request went out to an
    engine/replica (re-dispatches after a crash and hedge duplicates
    included); ``inflight`` counts how many *live* dispatches currently
    hold it (a hedged request is held by two); ``hedged`` marks that a
    hedge twin was already issued.  All three are replica-pool
    bookkeeping; the single-engine path leaves them untouched.
    """

    ticket: Ticket
    query: np.ndarray
    k: int
    tier: str
    deadline: Deadline | None
    enqueue_t: float
    dispatches: int = 0
    inflight: int = 0
    hedged: bool = False
    #: visibility fence: a queued mutation (callable) instead of a query.
    #: Dispatched *alone*, strictly between micro-batches, so no batch
    #: ever straddles the mutation's visibility boundary.
    mutation: object | None = None


def _server_degraded_result(k: int, reason: str = "deadline") -> SearchResult:
    """An empty certified-incomplete answer for a request the server
    degraded itself (deadline expired before the engine ever ran, the
    replica pool browned out, or a request exhausted its re-dispatch
    budget).  The ``inf`` error bound is the honest certificate: no
    cached bounds were computed for this query."""
    ids, distances, exact_mask, outcome = degraded_answer(None, k, reason)
    return SearchResult(
        ids=ids,
        distances=distances,
        exact_mask=exact_mask,
        stats=QueryStats(0, 0, 0, 0, 0, 0, 0, 0),
        outcome=outcome,
    )


def run_engine_group(
    engine,
    per_query_deadlines: bool,
    queries: np.ndarray,
    k: int,
    deadlines: list[Deadline | None],
) -> list[SearchResult]:
    """Engine call for one same-k group, degrading on expiry.

    The batched call carries per-request deadlines when the engine
    supports them (``QueryEngine``).  If the engine *raises* on expiry
    (no degraded resilience policy), the group re-runs per-query so one
    late request cannot fail its batchmates; the per-query rerun returns
    the same answers by the engine's batched-equals-sequential
    guarantee.  Shared by the single-engine ``Server`` dispatch path and
    each pool ``Replica`` so both serve bit-identical answers.
    """
    try:
        if per_query_deadlines and any(d is not None for d in deadlines):
            return engine.search_many(queries, k, deadline=deadlines)
        return engine.search_many(queries, k)
    except DeadlineExceeded:
        results: list[SearchResult] = []
        for query, deadline in zip(queries, deadlines):
            if deadline is not None and deadline.expired:
                results.append(_server_degraded_result(k))
                continue
            try:
                if per_query_deadlines:
                    results.append(engine.search(query, k, deadline=deadline))
                else:
                    results.append(engine.search(query, k))
            except DeadlineExceeded:
                results.append(_server_degraded_result(k))
        return results


class Server:
    """Queue + admission control + dynamic micro-batching over an engine.

    Args:
        engine: the serving target.  A ``Pipeline`` is unwrapped to
            its ``.engine``; a
            ``QueryEngine`` additionally gets per-request deadlines
            threaded through its batched path, while other targets
            (e.g. ``ShardedEngine``) rely on the server's own
            admission-time and dispatch-time deadline checks.
        config: batching/admission/tier parameters.
        default_k: result size for requests that do not name one.
        clock: time source (default real time).  Use a ``ManualClock``
            with the inline executor for deterministic tests.
        metrics: optional ``repro.obs`` ``MetricsRegistry`` receiving
            the per-tier serve instruments (requests, rejects, degraded,
            queue depth, batch-size and wait/latency histograms).
        controller: optional ``repro.workload`` ``DriftController`` (or
            any object with ``observe(query, stats)``); every served
            query is observed *after* its batch completes, so retrains
            hot-swap the cache strictly between batches.
        executor: dispatch discipline; default inline (caller pumps).
            Pass ``ThreadedExecutor()`` for a background dispatcher.
    """

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
        default_k: int = 10,
        clock: Clock | None = None,
        metrics=None,
        controller=None,
        executor=None,
    ) -> None:
        if default_k <= 0:
            raise ValueError("default_k must be positive")
        self.config = config or ServeConfig()
        self.default_k = default_k
        self.clock = clock or RealClock()
        self.metrics = metrics
        self.controller = controller
        self._cond = threading.Condition()
        self._pending: deque[_Pending] = deque()
        self._mutations_queued = 0
        self._closed = False
        if getattr(engine, "is_replica_pool", False):
            # A ReplicaPool supervises its own engines; the server keeps
            # the queue/admission/SLA front end and routes dispatch to
            # the pool (see repro.serve.replica).
            self._pool = engine
            self._engine = None
            self._per_query_deadlines = False
            self._pool.bind(self)
        else:
            self._pool = None
            self._engine = getattr(engine, "engine", engine)
            self._per_query_deadlines = isinstance(self._engine, QueryEngine)
        self.executor = executor or InlineExecutor()
        self.executor.start(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting requests and drain everything still queued."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self.executor.stop()
        if self._pool is not None:
            self._pool.close()

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Submission / admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        tier: str | None = None,
    ) -> Ticket:
        """Enqueue one request; returns its :class:`Ticket`.

        Rejected requests (queue at ``max_queue_depth``) come back as an
        already-completed ticket carrying an :class:`Overloaded`
        response — admission control is a typed outcome, not an
        exception, so open-loop clients handle it like any reply.
        """
        sla = self.config.tier(tier)
        k = k if k is not None else self.default_k
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        ticket = Ticket()
        with self._cond:
            if self._closed:
                raise RuntimeError("server is closed")
            depth = len(self._pending)
            if depth >= self.config.max_queue_depth:
                self._count("serve_rejected_total", sla.name)
                ticket._complete(
                    ServeResponse(
                        tier=sla.name,
                        overloaded=Overloaded(
                            queue_depth=depth,
                            max_depth=self.config.max_queue_depth,
                            tier=sla.name,
                        ),
                    )
                )
                return ticket
            now = self.clock.now()
            deadline = (
                Deadline(sla.budget_s, clock=self.clock.now)
                if sla.budget_s is not None
                else None
            )
            self._pending.append(
                _Pending(ticket, query, k, sla.name, deadline, now)
            )
            self._gauge_depth(len(self._pending))
            self._cond.notify_all()
        return ticket

    def submit_mutation(self, apply, tier: str | None = None) -> Ticket:
        """Enqueue a mutation through the bounded queue (a fence ticket).

        ``apply`` is a zero-argument callable that performs the mutation
        (e.g. ``lambda: pipeline.insert(rows)``).  It is admitted under
        the same queue-depth bound as queries and dispatched **alone**,
        strictly between micro-batches: every query admitted before it is
        served against the pre-mutation state, every query admitted after
        it against the post-mutation state — no micro-batch ever
        straddles the visibility boundary.  The returned ticket completes
        when the mutation has been applied (``result`` stays ``None``).
        """
        if self._pool is not None:
            raise RuntimeError(
                "mutations are not supported over a replica pool"
            )
        if not callable(apply):
            raise TypeError("mutation must be callable")
        sla = self.config.tier(tier)
        ticket = Ticket()
        with self._cond:
            if self._closed:
                raise RuntimeError("server is closed")
            depth = len(self._pending)
            if depth >= self.config.max_queue_depth:
                self._count("serve_rejected_total", sla.name)
                ticket._complete(
                    ServeResponse(
                        tier=sla.name,
                        overloaded=Overloaded(
                            queue_depth=depth,
                            max_depth=self.config.max_queue_depth,
                            tier=sla.name,
                        ),
                    )
                )
                return ticket
            now = self.clock.now()
            self._pending.append(
                _Pending(
                    ticket,
                    np.empty(0, dtype=np.float64),
                    1,
                    sla.name,
                    None,
                    now,
                    mutation=apply,
                )
            )
            self._mutations_queued += 1
            self._gauge_depth(len(self._pending))
            self._cond.notify_all()
        return ticket

    def serve_one(
        self,
        query: np.ndarray,
        k: int | None = None,
        tier: str | None = None,
        timeout: float | None = None,
    ) -> ServeResponse:
        """Closed-loop convenience: submit and serve immediately.

        With the inline executor the whole queue (this request included)
        is flushed now; with a threaded executor this blocks until the
        dispatcher serves it.
        """
        ticket = self.submit(query, k=k, tier=tier)
        if ticket.done:  # rejected at admission
            return ticket.response
        if self.executor.inline:
            self.pump(force=True)
            return ticket.response
        return ticket.wait(timeout)

    # ------------------------------------------------------------------
    # Dispatch (micro-batching)
    # ------------------------------------------------------------------
    def pump(self, force: bool = False) -> int:
        """Flush every ready batch; returns the number of requests served.

        The dispatcher's inner loop: with ``force`` the flush conditions
        are ignored and the queue drains completely (in ``max_batch``
        sized flushes, preserving the batching invariant).
        """
        if self._pool is not None:
            return self._pool.pump(self, force)
        served = 0
        while True:
            with self._cond:
                batch = self._take_batch(force)
            if not batch:
                return served
            self._execute(batch)
            served += len(batch)

    def drain(self) -> int:
        """Serve everything currently queued, regardless of flush rules."""
        return self.pump(force=True)

    def _flush_ready(self, now: float) -> bool:
        """The micro-batcher's flush rule (caller holds the lock)."""
        if not self._pending:
            return False
        if self._mutations_queued:
            # A queued mutation flushes immediately: the fence (and the
            # queries FIFO-ahead of it) should not wait out max_wait_s.
            return True
        if len(self._pending) >= self.config.max_batch:
            return True
        return now - self._pending[0].enqueue_t >= self.config.max_wait_s

    def _take_batch(self, force: bool) -> list[_Pending]:
        """Pop up to ``max_batch`` oldest requests if a flush is due.

        A mutation fence is popped *alone*; a query batch stops short of
        the next fence — batches never straddle a visibility boundary.
        """
        if not self._pending:
            return []
        if not force and not self._flush_ready(self.clock.now()):
            return []
        if self._pending[0].mutation is not None:
            self._mutations_queued -= 1
            self._gauge_depth(len(self._pending) - 1)
            return [self._pending.popleft()]
        batch: list[_Pending] = []
        while (
            len(batch) < self.config.max_batch
            and self._pending
            and self._pending[0].mutation is None
        ):
            batch.append(self._pending.popleft())
        self._gauge_depth(len(self._pending))
        return batch

    def _time_to_flush_locked(self) -> float | None:
        """Seconds until the oldest request forces a flush (None: idle).

        The threaded dispatcher's wait timeout; 0.0 means flush now.
        Caller must hold ``self._cond``.
        """
        if not self._pending:
            return None
        if len(self._pending) >= self.config.max_batch:
            return 0.0
        waited = self.clock.now() - self._pending[0].enqueue_t
        return max(0.0, self.config.max_wait_s - waited)

    def _dispatch_wait_locked(self) -> float | None:
        """The threaded dispatcher's wake timeout (caller holds the lock).

        With a replica pool, supervision events (stall budgets, restart
        backoffs, hedge delays, slow-batch completions) also bound the
        wait — a stalled replica must be detected even when no new
        request ever arrives.
        """
        timeout = self._time_to_flush_locked()
        if self._pool is None:
            return timeout
        pool_timeout = self._pool.next_event_delay(self.clock.now())
        if timeout is None:
            return pool_timeout
        if pool_timeout is None:
            return timeout
        return min(timeout, pool_timeout)

    def _requeue_front(self, pendings: list[_Pending]) -> None:
        """Put recovered requests back at the *front* of the queue.

        Recovered requests keep their original ``enqueue_t`` (their SLA
        budget kept running while they were in flight), so they are the
        oldest waiters and flush first — failover preserves FIFO service
        order as closely as a failure allows.
        """
        if not pendings:
            return
        with self._cond:
            self._pending.extendleft(reversed(pendings))
            self._gauge_depth(len(self._pending))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _execute(self, batch: list[_Pending]) -> None:
        """Serve one flushed batch: expire, group by k, search, respond."""
        if len(batch) == 1 and batch[0].mutation is not None:
            self._execute_mutation(batch[0])
            return
        dispatch_t = self.clock.now()
        batch_size = len(batch)
        self._record_batch(batch_size)

        answered, live = self._expire_split(batch)

        # One search_many per distinct k (requests almost always share
        # the server default, so this is one engine call per flush).
        by_k: dict[int, list[_Pending]] = {}
        for pending in live:
            by_k.setdefault(pending.k, []).append(pending)
        for k, group in by_k.items():
            queries = np.stack([p.query for p in group])
            deadlines = [p.deadline for p in group]
            results = self._run_group(queries, k, deadlines)
            answered.extend(zip(group, results))

        done_t = self.clock.now()
        for pending, result in answered:
            self._finish_one(pending, result, dispatch_t, done_t, batch_size)
        self._observe_served(answered)

    def _execute_mutation(self, pending: _Pending) -> None:
        """Apply one fenced mutation between micro-batches.

        The ticket is completed even when the mutation raises (so no
        waiter hangs), then the error propagates to the pump's caller —
        the same discipline engine errors follow.
        """
        dispatch_t = self.clock.now()
        try:
            pending.mutation()
        except Exception:
            self._count("serve_mutation_failed_total", pending.tier)
            pending.ticket.try_complete(
                ServeResponse(
                    tier=pending.tier,
                    queue_wait_s=dispatch_t - pending.enqueue_t,
                    latency_s=self.clock.now() - pending.enqueue_t,
                    batch_size=1,
                )
            )
            raise
        done_t = self.clock.now()
        self._count("serve_mutations_total", pending.tier)
        pending.ticket.try_complete(
            ServeResponse(
                tier=pending.tier,
                queue_wait_s=dispatch_t - pending.enqueue_t,
                latency_s=done_t - pending.enqueue_t,
                batch_size=1,
            )
        )

    def _record_batch(self, batch_size: int) -> None:
        """Batch-size accounting for one flush (any dispatcher)."""
        self._histogram(
            "serve_batch_size", BATCH_SIZE_BUCKETS
        ).observe(batch_size)
        self._count_batch()

    def _expire_split(
        self, batch: list[_Pending]
    ) -> tuple[list[tuple[_Pending, SearchResult]], list[_Pending]]:
        """Split a flushed batch into (already-degraded answers, live).

        Requests whose SLA deadline expired while queued are answered
        with a certified-incomplete result without touching the engine.
        """
        answered: list[tuple[_Pending, SearchResult]] = []
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline.expired:
                self._count("serve_deadline_expired_total", pending.tier)
                answered.append(
                    (pending, _server_degraded_result(pending.k))
                )
            else:
                live.append(pending)
        return answered, live

    def _finish_one(
        self,
        pending: _Pending,
        result: SearchResult,
        dispatch_t: float,
        done_t: float,
        batch_size: int,
    ) -> bool:
        """Complete one request's ticket; record per-request metrics.

        Returns True when this completion won the ticket.  A losing
        completion (the request was already answered by a hedge twin or
        a recovered re-dispatch) is discarded *before* any per-request
        metric is recorded, so served counters never double-count.
        """
        wait_s = dispatch_t - pending.enqueue_t
        latency_s = done_t - pending.enqueue_t
        won = pending.ticket.try_complete(
            ServeResponse(
                tier=pending.tier,
                result=result,
                queue_wait_s=wait_s,
                latency_s=latency_s,
                batch_size=batch_size,
            )
        )
        if not won:
            self._count("serve_completion_discarded_total", pending.tier)
            return False
        self._count("serve_requests_total", pending.tier)
        if not result.outcome.complete:
            self._count("serve_degraded_total", pending.tier)
        self._histogram("serve_queue_wait_seconds").observe(wait_s)
        self._histogram(
            "serve_latency_seconds", tier=pending.tier
        ).observe(latency_s)
        return True

    def _observe_served(
        self, answered: list[tuple[_Pending, SearchResult]]
    ) -> None:
        """Feed served queries to the workload controller.

        Strictly after the batch completed, so a triggered retrain
        hot-swaps the cache *between* batches and no in-flight query
        ever sees a half-swapped engine.
        """
        if self.controller is None:
            return
        for pending, result in answered:
            self.controller.observe(pending.query, result.stats)

    def _run_group(
        self,
        queries: np.ndarray,
        k: int,
        deadlines: list[Deadline | None],
    ) -> list[SearchResult]:
        """Engine call for one same-k group, degrading on expiry."""
        return run_engine_group(
            self._engine, self._per_query_deadlines, queries, k, deadlines
        )

    # ------------------------------------------------------------------
    # Metrics plumbing (no-ops without a registry)
    # ------------------------------------------------------------------
    def _count(self, name: str, tier: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, tier=tier).inc()

    def _count_batch(self) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "serve_batches_total", "micro-batch flushes"
            ).inc()

    def _gauge_depth(self, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "serve_queue_depth", "requests waiting for dispatch"
            ).set(depth)

    def _histogram(self, name: str, bounds=None, **labels):
        if self.metrics is None:
            return _NULL_HISTOGRAM
        if bounds is not None:
            return self.metrics.histogram(name, bounds=bounds, **labels)
        return self.metrics.histogram(name, **labels)


class _NullHistogram:
    def observe(self, value: float) -> None:
        pass


_NULL_HISTOGRAM = _NullHistogram()
