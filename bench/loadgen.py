"""Seeded closed-loop load against a ``repro.serve.Server``.

The loop runs on the calling thread, the benchmark's one generator
thread; the server's dispatcher (and, for a replica pool, its worker
threads) serve the requests.  ``clients`` reads are outstanding at all
times: a client sends its next read as soon as its previous one
completes.  Mutations ride along at fixed points of the read stream,
through the server's fenced mutation path, without taking a client
slot.  Every request keeps its own record, and every metric is computed
from these records afterwards.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: A request unanswered this long after it was sent counts as failed.
TIMEOUT_S = 10.0
#: How long the loop blocks on its oldest ticket between sweeps.  A
#: single engine completes in order, so the wait usually ends as the
#: oldest read completes; a replica pool can finish a younger batch
#: first, and its slots are refilled within this much.
POLL_S = 0.01


@dataclass
class Request:
    """One read or mutation sent to the server, and what came back."""

    rid: int
    kind: str  # "read" | "insert" | "delete" | "fence"
    #: the query of a read, the rows of an insert, the ids of a delete
    payload: np.ndarray | None = None
    apply: Callable | None = None
    #: just before and just after ``submit`` (the server stamps its
    #: admission time between the two)
    sent: float = 0.0
    accepted: float = 0.0
    #: how long the client slot was free before this read refilled it
    lag_s: float = 0.0
    ticket: object = None
    response: object = None
    #: None, or why the request failed: shed, degraded, timeout,
    #: error: ..., wrong (set by the oracle check)
    failure: str | None = None

    @property
    def latency_s(self) -> float:
        """Admission to completion; the timeout for a failed request."""
        if self.failure is not None or self.response is None:
            return TIMEOUT_S
        return self.response.latency_s

    @property
    def done_at(self) -> float:
        """Completion time, at most ``accepted - sent`` late."""
        return self.accepted + self.response.latency_s


@dataclass
class Window:
    """The requests of one measured window and what the window cost."""

    records: list[Request]
    start: float
    end: float
    cpu_s: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def reads(self) -> list[Request]:
        return [r for r in self.records if r.kind == "read"]

    @property
    def writes(self) -> list[Request]:
        return [r for r in self.records if r.kind != "read"]


def finish(rec: Request, response) -> None:
    """Store the response; shed and degraded answers are failures."""
    rec.response = response
    if rec.failure is not None:
        return
    if response.overloaded is not None:
        rec.failure = "shed"
    elif rec.kind == "read" and (response.result is None or response.degraded):
        rec.failure = "degraded"


def _guarded(rec: Request) -> Callable:
    """The mutation callable, noting an exception on the record."""

    def apply():
        try:
            rec.apply()
        except Exception as exc:
            rec.failure = f"error: {type(exc).__name__}: {exc}"
            raise

    return apply


def closed_loop(server, next_query, clients: int, seconds: float,
                min_requests: int, writes=None, clock=time.monotonic) -> Window:
    """Keep ``clients`` reads outstanding until ``seconds`` have passed
    and at least ``min_requests`` reads were sent; then wait for the rest.

    ``next_query(i)`` returns the query of the i-th read.  ``writes(i)``,
    if given, returns ``(kind, payload, apply)`` mutations to send right
    after the i-th read.
    """
    records: list[Request] = []
    inflight: list[Request] = []
    n_reads = 0
    cpu0 = time.process_time()
    start = clock()
    freed = deque([start] * clients)
    while True:
        while freed and (clock() - start < seconds or n_reads < min_requests):
            slot_freed = freed.popleft()
            rec = Request(len(records), "read", payload=next_query(n_reads))
            rec.sent = clock()
            rec.lag_s = rec.sent - slot_freed
            rec.ticket = server.submit(rec.payload)
            rec.accepted = clock()
            records.append(rec)
            inflight.append(rec)
            for kind, payload, apply in writes(n_reads) if writes else ():
                write = Request(len(records), kind, payload=payload, apply=apply)
                write.sent = clock()
                write.ticket = server.submit_mutation(_guarded(write))
                write.accepted = clock()
                records.append(write)
                inflight.append(write)
            n_reads += 1
        if not inflight:
            break
        waiting = []
        for rec in inflight:
            if rec.ticket.done:
                finish(rec, rec.ticket.response)
                if rec.kind == "read":
                    freed.append(rec.done_at)
            elif clock() - rec.sent > TIMEOUT_S:
                rec.failure = rec.failure or "timeout"
                if rec.kind == "read":
                    freed.append(clock())
            else:
                waiting.append(rec)
        if len(waiting) == len(inflight):
            try:
                waiting[0].ticket.wait(POLL_S)
            except TimeoutError:
                pass
        inflight = waiting
    return Window(records, start, clock(), time.process_time() - cpu0)
