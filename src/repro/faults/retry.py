"""Bounded retries with exponential backoff and deterministic jitter."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.faults.errors import is_retryable


@dataclass(frozen=True)
class RetryPolicy:
    """Picklable retry configuration.

    Attributes:
        max_retries: extra attempts after the first (0 disables retries).
            Set it >= the fault plan's ``max_consecutive`` and bounded
            retries are guaranteed to mask every transient injection
            (per page, given ``progress`` in :func:`run_with_retries`).
        base_delay_s: backoff before the first retry; doubles each retry.
        max_delay_s: backoff ceiling.
        jitter: fraction of the backoff added as *deterministic* jitter —
            derived by hashing the attempt number, not from a global RNG,
            so two runs of the same workload sleep identically.
    """

    max_retries: int = 2
    base_delay_s: float = 0.0
    max_delay_s: float = 0.1
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_for(self, retry_index: int) -> float:
        """Backoff (seconds) before retry number ``retry_index`` (0-based)."""
        delay = min(self.base_delay_s * (2.0**retry_index), self.max_delay_s)
        if delay and self.jitter:
            # Weyl-sequence fraction of the retry index: deterministic,
            # equidistributed, and independent of any global RNG state.
            frac = (retry_index * 0.6180339887498949) % 1.0
            delay *= 1.0 + self.jitter * frac
        return delay


class RetryState:
    """Mutable retry counters (one per engine, feeds the obs histogram)."""

    def __init__(self) -> None:
        self.calls = 0
        self.retried_calls = 0
        self.retries = 0
        self.exhausted = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "calls": self.calls,
            "retried_calls": self.retried_calls,
            "retries": self.retries,
            "exhausted": self.exhausted,
        }


def run_with_retries(
    fn,
    policy: RetryPolicy,
    state: RetryState | None = None,
    deadline=None,
    sleep=time.sleep,
    progress=None,
):
    """Call ``fn()`` under ``policy``, retrying retryable failures.

    Non-retryable errors (``PageRangeError``, policy signals) propagate
    immediately.  When the budget is exhausted the *last* error
    propagates.  ``deadline`` (a :class:`~repro.faults.deadline.Deadline`)
    is checked before each retry sleep so a stalled read cannot overrun
    the query budget by the whole backoff schedule.

    ``progress`` (optional) returns a count that grows as ``fn`` gets
    work done, e.g. the query tracker's ``page_reads``.  A failure after
    more progress than the previous one restarts the budget and the
    backoff: ``max_retries`` bounds back-to-back failures of one page.
    """
    if state is not None:
        state.calls += 1
    mark = progress() if progress is not None else 0
    attempt = 0
    retried = False
    while True:
        try:
            result = fn()
        except BaseException as exc:  # noqa: BLE001 - reclassified below
            if not is_retryable(exc):
                raise
            if progress is not None and progress() > mark:
                mark = progress()
                attempt = 0
            if attempt >= policy.max_retries:
                if state is not None:
                    state.exhausted += 1
                raise
            if deadline is not None:
                deadline.check()
            if state is not None:
                if not retried:
                    state.retried_calls += 1
                state.retries += 1
            retried = True
            delay = policy.delay_for(attempt)
            if delay > 0:
                sleep(delay)
            attempt += 1
            continue
        return result
