"""The resilience bundle threaded through engine and shard layers.

:class:`ResiliencePolicy` is the frozen, picklable configuration (it
rides inside :class:`~repro.shard.spec.ShardSpec`); each engine builds a
private :class:`ResilienceRuntime` from it, holding the mutable pieces —
retry counters, the circuit breaker, and the obs instruments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.faults.breaker import STATE_CODES, BreakerConfig, CircuitBreaker
from repro.faults.deadline import Deadline
from repro.faults.errors import is_breaker_fault
from repro.faults.retry import RetryPolicy, RetryState, run_with_retries

#: Bucket bounds for the retry-attempts histogram (attempts per I/O call).
RETRY_HISTOGRAM_BOUNDS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Picklable resilience configuration.

    Attributes:
        retry: bounded-retry policy for refinement I/O.
        breaker: circuit-breaker parameters (None disables the breaker).
        deadline_s: default per-query budget in seconds (None = no budget;
            a per-call deadline passed to ``search`` overrides it).
        degraded: when True, breaker-open / deadline-expired / exhausted
            I/O failures degrade to a cache-only answer instead of
            raising.  When False those errors propagate (strict mode).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    deadline_s: float | None = None
    degraded: bool = True

    def build(self, registry=None, clock=time.monotonic) -> "ResilienceRuntime":
        return ResilienceRuntime(self, registry=registry, clock=clock)


class ResilienceRuntime:
    """Mutable per-engine resilience state.

    Wraps every refinement I/O call with breaker gating + bounded
    retries and publishes counters/histograms/gauges into the given
    :class:`repro.obs.MetricsRegistry` (when one is attached).
    """

    def __init__(
        self, policy: ResiliencePolicy, registry=None, clock=time.monotonic
    ) -> None:
        self.policy = policy
        self.registry = registry
        self.retry_state = RetryState()
        self.breaker = (
            CircuitBreaker(
                policy.breaker, clock=clock, on_transition=self._on_transition
            )
            if policy.breaker is not None
            else None
        )
        self.degraded_counts: dict[str, int] = {}
        self._sleep = time.sleep

    # -- obs hooks ---------------------------------------------------------
    def _on_transition(self, state: str) -> None:
        if self.registry is None:
            return
        self.registry.gauge(
            "engine_breaker_state",
            help="Refinement-I/O breaker state (0=closed,1=half_open,2=open).",
        ).set(STATE_CODES[state])
        self.registry.counter(
            "engine_breaker_transitions_total",
            help="Breaker state transitions, by target state.",
            to=state,
        ).inc()

    def note_degraded(self, reason: str, queries: int = 1) -> None:
        """Record ``queries`` degraded answers attributed to ``reason``."""
        self.degraded_counts[reason] = self.degraded_counts.get(reason, 0) + queries
        if self.registry is not None:
            self.registry.counter(
                "engine_degraded_total",
                help="Queries answered in degraded (cache-only) mode.",
                reason=reason,
            ).inc(queries)

    def _observe_retries(self, before: dict) -> None:
        if self.registry is None:
            return
        after = self.retry_state.snapshot()
        retries = after["retries"] - before["retries"]
        if retries:
            self.registry.counter(
                "engine_io_retries_total",
                help="Refinement I/O retries issued.",
            ).inc(retries)
        self.registry.histogram(
            "engine_io_retry_attempts",
            bounds=RETRY_HISTOGRAM_BOUNDS,
            help=(
                "Retries per protected I/O call (0 = first try); a "
                "refine round is one call."
            ),
        ).observe(float(retries))

    # -- protected I/O -----------------------------------------------------
    def deadline(self, budget_s: float | None = None) -> Deadline:
        """Build a deadline from an explicit budget or the policy default."""
        if budget_s is None:
            budget_s = self.policy.deadline_s
        return Deadline(budget_s)

    def protected_call(self, fn, deadline: Deadline | None = None, progress=None):
        """Run one I/O operation under breaker + retry + deadline.

        ``progress`` goes to :func:`run_with_retries` (per-page budget).

        Raises:
            CircuitOpenError: breaker refused the call.
            DeadlineExceeded: the budget ran out before/while retrying.
            OSError: retries exhausted (breaker notified).
        """
        if deadline is not None:
            deadline.check("io")
        if self.breaker is not None:
            self.breaker.allow()
        before = self.retry_state.snapshot()
        try:
            result = run_with_retries(
                fn,
                self.policy.retry,
                state=self.retry_state,
                deadline=deadline,
                sleep=self._sleep,
                progress=progress,
            )
        except BaseException as exc:
            if self.breaker is not None and is_breaker_fault(exc):
                self.breaker.record_failure()
            self._observe_retries(before)
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        self._observe_retries(before)
        return result


def protected_fetcher(
    fetch, runtime: ResilienceRuntime | None, deadline: Deadline | None = None
):
    """The refine I/O callable: ``fetch`` itself, or guarded per round.

    With a runtime or a deadline, each call (one multi-step round)
    checks the deadline and makes one ``fetch`` call under the breaker
    and bounded retries.  The retry budget restarts whenever a failed
    attempt charged new pages (the tracker's ``page_reads``), so a round
    is masked exactly as reading its points one call each would be.
    """
    if runtime is None and deadline is None:
        return fetch

    def guarded(point_ids, tracker=None):
        if runtime is None:
            deadline.check("refine")
            return fetch(point_ids, tracker)
        return runtime.protected_call(
            lambda: fetch(point_ids, tracker),
            deadline,
            progress=None if tracker is None else lambda: tracker.page_reads,
        )

    return guarded
