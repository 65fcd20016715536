"""Per-query / per-batch time budgets enforced at phase boundaries."""

from __future__ import annotations

import time

from repro.faults.errors import DeadlineExceeded


class Deadline:
    """A wall-clock budget checked at cheap, well-defined points.

    The engine checks the deadline at phase boundaries (generate ->
    reduce -> refine), before each refine round's fetch and before each
    retry sleep; it never interrupts a round mid-flight, so an expiring
    budget can overrun by at most one round's reads.  A ``None`` budget
    is the common case and every check short-circuits.

    Args:
        budget_s: seconds allowed, or None for unlimited.
        clock: injectable monotonic clock (tests advance it manually).
    """

    def __init__(self, budget_s: float | None, clock=time.monotonic) -> None:
        if budget_s is not None and budget_s < 0:
            raise ValueError("budget_s must be non-negative")
        self.budget_s = budget_s
        self._clock = clock
        self._start = clock() if budget_s is not None else 0.0

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    @property
    def expired(self) -> bool:
        if self.budget_s is None:
            return False
        return self._clock() - self._start >= self.budget_s

    def remaining_s(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at 0)."""
        if self.budget_s is None:
            return float("inf")
        return max(0.0, self.budget_s - (self._clock() - self._start))

    def elapsed_s(self) -> float:
        """Seconds since the budget's clock started (0 when unlimited).

        The start is construction time — for a served request that is
        *admission*, so queue wait shows up here before any phase runs.
        """
        if self.budget_s is None:
            return 0.0
        return self._clock() - self._start

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget ran out."""
        if self.expired:
            suffix = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"query budget of {self.budget_s * 1e3:.1f} ms exhausted{suffix}"
            )
