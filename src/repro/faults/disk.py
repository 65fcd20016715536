"""A fault-injecting wrapper over :class:`~repro.storage.disk.SimulatedDisk`.

``FaultyDisk`` is a drop-in stand-in for the simulated device: it
delegates configuration, accounting and range bookkeeping to the wrapped
disk and consults a :class:`~repro.faults.plan.FaultPlan` on every page read
*before* the read is charged.  A retried read therefore charges exactly
once — the invariant behind the differential (bit-identical) guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.iostats import IOStats, QueryIOTracker


class FaultyDisk:
    """Injects scheduled faults in front of a real simulated device.

    Args:
        inner: the device actually charged for successful reads.
        plan: fault schedule, or a spec to build one from.
        registry: optional :class:`repro.obs.MetricsRegistry`; when given,
            each injection increments ``fault_injected_total{kind=...}``.
    """

    def __init__(
        self,
        inner: SimulatedDisk,
        plan: FaultPlan | FaultSpec,
        registry=None,
    ) -> None:
        self.inner = inner
        self.plan = plan.build() if isinstance(plan, FaultSpec) else plan
        self._registry = registry

    # -- delegated surface -------------------------------------------------
    @property
    def config(self) -> DiskConfig:
        return self.inner.config

    @property
    def stats(self) -> IOStats:
        return self.inner.stats

    @property
    def n_pages(self) -> int | None:
        return self.inner.n_pages

    def extend_pages(self, n_pages: int) -> None:
        self.inner.extend_pages(n_pages)

    def modeled_time(self, page_reads: int | None = None) -> float:
        return self.inner.modeled_time(page_reads)

    def reset(self) -> None:
        self.inner.reset()

    # -- faulting read path ------------------------------------------------
    def new_epoch(self) -> None:
        """Re-arm per-page triggers (delegates to the plan)."""
        self.plan.new_epoch()

    def read_page(self, page_id: int, tracker: QueryIOTracker | None = None) -> None:
        """Charge one read, possibly injecting a scheduled fault first.

        Range validation happens up front (an invalid request must raise
        :class:`~repro.storage.disk.PageRangeError`, never a retryable
        injection), then the plan may sleep or raise, and only a
        surviving attempt reaches the inner device's accounting.
        """
        n = self.inner.n_pages
        if page_id < 0 or (n is not None and page_id >= n):
            # Delegate so the error is raised (and typed) by the device.
            self.inner.read_page(page_id, tracker)
            return
        # Peek (don't mark): a page already read within this query costs
        # nothing and must not consume fault-schedule attempts.  Marking
        # and charging stay fused inside the inner device, so a failed
        # attempt leaves both untouched and the retry charges once.
        if tracker is not None and page_id in tracker.pages_seen:
            return
        before = dict(self.plan.counters)
        try:
            self.plan.on_read(page_id)
        finally:
            if self._registry is not None:
                for kind, count in self.plan.counters.items():
                    delta = count - before.get(kind, 0)
                    if delta:
                        self._registry.counter(
                            "fault_injected_total",
                            help="Faults injected by FaultyDisk, by kind.",
                            kind=kind,
                        ).inc(delta)
        self.inner.read_page(page_id, tracker)

    def read_pages(self, page_ids, tracker: QueryIOTracker | None = None) -> None:
        """Charge reads of ``page_ids`` one page at a time, in order.

        The plan is consulted per page exactly as a :meth:`read_page`
        loop would, so a fault schedule lands on the same page whether a
        caller reads one page or a whole fetch at once.
        """
        for page_id in np.asarray(page_ids, dtype=np.int64).ravel().tolist():
            self.read_page(page_id, tracker)
