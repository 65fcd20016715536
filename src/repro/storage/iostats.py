"""I/O accounting primitives for the simulated disk."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class IOStats:
    """Cumulative I/O counters for a simulated disk.

    Attributes:
        page_reads: number of page-granular reads issued to the device.
        point_fetches: number of point records requested by callers (several
            fetches may share a page within one query, see QueryIOTracker).
    """

    page_reads: int = 0
    point_fetches: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.page_reads = 0
        self.point_fetches = 0

    def snapshot(self) -> "IOStats":
        """Return a copy of the current counters."""
        return IOStats(self.page_reads, self.point_fetches)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since ``earlier`` was snapshot."""
        return IOStats(
            self.page_reads - earlier.page_reads,
            self.point_fetches - earlier.point_fetches,
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            self.page_reads + other.page_reads,
            self.point_fetches + other.point_fetches,
        )


@dataclass
class QueryIOTracker:
    """Per-query view of page reads.

    The OS page cache is disabled in the paper's setup, but *within* one
    query, a page read once stays available: fetching two candidates that
    live on the same 4 KB page costs one read.  A fresh tracker is created
    for every query; it deduplicates page ids for the lifetime of the query
    only.
    """

    pages_seen: set[int] = field(default_factory=set)
    page_reads: int = 0
    point_fetches: int = 0

    def needs_read(self, page_id: int) -> bool:
        """Record an access to ``page_id``; True if it costs a device read."""
        if page_id in self.pages_seen:
            return False
        self.pages_seen.add(page_id)
        self.page_reads += 1
        return True

    def needs_reads(self, page_ids: Iterable[int]) -> int:
        """Record accesses to ``page_ids``; returns how many cost a read.

        Equivalent to calling :meth:`needs_read` on each page in turn: a
        page repeated within ``page_ids`` costs one read, and a page
        already seen by this query costs none.
        """
        before = len(self.pages_seen)
        self.pages_seen.update(page_ids)
        charged = len(self.pages_seen) - before
        self.page_reads += charged
        return charged
