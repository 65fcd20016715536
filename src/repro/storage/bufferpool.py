"""An OS-style page buffer pool (the cache the paper switched *off*).

The paper's experiments disable the OS page cache so that its semantic
cache is measured in isolation.  This module provides the thing that was
disabled: a cross-query LRU cache of raw 4 KB pages.  Attach one to a
``PointFile`` to ask the counterfactual question — *how much of the win
would a plain page cache have delivered?* — and to demonstrate why the
answer is "much less per byte": a page buffers whole records (every bit
of every coordinate), while the paper's cache stores tau-bit codes and
therefore covers ``32/tau`` times more points per byte, plus pruning.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.storage.iostats import QueryIOTracker


@dataclass(frozen=True)
class BufferPoolStats:
    """Aggregate page-access counters of a buffer pool."""

    hits: int
    misses: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """Cross-query LRU cache of disk pages.

    Args:
        capacity_bytes: pool budget.
        page_size: bytes per page (must match the disk's).
    """

    def __init__(self, capacity_bytes: int, page_size: int = 4096) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def used_bytes(self) -> int:
        return self.num_pages * self.page_size

    def access(self, page_id: int) -> bool:
        """Record an access; True when the page was resident (no I/O)."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity_pages <= 0:
            return False
        if len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
        self._pages[page_id] = None
        return False

    def stats(self) -> BufferPoolStats:
        return BufferPoolStats(hits=self.hits, misses=self.misses)


class BufferedPointFile:
    """A ``PointFile`` wrapper that routes page reads through a pool.

    Page reads absorbed by the pool cost no device I/O; misses are charged
    to the underlying tracker as usual.
    """

    def __init__(self, point_file, pool: BufferPool) -> None:
        if pool.page_size != point_file.disk.config.page_size:
            raise ValueError("pool page size must match the disk's")
        self.point_file = point_file
        self.pool = pool

    @property
    def points(self):
        return self.point_file.points

    def fetch(self, point_ids, tracker: QueryIOTracker | None = None):
        """Read records through the pool, validated like ``PointFile.fetch``."""
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        pages = self.point_file.pages_of(ids)
        misses = [page for page in pages.tolist() if not self.pool.access(page)]
        disk = self.point_file.disk
        disk.read_pages(np.asarray(misses, dtype=np.int64), tracker)
        disk.stats.point_fetches += len(ids)
        if tracker is not None:
            tracker.point_fetches += len(ids)
        return self.point_file.points[ids]

    def fetch_one(self, point_id: int, tracker: QueryIOTracker | None = None):
        return self.fetch([point_id], tracker)[0]
