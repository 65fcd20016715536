"""A simulated block device with page-granular read accounting."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.storage.iostats import IOStats, QueryIOTracker

DEFAULT_PAGE_SIZE = 4096
# Default modeled latency of one random 4 KB read on the paper's HDD setup.
# The paper reports EXACT-caching refinement times of ~0.3-0.5 s for
# candidate sets of a few hundred points, i.e. a few milliseconds per read.
DEFAULT_READ_LATENCY_S = 5e-3


#: Sequential page reads (index scans: B+-tree leaves, LSH hash-table
#: ranges) amortize seeks via prefetch; modeled much cheaper than the
#: random reads of candidate refinement.
DEFAULT_SEQ_READ_LATENCY_S = 2e-4

#: Environment variable enabling the global chaos mode: a low-rate seeded
#: fault plan applied to *every* simulated disk, with injected faults
#: masked by internal retries (see :mod:`repro.faults.chaos`).
CHAOS_ENV = "REPRO_CHAOS"


class PageRangeError(ValueError):
    """A page id outside the device's valid range was requested.

    Subclasses ``ValueError`` (the historical type for a negative id) so
    existing callers keep working, but stays distinct from ``OSError``:
    the retry layer classifies it as **non-retryable** — reissuing an
    invalid request can never succeed.
    """

    def __init__(self, page_id: int, n_pages: int | None) -> None:
        self.page_id = page_id
        self.n_pages = n_pages
        bound = "unbounded" if n_pages is None else f"0..{n_pages - 1}"
        super().__init__(f"page_id {page_id} out of range ({bound})")


@dataclass(frozen=True)
class DiskConfig:
    """Static parameters of the simulated device.

    Attributes:
        page_size: block size in bytes (the paper's system uses 4096).
        read_latency_s: modeled wall-clock cost of one *random* page read
            (candidate refinement), used to convert I/O counts into the
            response times the paper plots.
        seq_read_latency_s: modeled cost of one *sequential* page read
            (index accesses during candidate generation).
        blocking: when True, ``read_page``/``read_pages`` actually sleep
            ``read_latency_s`` for every charged read instead of only
            counting it.  Off by default (counting-only keeps the test
            suite fast); the sharded-throughput benchmark turns it on so
            executors that overlap I/O across shards show real wall-clock
            gains, as a disk-resident deployment would.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    read_latency_s: float = DEFAULT_READ_LATENCY_S
    seq_read_latency_s: float = DEFAULT_SEQ_READ_LATENCY_S
    blocking: bool = False

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.read_latency_s < 0 or self.seq_read_latency_s < 0:
            raise ValueError("latencies must be non-negative")


class SimulatedDisk:
    """Counts page reads; data itself lives in memory.

    The device does not store bytes — files built on top of it (PointFile,
    paged index nodes) keep their payloads in numpy arrays and only report
    *which page* a record lives on.  The disk's job is to account for reads
    and to convert counts to modeled time.

    Args:
        config: static device parameters.
        n_pages: number of valid pages, or None for an unbounded device.
            Files built on the disk declare their extent through
            :meth:`extend_pages`; a read beyond it raises
            :class:`PageRangeError` instead of silently charging I/O.
    """

    def __init__(
        self, config: DiskConfig | None = None, n_pages: int | None = None
    ) -> None:
        self.config = config or DiskConfig()
        self.stats = IOStats()
        if n_pages is not None and n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        self.n_pages = n_pages
        self._chaos = None
        if os.environ.get(CHAOS_ENV):
            # Lazy import: repro.faults builds on this module, so the
            # chaos hook is only pulled in when the env var opts in.
            from repro.faults.chaos import chaos_from_env

            self._chaos = chaos_from_env()

    def extend_pages(self, n_pages: int) -> None:
        """Grow the valid page range to at least ``n_pages`` pages.

        Several files may share one device (point file plus paged index
        nodes), so the range only ever grows; an unbounded device stays
        unbounded once a caller never declared an extent.
        """
        if n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        if self.n_pages is None or n_pages > self.n_pages:
            self.n_pages = n_pages

    def read_page(self, page_id: int, tracker: QueryIOTracker | None = None) -> None:
        """Charge one page read, deduplicated within ``tracker`` if given.

        Raises:
            PageRangeError: negative ``page_id``, or beyond the declared
                extent — classified non-retryable by the fault layer.
        """
        if page_id < 0 or (self.n_pages is not None and page_id >= self.n_pages):
            raise PageRangeError(page_id, self.n_pages)
        if tracker is not None:
            if not tracker.needs_read(page_id):
                return
        if self._chaos is not None:
            # Chaos mode: injected transient faults are masked here by
            # the plan's internal bounded retry (counted, never raised),
            # so every caller sees a successful — accounted — read.
            self._chaos.attempt(page_id)
        self.stats.page_reads += 1
        if self.config.blocking and self.config.read_latency_s > 0:
            time.sleep(self.config.read_latency_s)

    def read_pages(
        self, page_ids: np.ndarray, tracker: QueryIOTracker | None = None
    ) -> None:
        """Charge reads of ``page_ids`` in array order.

        Equivalent to a :meth:`read_page` loop over the array — the same
        ``stats``, the same tracker state, and on an out-of-range page the
        same :class:`PageRangeError` with the pages before it already
        charged — but deduplicated against ``tracker`` in one batch call.
        With a chaos plan attached, or a blocking device, it reads page
        by page so each charged read is consulted or slept in order.
        """
        pages = np.asarray(page_ids, dtype=np.int64).ravel()
        if self._chaos is not None or self.config.blocking:
            for page in pages.tolist():
                self.read_page(page, tracker)
            return
        bad = pages < 0
        if self.n_pages is not None:
            bad |= pages >= self.n_pages
        stop = int(np.argmax(bad)) if bad.any() else len(pages)
        charged = pages[:stop].tolist()
        if tracker is not None:
            self.stats.page_reads += tracker.needs_reads(charged)
        else:
            self.stats.page_reads += len(charged)
        if stop < len(pages):
            raise PageRangeError(int(pages[stop]), self.n_pages)

    def modeled_time(self, page_reads: int | None = None) -> float:
        """Wall-clock seconds modeled for ``page_reads`` (default: all so far)."""
        count = self.stats.page_reads if page_reads is None else page_reads
        return count * self.config.read_latency_s

    def reset(self) -> None:
        self.stats.reset()
