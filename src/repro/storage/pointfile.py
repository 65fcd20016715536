"""The sequential data-point file of the paper's framework.

The point set ``P`` lives in a flat file of fixed-size records, addressable
by point identifier (paper Section 2.1).  Candidate refinement fetches
records through this file and pays page reads on the simulated disk.
"""

from __future__ import annotations

import numpy as np

from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.growable import append_rows
from repro.storage.iostats import QueryIOTracker


class PointFile:
    """Fixed-record file of d-dimensional points with id -> page mapping.

    Args:
        points: ``(n, d)`` array; row ``i`` is the point with identifier ``i``.
        disk: the simulated device charged for reads (a private one is
            created when omitted).
        order: optional permutation mapping *file position* -> point id,
            controlling physical placement (see repro.storage.ordering).
            Defaults to raw (identity) ordering.
        value_bytes: stored size of one coordinate; the paper's datasets use
            4-byte values (600 bytes per 150-d point, 3840 per 960-d point).
    """

    def __init__(
        self,
        points: np.ndarray,
        disk: SimulatedDisk | None = None,
        order: np.ndarray | None = None,
        value_bytes: int = 4,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if value_bytes <= 0:
            raise ValueError("value_bytes must be positive")
        self.points = points
        #: Owned capacity buffer behind ``points`` once rows are appended.
        self._points_buf: np.ndarray | None = None
        self.disk = disk or SimulatedDisk(DiskConfig())
        self.value_bytes = value_bytes
        n = len(points)
        if order is None:
            order = np.arange(n, dtype=np.int64)
        else:
            order = np.asarray(order, dtype=np.int64)
            if sorted(order.tolist()) != list(range(n)):
                raise ValueError("order must be a permutation of 0..n-1")
        # order[pos] = point id stored at file position pos.
        self._order = order
        self._position_of = np.empty(n, dtype=np.int64)
        self._position_of[order] = np.arange(n, dtype=np.int64)
        # Declare the file's page extent so the device can reject reads
        # beyond it (PageRangeError) instead of charging them silently.
        self.disk.extend_pages(self.num_pages)
        # Mutation state: rows 0..base_count-1 are the build-time segment,
        # rows beyond it the append segment; tombstoned rows keep their
        # id (the id space is stable, never compacted) but reject fetches.
        self._base_count = n
        self._live = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------
    # Mutation: append segment + tombstone bitmap.
    # ------------------------------------------------------------------
    @property
    def base_count(self) -> int:
        """Rows of the original (build-time) segment."""
        return self._base_count

    @property
    def live(self) -> np.ndarray:
        """Tombstone bitmap: ``live[id]`` is False once the row is deleted."""
        return self._live

    def append(self, points: np.ndarray) -> np.ndarray:
        """Append rows to the file; returns the new ids.

        New records land at the end of the physical order (append
        segment), so existing placements never move; the device's page
        extent grows to cover them.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ValueError(
                f"appended points must have dim {self.dim}, got {points.shape[1]}"
            )
        n_old = self.num_points
        n_new = len(points)
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        self._points_buf, self.points = append_rows(
            self._points_buf, self.points, points
        )
        tail = np.arange(n_old, n_old + n_new, dtype=np.int64)
        self._order = np.concatenate([self._order, tail])
        self._position_of = np.concatenate([self._position_of, tail])
        self._live = np.concatenate([self._live, np.ones(n_new, dtype=bool)])
        self.disk.extend_pages(self.num_pages)
        return tail

    def tombstone(self, point_ids: np.ndarray) -> None:
        """Mark rows deleted; their pages stay allocated, fetches fail."""
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_points):
            raise IndexError("point id out of range")
        self._live[ids] = False

    def update_rows(self, point_ids: np.ndarray, points: np.ndarray) -> None:
        """Overwrite live records in place (same id, same page)."""
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_points):
            raise IndexError("point id out of range")
        if not self._live[ids].all():
            raise IndexError("cannot update a tombstoned point")
        self.points[ids] = points

    @property
    def num_pages(self) -> int:
        """Pages the file occupies on the device."""
        n = self.num_points
        if n == 0:
            return 0
        if self.point_size >= self.disk.config.page_size:
            return n * self.pages_per_point
        return -(-n // self.points_per_page)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def point_size(self) -> int:
        """Bytes occupied by one record."""
        return self.dim * self.value_bytes

    @property
    def points_per_page(self) -> int:
        """Records per disk page; at least one (large records span pages)."""
        return max(1, self.disk.config.page_size // self.point_size)

    @property
    def pages_per_point(self) -> int:
        """Pages a single record spans (1 unless the record exceeds a page)."""
        page = self.disk.config.page_size
        return max(1, -(-self.point_size // page))

    @property
    def file_bytes(self) -> int:
        return self.num_points * self.point_size

    def pages_of(self, point_ids: np.ndarray) -> np.ndarray:
        """Pages holding the records of ``point_ids``, in read order.

        Each id contributes its ``pages_per_point`` consecutive pages, so
        the result has ``len(point_ids) * pages_per_point`` entries.

        Raises:
            IndexError: an id outside ``0..num_points-1``, or a
                tombstoned row.
        """
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_points):
            raise IndexError("point id out of range")
        if ids.size and not self._live[ids].all():
            raise IndexError("point id tombstoned")
        pos = self._position_of[ids]
        if self.point_size < self.disk.config.page_size:
            return pos // self.points_per_page
        span = self.pages_per_point
        return (pos[:, None] * span + np.arange(span, dtype=np.int64)).ravel()

    def page_of(self, point_id: int) -> int:
        """First page holding the record of ``point_id``."""
        return int(self.pages_of(np.asarray([point_id]))[0])

    def fetch(
        self, point_ids: np.ndarray, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Read records by identifier, charging page I/O.

        The pages are charged in request order through one
        :meth:`SimulatedDisk.read_pages` call; ``point_fetches`` counts
        the records once the whole request has been read.

        Returns the ``(len(point_ids), d)`` array of points in request order.
        """
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        self.disk.read_pages(self.pages_of(ids), tracker)
        self.disk.stats.point_fetches += len(ids)
        if tracker is not None:
            tracker.point_fetches += len(ids)
        return self.points[ids]
