"""C2LSH: dynamic collision counting LSH (Gan et al., SIGMOD 2012).

The paper's primary candidate-generation index.  C2LSH keeps ``m``
independent p-stable hash functions (no compound keys).  A point is a
candidate when it collides with the query on at least ``l = alpha * m``
functions.  *Virtual rehashing* widens buckets geometrically: at search
radius ``R`` the level-``R`` bucket of hash value ``h`` is
``floor(h / R)``, so one physical table per function (sorted by hash
value) serves every radius.  The search enlarges ``R`` by the
approximation ratio ``c`` until ``k + beta*n`` candidates collide often
enough.

Counting is incremental.  The radius grows by the integer ``c``, so a
level's bucket contains the previous level's and each run's range of
entries only widens.  Each level therefore counts only the entries it
adds, ``[lo, lo_prev)`` and ``[hi_prev, hi)`` of every run, in one call
to the counting step of :mod:`repro.core.kernels`: native C when
:func:`~repro.core.kernels.native_available` holds (it searches the
runs in place and releases the GIL), NumPy otherwise.  The key bounds
``bucket * R`` and ``(bucket + 1) * R`` are computed here in NumPy,
whose ``//`` floors negative hashes where C's ``/`` would truncate.

Index I/O: each hash table is a sorted run of (hash, id) entries on disk;
a query reads the contiguous range of pages covering its collision
interval at each level.  The ranges nest, so the pages of the last
level's ranges are every page the query read; they are charged once,
as one page array, when the search stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import collision_counter, expand_ranges
from repro.lsh.hashes import PStableHashFamily, collision_probability
from repro.storage.growable import append_rows, prefix, reserve
from repro.storage.iostats import QueryIOTracker


@dataclass(frozen=True)
class C2LSHParams:
    """Tuning knobs of C2LSH.

    Attributes:
        c: approximation ratio (radius growth factor), an integer >= 2.
        delta: error probability bound used to size ``m``.
        beta: false-positive allowance; the search stops once
            ``k + beta * n`` candidates pass the collision threshold.
        width_factor: base bucket width ``w`` in units of the calibrated
            base radius.
        n_hashes: override for ``m`` (None = derive from delta via a
            Hoeffding bound, clipped to [16, 192]).
        max_levels: cap on virtual-rehashing rounds.
    """

    c: int = 2
    delta: float = 0.01
    beta: float = 0.005
    width_factor: float = 1.0
    n_hashes: int | None = None
    max_levels: int = 24
    #: Enable C2LSH's second termination condition (T2): stop as soon as
    #: k candidates lie within distance c*R of the query.  The original
    #: system interleaves these distance evaluations with refinement; in
    #: this phase-separated reproduction T2 reads the index's in-memory
    #: copy of the points (``self._points``) and charges no page, so
    #: ``gen_page_reads`` leaves those reads out.  It only tightens the
    #: candidate set; the fetches are charged when the refinement phase
    #: reads the points.  Cached and uncached pipelines share the index,
    #: so both leave out the same reads and comparisons stay fair.
    use_t2: bool = False

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ValueError("approximation ratio c must be >= 2")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.width_factor <= 0:
            raise ValueError("width_factor must be positive")


def derive_collision_threshold(params: C2LSHParams) -> tuple[int, int, float, float]:
    """Size ``m`` and the collision threshold ``l`` from the parameters.

    ``p1 = p(1)`` and ``p2 = p(c)`` are the collision probabilities at unit
    and at ``c`` times the search radius; the threshold fraction
    ``alpha = (p1 + p2) / 2`` separates them, and a two-sided Hoeffding
    bound sizes ``m`` so both error events stay below ``delta``.

    Returns:
        ``(m, l, p1, p2)``.
    """
    p1 = collision_probability(1.0, params.width_factor)
    p2 = collision_probability(float(params.c), params.width_factor)
    alpha = (p1 + p2) / 2.0
    gap = p1 - alpha
    if params.n_hashes is not None:
        m = params.n_hashes
    else:
        m = math.ceil(math.log(2.0 / params.delta) / (2.0 * gap * gap))
        m = int(np.clip(m, 16, 192))
    l = max(1, math.ceil(alpha * m))
    return m, l, p1, p2


def calibrate_base_radius(
    points: np.ndarray, sample: int = 256, seed: int = 0
) -> float:
    """Median nearest-neighbor distance of a data sample.

    Virtual rehashing starts at ``R = 1`` in units of this radius, so the
    first level already targets typical nearest-neighbor distances.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        return 1.0
    rng = np.random.default_rng(seed)
    pool = points[rng.choice(n, size=min(n, 2048), replace=False)]
    probes = pool[: min(sample, len(pool))]
    d2 = (
        np.sum(probes**2, axis=1)[:, None]
        - 2.0 * probes @ pool.T
        + np.sum(pool**2, axis=1)[None, :]
    )
    np.clip(d2, 0.0, None, out=d2)
    d2_sorted = np.sort(d2, axis=1)
    # Column 0 is the point itself (distance 0); column 1 is the true NN.
    nn = np.sqrt(d2_sorted[:, 1]) if d2_sorted.shape[1] > 1 else np.ones(len(probes))
    med = float(np.median(nn))
    return med if med > 0 else float(np.mean(nn)) or 1.0


class C2LSHIndex:
    """Disk-resident C2LSH index over a point set.

    Args:
        points: ``(n, d)`` dataset (hash tables are built over it; the
            points themselves stay in the data file).
        params: C2LSH tuning (defaults follow the original recipe).
        seed: RNG seed for the hash family.
        page_size: bytes per index page; each (hash, id) entry costs
            12 bytes, mirroring the paper's disk-based tables.
        base_radius: override for the calibrated base radius.  Sharded
            deployments pass the radius calibrated on the *full* dataset
            so every shard hashes with an identical family geometry
            (calibrating per shard would give each shard different bucket
            widths and therefore incomparable collision counts).
    """

    ENTRY_BYTES = 12
    #: Owned capacity buffers behind ``_sorted_ids`` / ``_sorted_hashes``
    #: / ``_points``; allocated by the first insert.
    _id_buf: np.ndarray | None = None
    _hash_buf: np.ndarray | None = None
    _points_buf: np.ndarray | None = None

    def __init__(
        self,
        points: np.ndarray,
        params: C2LSHParams | None = None,
        seed: int = 0,
        page_size: int = 4096,
        base_radius: float | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.params = params or C2LSHParams()
        self.n_points, self.dim = points.shape
        self.seed = seed
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // self.ENTRY_BYTES)
        if base_radius is not None and base_radius <= 0:
            raise ValueError("base_radius must be positive")
        self.base_radius = (
            float(base_radius)
            if base_radius is not None
            else calibrate_base_radius(points, seed=seed)
        )
        m, l, p1, p2 = derive_collision_threshold(self.params)
        self.n_hashes = m
        self.collision_threshold = l
        self.p1, self.p2 = p1, p2
        self.family = PStableHashFamily(
            self.dim,
            m,
            width=self.params.width_factor * self.base_radius,
            seed=seed + 1,
        )
        self._points = points if self.params.use_t2 else None
        hashes = self.family.hash(points)  # (n, m)
        order = np.argsort(hashes, axis=0, kind="stable")  # (n, m)
        self._sorted_ids = order.T.copy()  # (m, n)
        self._sorted_hashes = np.take_along_axis(hashes, order, axis=0).T.copy()
        self._pages_per_table = -(-self.n_points // self.entries_per_page)

    # ------------------------------------------------------------------
    def insert_many(self, points: np.ndarray) -> None:
        """Splice appended rows into each per-function sorted run, in place.

        A run is sorted by ``(hash, id)`` — the build's stable argsort
        orders equal hashes by ascending id.  New ids are larger than
        every existing id, so each new entry belongs right after the
        last existing entry with a hash ``<=`` its own
        (``searchsorted(..., "right")``), and the spliced run equals a
        from-scratch build over the extended dataset bit-identically.
        The runs live in capacity-doubling buffers (see
        :mod:`repro.storage.growable`), so an insert moves each run's
        tail instead of reallocating all ``m`` runs.  Because the runs
        change in place, no query may run on this index during the call;
        the mutation layer applies inserts at fences between reads.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return
        n, extra = self.n_points, len(points)
        new_ids = np.arange(n, n + extra, dtype=np.int64)
        hashes = self.family.hash(points)  # (n_new, m)
        order = np.argsort(hashes, axis=0, kind="stable")  # (n_new, m)
        new_hashes = np.take_along_axis(hashes, order, axis=0).T  # (m, n_new)
        new_run_ids = new_ids[order].T
        id_buf = reserve(self._id_buf, self._sorted_ids, extra, axis=1)
        hash_buf = reserve(self._hash_buf, self._sorted_hashes, extra, axis=1)
        slots = np.arange(extra)
        for i in range(self.n_hashes):
            pos = np.searchsorted(hash_buf[i, :n], new_hashes[i], "right")
            start = int(pos[0])
            # Within the moved tail, new entries land at pos + rank - start;
            # the old entries keep their order in the remaining slots.
            fresh = np.zeros(n + extra - start, dtype=bool)
            fresh[pos + slots - start] = True
            for buf, new in (
                (hash_buf[i], new_hashes[i]),
                (id_buf[i], new_run_ids[i]),
            ):
                tail = buf[start:n].copy()
                seg = buf[start : n + extra]
                seg[~fresh] = tail
                seg[fresh] = new
        self._id_buf, self._hash_buf = id_buf, hash_buf
        self._sorted_ids = prefix(id_buf, n + extra, axis=1)
        self._sorted_hashes = prefix(hash_buf, n + extra, axis=1)
        self.n_points += extra
        self._pages_per_table = -(-self.n_points // self.entries_per_page)
        if self._points is not None:
            self._points_buf, self._points = append_rows(
                self._points_buf, self._points, points
            )

    @property
    def index_bytes(self) -> int:
        """On-disk size of the hash tables."""
        return self.n_hashes * self.n_points * self.ENTRY_BYTES

    def _charge_pages(
        self, lo: np.ndarray, hi: np.ndarray, tracker: QueryIOTracker
    ) -> None:
        """Charge the index pages of each run's entry range ``[lo, hi)``.

        The ranges of successive levels nest, so the last level's range
        of a run covers every entry any level read; charging its pages
        once charges the same page set as a charge per level.
        """
        read = np.flatnonzero(hi > lo)
        first = lo[read] // self.entries_per_page
        stop = (hi[read] - 1) // self.entries_per_page + 1
        which, pages = expand_ranges(first, stop)
        pages += read[which] * self._pages_per_table
        tracker.needs_reads(pages.tolist())

    def candidates(
        self, query: np.ndarray, k: int, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Dynamic collision counting with virtual rehashing.

        Returns candidate ids in descending collision-count order (ties by
        id), the paper's ``C(q)``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        hq = self.family.hash(query[None, :])[0]  # (m,)
        n = self.n_points
        target = k + max(1, int(self.params.beta * n))
        count_level = collision_counter()
        counts = np.zeros(n, dtype=np.int32)
        # Each run's entry range at the current level (lo > hi: none yet).
        lo = np.full(self.n_hashes, n, dtype=np.int64)
        hi = np.zeros(self.n_hashes, dtype=np.int64)
        radius = 1
        for _ in range(self.params.max_levels):
            # Key bounds in numpy: ``//`` floors negative hashes, where
            # C's ``/`` would truncate them toward zero.
            bucket = hq // radius
            count_level(
                self._sorted_hashes,
                self._sorted_ids,
                bucket * radius,
                (bucket + 1) * radius,
                lo,
                hi,
                counts,
            )
            hits = counts >= self.collision_threshold
            found = int(np.count_nonzero(hits))
            # Once every run spans the whole table each id has m >= l
            # collisions, so this test also ends a search that ran out
            # of table.
            if found >= min(target, n):
                break
            if self._points is not None and found >= k:
                # T2: enough candidates already proven near (dist <= c*R).
                ids_now = np.flatnonzero(hits)
                dists = np.linalg.norm(self._points[ids_now] - query, axis=1)
                bound = self.params.c * radius * self.base_radius
                if int(np.sum(dists <= bound)) >= k:
                    break
            radius *= self.params.c
        if tracker is not None:
            self._charge_pages(lo, hi, tracker)
        ids = np.flatnonzero(counts >= self.collision_threshold)
        if ids.size == 0:
            # Degenerate fallback: return the heaviest colliders so the
            # search still has candidates to refine.
            take = min(target, self.n_points)
            ids = np.argpartition(-counts, take - 1)[:take]
        order = np.lexsort((ids, -counts[ids]))
        return ids[order].astype(np.int64)
