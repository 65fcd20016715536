"""The in-memory cache of (approximate) points (paper Sections 2-3).

The cache ``Psi`` maps point identifiers to compact approximate
representations; a lookup yields lower/upper distance bounds without any
I/O.  Two admission policies from the paper:

* **HFF** (highest-frequency-first): static; the cache is filled offline
  with the candidates most frequently requested by the workload ``WL`` and
  never changes at query time (the paper's default, Section 4).
* **LRU**: dynamic; every refinement fetch is admitted, evicting the least
  recently used entry.

``ExactCache`` is the paper's EXACT baseline (full vectors, exact
distances, few items); ``ApproximateCache`` stores bit-packed tau-bit
codes ("exploit every bit"), holding ``Lvalue/tau`` times more items at
the cost of interval bounds.  ``LeafNodeCache`` adapts the idea to
tree-based indexes (Section 3.6.1), caching whole leaf nodes.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.bitpack import BitPackedMatrix
from repro.core.bounds import drop_pruned, exact_distances
from repro.core.encoder import PointEncoder
from repro.core.kernels import kernel_for
from repro.obs.telemetry import CacheTelemetry


class CachePolicy(enum.Enum):
    """Cache admission/eviction policy."""

    HFF = "hff"
    LRU = "lru"


class PointCache:
    """Interface shared by exact and approximate point caches.

    Lookups are aligned with Algorithm 1's initialization: a missing
    candidate gets ``lb = 0`` and ``ub = +inf``.  Every cache carries an
    always-on :class:`~repro.obs.telemetry.CacheTelemetry` counting
    lookups, hits, admissions and evictions (purely observational).
    """

    capacity_bytes: int
    telemetry: CacheTelemetry

    @property
    def max_items(self) -> int:
        raise NotImplementedError

    @property
    def num_items(self) -> int:
        raise NotImplementedError

    def contains(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def populate_hff(self, frequencies: np.ndarray, points: np.ndarray) -> int:
        """HFF: load the most workload-frequent points first.

        Args:
            frequencies: ``(n,)`` candidate frequency of every point id
                (``freq(p) = |{q in WL : p in C(q)}|``).
            points: the full ``(n, d)`` dataset (indexed by id).
        """
        chosen = hff_order(frequencies)[: self.max_items]
        return self.populate(chosen, points[chosen])

    def lookup(
        self, query: np.ndarray, ids: np.ndarray, k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bounds for candidates: ``(hit_mask, lb, ub)`` aligned with ids.

        With ``k``, every row Algorithm 1 prunes (``lb >
        kth_smallest(ub, k)``) comes back as ``lb = ub = inf`` and every
        other row carries its exact bounds, so a kernel may stop bounding
        a row once it is sure to be pruned; ``lb_k``, ``ub_k`` and the
        reduction of the result are those of the full bounds.
        """
        raise NotImplementedError

    def lookup_batch(
        self, queries: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bounds for one id set against a whole query batch.

        Returns ``(hit_mask, lb, ub)`` with ``hit_mask`` of shape ``(m,)``
        and ``lb``/``ub`` of shape ``(len(queries), m)``.  The generic
        fallback loops per query; vectorized caches override it to decode
        each cached entry exactly once for the batch.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ids = _normalize_ids(ids)
        lb = np.zeros((len(queries), len(ids)), dtype=np.float64)
        ub = np.full((len(queries), len(ids)), np.inf, dtype=np.float64)
        hits = self.contains(ids)
        for i, query in enumerate(queries):
            _, lb[i], ub[i] = self.lookup(query, ids)
        return hits, lb, ub

    def admit(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Offer freshly fetched points (no-op for static policies)."""

    # ------------------------------------------------------------------
    # Mutation semantics (no-ops for caches without per-point slots).
    # ------------------------------------------------------------------
    def invalidate(self, ids: np.ndarray) -> int:
        """Drop cached entries for deleted ids; returns how many were held."""
        del ids
        return 0

    def patch(self, ids: np.ndarray, points: np.ndarray) -> int:
        """Re-encode cached entries in place for updated points.

        Only ids already resident are touched (an update never admits);
        returns how many entries were patched.
        """
        del ids, points
        return 0

    def extend_ids(self, n_total: int) -> None:
        """Grow the id -> slot tables to cover appended ids (no new slots)."""
        del n_total

    def cached_ids(self) -> np.ndarray:
        """Ids currently resident, in ascending order."""
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # LRU recency bookkeeping (stamp clock), shared by the slot caches.
    #
    # Each cached id carries a stamp drawn from a strictly increasing
    # clock; the LRU victim is the cached id with the smallest stamp.
    # Stamps are assigned in array order, so one vectorized assignment
    # reproduces exactly what per-element ``OrderedDict.move_to_end``
    # calls would: later duplicates overwrite earlier stamps, and all
    # stamps stay distinct (the clock never repeats).
    # ------------------------------------------------------------------
    def _touch(self, ids: np.ndarray) -> None:
        """Mark ``ids`` most-recently-used, in array order (vectorized)."""
        n = len(ids)
        if n == 0:
            return
        self._stamp[ids] = np.arange(
            self._clock + 1, self._clock + n + 1, dtype=np.int64
        )
        self._clock += n

    def _evict_lru(self) -> int:
        """Free the least-recently-used slot and return it."""
        cached = self._id_of_slot[self._id_of_slot >= 0]
        victim = int(cached[np.argmin(self._stamp[cached])])
        slot = int(self._slot_of[victim])
        self._slot_of[victim] = -1
        self._id_of_slot[slot] = -1
        self.telemetry.evictions += 1
        return slot


def hff_order(
    frequencies: np.ndarray, live: np.ndarray | None = None
) -> np.ndarray:
    """The HFF population order: the one copy every HFF cache fills by.

    Ids by descending candidate frequency (stable, so ties break by id),
    never-requested ids dropped, then the never-requested ids in
    ascending order as filler for caches larger than the workload.
    With a ``live`` mask, dead ids never appear.
    """
    frequencies = np.asarray(frequencies)
    order = np.argsort(-frequencies, kind="stable")
    order = order[frequencies[order] > 0]
    if live is None:
        universe = np.arange(len(frequencies))
    else:
        order = order[live[order]]
        universe = np.flatnonzero(live)
    rest = np.setdiff1d(universe, order)
    return np.concatenate([order, rest]).astype(np.int64)


def _normalize_ids(ids: np.ndarray) -> np.ndarray:
    return np.atleast_1d(np.asarray(ids, dtype=np.int64))


def _slot_invalidate(cache, ids: np.ndarray) -> int:
    """Shared slot-cache invalidation: free the slot of every cached id.

    Freed slots return to the free list, so ``num_items`` (and therefore
    ``used_bytes``) drops immediately and a later re-insert of the same
    id takes a free slot instead of double-charging capacity.
    """
    ids = _normalize_ids(ids)
    dropped = 0
    for pid in ids.tolist():
        slot = int(cache._slot_of[pid])
        if slot < 0:
            continue
        cache._slot_of[pid] = -1
        cache._id_of_slot[slot] = -1
        cache._free.append(slot)
        dropped += 1
    cache.telemetry.evictions += dropped
    return dropped


def _slot_extend(cache, n_total: int) -> None:
    """Grow the id -> slot tables of a slot cache to ``n_total`` ids."""
    n = len(cache._slot_of)
    if n_total <= n:
        return
    grow = n_total - n
    cache._slot_of = np.concatenate(
        [cache._slot_of, np.full(grow, -1, dtype=np.int64)]
    )
    cache._stamp = np.concatenate(
        [cache._stamp, np.zeros(grow, dtype=np.int64)]
    )


def _slot_cached_ids(cache) -> np.ndarray:
    ids = cache._id_of_slot[cache._id_of_slot >= 0]
    return np.sort(ids).astype(np.int64)


def _populate_take(slot_of: np.ndarray, ids: np.ndarray, free_slots: int) -> int:
    """Longest prefix of ``ids`` whose *new* distinct ids fit in free slots.

    Updates of already-cached ids (and repeats within ``ids``) need no
    slot, so only the first occurrence of each uncached id is charged
    against capacity — a full static cache still accepts pure updates.
    """
    new = slot_of[ids] < 0
    if not new.any():
        return len(ids)
    first = np.zeros(len(ids), dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    cum_new = np.cumsum(new & first)
    over = cum_new > free_slots
    if not over.any():
        return len(ids)
    return int(np.argmax(over))


class ApproximateCache(PointCache):
    """Bit-packed cache of encoded points.

    Args:
        encoder: histogram-based point encoder defining the code geometry.
        capacity_bytes: cache size ``CS``; item capacity is the number of
            word-rounded packed rows that fit.
        n_points: dataset cardinality (for the id -> slot table).
        policy: HFF (static, default) or LRU (dynamic).

    Bounds come from :func:`repro.core.kernels.kernel_for`, which picks
    the kernel from the machine and the encoder; all kernels are
    bit-identical.
    """

    def __init__(
        self,
        encoder: PointEncoder,
        capacity_bytes: int,
        n_points: int,
        policy: CachePolicy = CachePolicy.HFF,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        self.encoder = encoder
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        probe = BitPackedMatrix(0, encoder.n_fields, encoder.bits)
        self._max_items = min(capacity_bytes // probe.row_bytes, n_points)
        self._store = BitPackedMatrix(
            self._max_items, encoder.n_fields, encoder.bits
        )
        self._slot_of = np.full(n_points, -1, dtype=np.int64)
        self._id_of_slot = np.full(self._max_items, -1, dtype=np.int64)
        self._free: list[int] = list(range(self._max_items - 1, -1, -1))
        self._stamp = np.zeros(n_points, dtype=np.int64)
        self._clock = 0
        self.telemetry = CacheTelemetry()

    # ------------------------------------------------------------------
    @property
    def kernel_name(self) -> str:
        return kernel_for(self.encoder).name

    # ------------------------------------------------------------------
    @property
    def max_items(self) -> int:
        return self._max_items

    @property
    def num_items(self) -> int:
        return self._max_items - len(self._free)

    @property
    def used_bytes(self) -> int:
        return self.num_items * self._store.row_bytes

    def contains(self, ids: np.ndarray) -> np.ndarray:
        return self._slot_of[_normalize_ids(ids)] >= 0

    # ------------------------------------------------------------------
    def _insert(self, point_id: int, codes_row: np.ndarray) -> None:
        if self._slot_of[point_id] >= 0:
            slot = int(self._slot_of[point_id])
            self._store.set_rows(np.asarray([slot]), codes_row[None, :])
            self.telemetry.updates += 1
        else:
            if not self._free:
                if self.policy is not CachePolicy.LRU:
                    self.telemetry.rejections += 1
                    return  # static cache full
                self._free.append(self._evict_lru())
            slot = self._free.pop()
            self._slot_of[point_id] = slot
            self._id_of_slot[slot] = point_id
            self._store.set_rows(np.asarray([slot]), codes_row[None, :])
            self.telemetry.admissions += 1
        if self.policy is CachePolicy.LRU:
            self._touch(np.asarray([point_id]))

    def populate(self, ids: np.ndarray, points: np.ndarray) -> int:
        """Bulk-load entries (in priority order); returns how many fit.

        Only genuinely *new* ids are charged against the free slots:
        updates of already-cached ids need no capacity, so they are
        accepted (and re-encoded) even when the cache is full.
        """
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        take = _populate_take(self._slot_of, ids, len(self._free))
        if take == 0:
            return 0
        ids = ids[:take]
        codes = self.encoder.encode(points[:take])
        if (
            self.policy is CachePolicy.LRU
            or np.any(self.contains(ids))
            or len(np.unique(ids)) != take
        ):
            # Slow path: LRU bookkeeping, updates, or duplicate ids.
            for pid, row in zip(ids.tolist(), codes):
                self._insert(pid, row)
            return take
        slots = np.asarray(
            [self._free.pop() for _ in range(take)], dtype=np.int64
        )
        self._slot_of[ids] = slots
        self._id_of_slot[slots] = ids
        self._store.set_rows(slots, codes)
        self.telemetry.admissions += take
        return take

    # ------------------------------------------------------------------
    def lookup(
        self, query: np.ndarray, ids: np.ndarray, k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = _normalize_ids(ids)
        slots = self._slot_of[ids]
        hits = slots >= 0
        self.telemetry.record_lookup(len(ids), hits.sum())
        lb = np.zeros(len(ids), dtype=np.float64)
        ub = np.full(len(ids), np.inf, dtype=np.float64)
        if np.any(hits):
            query = np.atleast_2d(np.asarray(query, dtype=np.float64))
            lbh, ubh = kernel_for(self.encoder).packed_bounds(
                query, self._store, slots[hits], self.encoder, k
            )
            lb[hits], ub[hits] = lbh[0], ubh[0]
            if self.policy is CachePolicy.LRU:
                self._touch(ids[hits])
            if k is not None:
                drop_pruned(lb, ub, k)
        return hits, lb, ub

    def lookup_batch(
        self, queries: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched bounds: decode each cached code once for all queries."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ids = _normalize_ids(ids)
        slots = self._slot_of[ids]
        hits = slots >= 0
        self.telemetry.record_lookup(len(ids), hits.sum())
        lb = np.zeros((len(queries), len(ids)), dtype=np.float64)
        ub = np.full((len(queries), len(ids)), np.inf, dtype=np.float64)
        if np.any(hits):
            lb[:, hits], ub[:, hits] = kernel_for(self.encoder).packed_bounds(
                queries, self._store, slots[hits], self.encoder
            )
            if self.policy is CachePolicy.LRU:
                self._touch(ids[hits])
        return hits, lb, ub

    def admit(self, ids: np.ndarray, points: np.ndarray) -> None:
        if self.policy is not CachePolicy.LRU or self._max_items == 0:
            self.telemetry.rejections += len(_normalize_ids(ids))
            return
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        codes = self.encoder.encode(points)
        for pid, row in zip(ids.tolist(), codes):
            self._insert(pid, row)

    # ------------------------------------------------------------------
    def invalidate(self, ids: np.ndarray) -> int:
        return _slot_invalidate(self, ids)

    def patch(self, ids: np.ndarray, points: np.ndarray) -> int:
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        cached = self._slot_of[ids] >= 0
        n = int(cached.sum())
        if n == 0:
            return 0
        slots = self._slot_of[ids[cached]]
        self._store.set_rows(slots, self.encoder.encode(points[cached]))
        self.telemetry.updates += n
        return n

    def extend_ids(self, n_total: int) -> None:
        _slot_extend(self, n_total)

    def cached_ids(self) -> np.ndarray:
        return _slot_cached_ids(self)


class ExactCache(PointCache):
    """The EXACT baseline: caches full vectors, returns exact distances.

    Capacity accounting uses the on-disk record size (``dim * value_bytes``,
    i.e. ``Lvalue`` bits per coordinate), matching the paper's comparison
    between exact and approximate caching under one budget ``CS``.
    """

    def __init__(
        self,
        dim: int,
        capacity_bytes: int,
        n_points: int,
        value_bytes: int = 4,
        policy: CachePolicy = CachePolicy.HFF,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.dim = dim
        self.value_bytes = value_bytes
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._item_bytes = dim * value_bytes
        self._max_items = min(capacity_bytes // self._item_bytes, n_points)
        self._data = np.zeros((self._max_items, dim), dtype=np.float64)
        self._slot_of = np.full(n_points, -1, dtype=np.int64)
        self._id_of_slot = np.full(self._max_items, -1, dtype=np.int64)
        self._free: list[int] = list(range(self._max_items - 1, -1, -1))
        self._stamp = np.zeros(n_points, dtype=np.int64)
        self._clock = 0
        self.telemetry = CacheTelemetry()

    @property
    def max_items(self) -> int:
        return self._max_items

    @property
    def num_items(self) -> int:
        return self._max_items - len(self._free)

    @property
    def used_bytes(self) -> int:
        return self.num_items * self._item_bytes

    def contains(self, ids: np.ndarray) -> np.ndarray:
        return self._slot_of[_normalize_ids(ids)] >= 0

    def _insert(self, point_id: int, point: np.ndarray) -> None:
        if self._slot_of[point_id] >= 0:
            self._data[self._slot_of[point_id]] = point
            self.telemetry.updates += 1
        else:
            if not self._free:
                if self.policy is not CachePolicy.LRU:
                    self.telemetry.rejections += 1
                    return
                self._free.append(self._evict_lru())
            slot = self._free.pop()
            self._slot_of[point_id] = slot
            self._id_of_slot[slot] = point_id
            self._data[slot] = point
            self.telemetry.admissions += 1
        if self.policy is CachePolicy.LRU:
            self._touch(np.asarray([point_id]))

    def populate(self, ids: np.ndarray, points: np.ndarray) -> int:
        """Bulk-load entries; only genuinely new ids consume capacity."""
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        take = _populate_take(self._slot_of, ids, len(self._free))
        if take == 0:
            return 0
        ids = ids[:take]
        if (
            self.policy is CachePolicy.LRU
            or np.any(self.contains(ids))
            or len(np.unique(ids)) != take
        ):
            for pid, pt in zip(ids.tolist(), points[:take]):
                self._insert(pid, pt)
            return take
        slots = np.asarray(
            [self._free.pop() for _ in range(take)], dtype=np.int64
        )
        self._slot_of[ids] = slots
        self._id_of_slot[slots] = ids
        self._data[slots] = points[:take]
        self.telemetry.admissions += take
        return take

    def lookup(
        self, query: np.ndarray, ids: np.ndarray, k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = _normalize_ids(ids)
        slots = self._slot_of[ids]
        hits = slots >= 0
        self.telemetry.record_lookup(len(ids), hits.sum())
        lb = np.zeros(len(ids), dtype=np.float64)
        ub = np.full(len(ids), np.inf, dtype=np.float64)
        if np.any(hits):
            dist = exact_distances(query, self._data[slots[hits]])
            lb[hits] = dist
            ub[hits] = dist
            if self.policy is CachePolicy.LRU:
                self._touch(ids[hits])
            if k is not None:
                drop_pruned(lb, ub, k)
        return hits, lb, ub

    def lookup_batch(
        self, queries: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched exact distances: gather cached vectors once."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ids = _normalize_ids(ids)
        slots = self._slot_of[ids]
        hits = slots >= 0
        self.telemetry.record_lookup(len(ids), hits.sum())
        lb = np.zeros((len(queries), len(ids)), dtype=np.float64)
        ub = np.full((len(queries), len(ids)), np.inf, dtype=np.float64)
        if np.any(hits):
            # Gather once for the whole batch; per-query distances keep
            # the temporaries (m, d) instead of (Q, m, d).
            cached = self._data[slots[hits]]
            for i, query in enumerate(queries):
                dist = exact_distances(query, cached)
                lb[i, hits] = dist
                ub[i, hits] = dist
            if self.policy is CachePolicy.LRU:
                self._touch(ids[hits])
        return hits, lb, ub

    def admit(self, ids: np.ndarray, points: np.ndarray) -> None:
        if self.policy is not CachePolicy.LRU or self._max_items == 0:
            self.telemetry.rejections += len(_normalize_ids(ids))
            return
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        for pid, pt in zip(ids.tolist(), points):
            self._insert(pid, pt)

    # ------------------------------------------------------------------
    def invalidate(self, ids: np.ndarray) -> int:
        return _slot_invalidate(self, ids)

    def patch(self, ids: np.ndarray, points: np.ndarray) -> int:
        ids = _normalize_ids(ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        cached = self._slot_of[ids] >= 0
        n = int(cached.sum())
        if n == 0:
            return 0
        self._data[self._slot_of[ids[cached]]] = points[cached]
        self.telemetry.updates += n
        return n

    def extend_ids(self, n_total: int) -> None:
        _slot_extend(self, n_total)

    def cached_ids(self) -> np.ndarray:
        return _slot_cached_ids(self)


class NoCache(PointCache):
    """The NO-CACHE baseline: every candidate goes to refinement."""

    capacity_bytes = 0

    def __init__(self) -> None:
        self.telemetry = CacheTelemetry()

    @property
    def max_items(self) -> int:
        return 0

    @property
    def num_items(self) -> int:
        return 0

    def contains(self, ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(_normalize_ids(ids)), dtype=bool)

    def lookup(
        self, query: np.ndarray, ids: np.ndarray, k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Every ub is inf, so no row is pruned whatever ``k`` is.
        ids = _normalize_ids(ids)
        self.telemetry.record_lookup(len(ids), 0)
        return (
            np.zeros(len(ids), dtype=bool),
            np.zeros(len(ids), dtype=np.float64),
            np.full(len(ids), np.inf, dtype=np.float64),
        )

    def lookup_batch(
        self, queries: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ids = _normalize_ids(ids)
        self.telemetry.record_lookup(len(ids), 0)
        return (
            np.zeros(len(ids), dtype=bool),
            np.zeros((len(queries), len(ids)), dtype=np.float64),
            np.full((len(queries), len(ids)), np.inf, dtype=np.float64),
        )


class LeafNodeCache:
    """Tree-index adaptation (Section 3.6.1): cache items are leaf nodes.

    Each entry stores the approximate representations of *all* points of a
    leaf; tree searches consult the cache before fetching a leaf from disk.
    Population is static by leaf access frequency under the workload.
    """

    def __init__(
        self,
        encoder: PointEncoder | None,
        capacity_bytes: int,
        exact: bool = False,
        value_bytes: int = 4,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if encoder is None and not exact:
            raise ValueError("approximate leaf cache needs an encoder")
        self.encoder = encoder
        self.capacity_bytes = capacity_bytes
        self.exact = exact
        self.value_bytes = value_bytes
        self.used_bytes = 0
        #: leaf id -> (point_ids, payload, entry cost in bytes).
        self._entries: dict[int, tuple[np.ndarray, object, int]] = {}
        self.telemetry = CacheTelemetry()

    def _entry_bytes(self, n_points: int, dim: int) -> int:
        if self.exact:
            return n_points * dim * self.value_bytes
        probe = BitPackedMatrix(0, self.encoder.n_fields, self.encoder.bits)
        return n_points * probe.row_bytes

    def try_add(self, leaf_id: int, point_ids: np.ndarray, points: np.ndarray) -> bool:
        """Add a leaf if it fits; returns True when cached.

        Re-adding an already-cached leaf replaces its entry: the old
        entry's cost is released before the budget check, so replacement
        never double-charges ``used_bytes``.
        """
        point_ids = _normalize_ids(point_ids)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cost = self._entry_bytes(len(points), points.shape[1])
        old = self._entries.get(leaf_id)
        old_cost = old[2] if old is not None else 0
        if self.used_bytes - old_cost + cost > self.capacity_bytes:
            self.telemetry.rejections += 1
            return False
        payload: object
        if self.exact:
            payload = points.copy()
        else:
            payload = self.encoder.encode(points)
        self._entries[leaf_id] = (point_ids.copy(), payload, cost)
        self.used_bytes += cost - old_cost
        if old is None:
            self.telemetry.admissions += 1
        else:
            self.telemetry.updates += 1
        return True

    def populate_by_frequency(
        self,
        leaf_frequencies: dict[int, int],
        leaf_contents: "callable",
    ) -> int:
        """Fill with leaves in descending access frequency.

        Args:
            leaf_frequencies: leaf id -> workload access count.
            leaf_contents: callable ``leaf_id -> (point_ids, points)``.

        Returns:
            number of leaves cached.
        """
        added = 0
        for leaf_id in sorted(
            leaf_frequencies, key=lambda l: (-leaf_frequencies[l], l)
        ):
            ids, pts = leaf_contents(leaf_id)
            if self.try_add(leaf_id, ids, pts):
                added += 1
            else:
                break
        return added

    def clear(self) -> None:
        """Drop every cached leaf (a relayout renumbers leaf ids)."""
        self.telemetry.evictions += len(self._entries)
        self._entries.clear()
        self.used_bytes = 0

    def __contains__(self, leaf_id: int) -> bool:
        return leaf_id in self._entries

    @property
    def num_leaves(self) -> int:
        return len(self._entries)

    def lookup(
        self, query: np.ndarray, leaf_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Bounds for every point of a cached leaf: ``(ids, lb, ub)``.

        For exact leaf caches the bounds coincide with exact distances.
        Returns None on a miss.
        """
        entry = self._entries.get(leaf_id)
        self.telemetry.record_lookup(1, 0 if entry is None else 1)
        if entry is None:
            return None
        point_ids, payload, _ = entry
        if self.exact:
            dist = exact_distances(query, payload)
            return point_ids, dist, dist.copy()
        query = np.atleast_2d(np.asarray(query, dtype=np.float64))
        lb, ub = kernel_for(self.encoder).bounds(query, payload, self.encoder)
        return point_ids, lb[0], ub[0]

    @property
    def kernel_name(self) -> str:
        return "exact" if self.exact else kernel_for(self.encoder).name
