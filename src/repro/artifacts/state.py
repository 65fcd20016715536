"""Component state codecs: built objects <-> (meta, arrays) pairs.

Each codec turns a live component (encoder, cache, index) into a
JSON-able ``meta`` dict plus a bundle of named numpy arrays, and back.
The snapshot layer stores the arrays content-addressed (see
:mod:`repro.artifacts.store`) and embeds their digests in the manifest,
so restoring a component is metadata plus ``np.load(mmap_mode="r")`` —
no recomputation, no copies.

Restore policy for mutability: HFF caches are static at query time, so
their tables are served straight off the read-only mapped members
(zero-copy, page-cache-shared across processes).  LRU caches mutate
their store on every admission, so their arrays are materialized as
private writable copies at load.

Index families with fully deterministic, cheap-to-derive internals store
their expensive tables natively (C2LSH hash tables, VA-file codes,
iDistance cluster assignment, the flattened VP-tree); the remaining
families fall back to a deterministic rebuild from ``(name, params,
seed)`` recorded in the meta — bit-identical because every builder is
seeded, at the cost of build time.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from repro.artifacts.errors import ArtifactError
from repro.core.bitpack import BitPackedMatrix
from repro.core.cache import (
    ApproximateCache,
    CachePolicy,
    ExactCache,
    LeafNodeCache,
    NoCache,
)
from repro.core.encoder import (
    ExactEncoder,
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
)
from repro.core.histogram import Histogram
from repro.obs.telemetry import CacheTelemetry

#: Index families whose full state is stored natively in snapshots; the
#: rest are rebuilt deterministically from (name, params, seed).
NATIVE_INDEX_FAMILIES = ("linear", "c2lsh", "vafile", "idistance", "vptree")


def _writable(array: np.ndarray) -> np.ndarray:
    """A private writable copy (LRU caches mutate their tables)."""
    return np.asarray(array).copy()


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def telemetry_state(telemetry: CacheTelemetry) -> dict:
    return {f.name: int(getattr(telemetry, f.name)) for f in fields(telemetry)}


def restore_telemetry(state: dict) -> CacheTelemetry:
    return CacheTelemetry(**{k: int(v) for k, v in state.items()})


# ----------------------------------------------------------------------
# Encoders
# ----------------------------------------------------------------------
def encoder_state(encoder) -> tuple[dict, dict]:
    """``(meta, arrays)`` of a point encoder (see :func:`restore_encoder`)."""
    if encoder is None:
        return {"kind": "none"}, {}
    if isinstance(encoder, GlobalHistogramEncoder):
        return (
            {"kind": "global", "dim": encoder.dim},
            {
                "lowers": encoder.histogram.lowers,
                "uppers": encoder.histogram.uppers,
            },
        )
    if isinstance(encoder, IndividualHistogramEncoder):
        counts = np.asarray(
            [h.num_buckets for h in encoder.histograms], dtype=np.int64
        )
        return (
            {"kind": "individual"},
            {
                "counts": counts,
                "lowers": np.concatenate([h.lowers for h in encoder.histograms]),
                "uppers": np.concatenate([h.uppers for h in encoder.histograms]),
            },
        )
    if isinstance(encoder, ExactEncoder):
        return {"kind": "exact", "dim": encoder.dim, "bits": encoder.bits}, {}
    # RTreeBucketEncoder (mHC-R): the R-tree bulk load is deterministic
    # (no RNG), so rebuilding from the points is bit-identical and far
    # smaller than persisting the tree.
    from repro.core.multidim import RTreeBucketEncoder

    if isinstance(encoder, RTreeBucketEncoder):
        return {"kind": "rtree", "tau": encoder.bits}, {}
    raise ArtifactError(f"cannot snapshot encoder type {type(encoder).__name__}")


def restore_encoder(meta: dict, arrays: dict, points: np.ndarray | None = None):
    kind = meta["kind"]
    if kind == "none":
        return None
    if kind == "global":
        hist = Histogram(arrays["lowers"], arrays["uppers"])
        return GlobalHistogramEncoder(hist, int(meta["dim"]))
    if kind == "individual":
        counts = np.asarray(arrays["counts"], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        hists = [
            Histogram(
                arrays["lowers"][offsets[j] : offsets[j + 1]],
                arrays["uppers"][offsets[j] : offsets[j + 1]],
            )
            for j in range(len(counts))
        ]
        return IndividualHistogramEncoder(hists)
    if kind == "exact":
        return ExactEncoder(int(meta["dim"]), int(meta["bits"]))
    if kind == "rtree":
        if points is None:
            raise ArtifactError("restoring an mHC-R encoder needs the points")
        from repro.core.multidim import RTreeBucketEncoder

        return RTreeBucketEncoder(points, int(meta["tau"]))
    raise ArtifactError(f"unknown encoder kind {kind!r}")


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
def _policy_name(policy: CachePolicy) -> str:
    return "lru" if policy is CachePolicy.LRU else "hff"


def cache_state(cache) -> tuple[dict, dict]:
    """``(meta, arrays)`` of any point/leaf cache."""
    if cache is None:
        return {"kind": "absent"}, {}
    if isinstance(cache, NoCache):
        return {"kind": "none", "telemetry": telemetry_state(cache.telemetry)}, {}
    if isinstance(cache, ApproximateCache):
        enc_meta, enc_arrays = encoder_state(cache.encoder)
        meta = {
            "kind": "approx",
            "capacity_bytes": int(cache.capacity_bytes),
            "policy": _policy_name(cache.policy),
            "clock": int(cache._clock),
            "encoder": enc_meta,
            "telemetry": telemetry_state(cache.telemetry),
        }
        arrays = {
            "words": cache._store._words,
            "slot_of": cache._slot_of,
            "id_of_slot": cache._id_of_slot,
            "free": np.asarray(cache._free, dtype=np.int64),
            "stamp": cache._stamp,
        }
        arrays.update({f"enc_{k}": v for k, v in enc_arrays.items()})
        return meta, arrays
    if isinstance(cache, ExactCache):
        meta = {
            "kind": "exact",
            "dim": int(cache.dim),
            "value_bytes": int(cache.value_bytes),
            "capacity_bytes": int(cache.capacity_bytes),
            "policy": _policy_name(cache.policy),
            "clock": int(cache._clock),
            "telemetry": telemetry_state(cache.telemetry),
        }
        arrays = {
            "data": cache._data,
            "slot_of": cache._slot_of,
            "id_of_slot": cache._id_of_slot,
            "free": np.asarray(cache._free, dtype=np.int64),
            "stamp": cache._stamp,
        }
        return meta, arrays
    if isinstance(cache, LeafNodeCache):
        enc_meta, enc_arrays = encoder_state(cache.encoder)
        leaf_ids, counts, costs, id_chunks, payload_chunks = [], [], [], [], []
        payload_width = 0
        for leaf_id, (point_ids, payload, cost) in cache._entries.items():
            leaf_ids.append(leaf_id)
            counts.append(len(point_ids))
            costs.append(cost)
            id_chunks.append(point_ids)
            payload_chunks.append(payload)
            payload_width = payload.shape[1]
        payload_dtype = np.float64 if cache.exact else np.int64
        meta = {
            "kind": "leaf",
            "capacity_bytes": int(cache.capacity_bytes),
            "exact": bool(cache.exact),
            "value_bytes": int(cache.value_bytes),
            "used_bytes": int(cache.used_bytes),
            "encoder": enc_meta,
            "telemetry": telemetry_state(cache.telemetry),
        }
        arrays = {
            "leaf_ids": np.asarray(leaf_ids, dtype=np.int64),
            "counts": np.asarray(counts, dtype=np.int64),
            "costs": np.asarray(costs, dtype=np.int64),
            "ids_concat": (
                np.concatenate(id_chunks)
                if id_chunks
                else np.empty(0, dtype=np.int64)
            ),
            "payload_concat": (
                np.concatenate(payload_chunks, axis=0)
                if payload_chunks
                else np.empty((0, payload_width), dtype=payload_dtype)
            ),
        }
        arrays.update({f"enc_{k}": v for k, v in enc_arrays.items()})
        return meta, arrays
    raise ArtifactError(f"cannot snapshot cache type {type(cache).__name__}")


def _split_enc_arrays(arrays: dict) -> dict:
    return {k[4:]: v for k, v in arrays.items() if k.startswith("enc_")}


def restore_cache(meta: dict, arrays: dict, points: np.ndarray | None = None):
    """Rebuild a cache from its state (see :func:`cache_state`).

    HFF tables stay read-only views of the mapped members; LRU tables
    become private writable copies (eviction mutates them).
    """
    kind = meta["kind"]
    if kind == "absent":
        return None
    if kind == "none":
        cache = NoCache()
        cache.telemetry = restore_telemetry(meta["telemetry"])
        return cache
    if kind == "leaf":
        encoder = restore_encoder(meta["encoder"], _split_enc_arrays(arrays), points)
        cache = LeafNodeCache(
            encoder,
            int(meta["capacity_bytes"]),
            exact=bool(meta["exact"]),
            value_bytes=int(meta["value_bytes"]),
        )
        counts = np.asarray(arrays["counts"], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for i, leaf_id in enumerate(np.asarray(arrays["leaf_ids"]).tolist()):
            lo, hi = offsets[i], offsets[i + 1]
            cache._entries[int(leaf_id)] = (
                arrays["ids_concat"][lo:hi],
                arrays["payload_concat"][lo:hi],
                int(arrays["costs"][i]),
            )
        cache.used_bytes = int(meta["used_bytes"])
        cache.telemetry = restore_telemetry(meta["telemetry"])
        return cache

    lru = meta["policy"] == "lru"
    if kind == "approx":
        encoder = restore_encoder(meta["encoder"], _split_enc_arrays(arrays), points)
        cache = ApproximateCache.__new__(ApproximateCache)
        cache.encoder = encoder
        cache.capacity_bytes = int(meta["capacity_bytes"])
        cache.policy = CachePolicy.LRU if lru else CachePolicy.HFF
        words = arrays["words"]
        cache._max_items = len(arrays["id_of_slot"])
        store = BitPackedMatrix(cache._max_items, encoder.n_fields, encoder.bits)
        if store._words.shape != words.shape:
            raise ArtifactError(
                f"cache store shape {words.shape} does not match the "
                f"encoder geometry {store._words.shape}"
            )
        if words.dtype != np.uint64:
            raise ArtifactError(
                f"cache store words are {words.dtype}, expected uint64"
            )
        store._words = _writable(words) if lru else words
        slot_of = np.asarray(arrays["slot_of"])
        if slot_of.size and (
            slot_of.min() < -1 or slot_of.max() >= cache._max_items
        ):
            raise ArtifactError(
                f"cache slot table names slots outside [0, {cache._max_items})"
            )
        cache._store = store
        cache._slot_of = _writable(arrays["slot_of"]) if lru else arrays["slot_of"]
        cache._id_of_slot = (
            _writable(arrays["id_of_slot"]) if lru else arrays["id_of_slot"]
        )
        cache._free = [int(s) for s in np.asarray(arrays["free"]).tolist()]
        cache._stamp = (
            _writable(arrays["stamp"]) if lru else np.asarray(arrays["stamp"])
        )
        cache._clock = int(meta["clock"])
        cache.telemetry = restore_telemetry(meta["telemetry"])
        return cache
    if kind == "exact":
        cache = ExactCache.__new__(ExactCache)
        cache.dim = int(meta["dim"])
        cache.value_bytes = int(meta["value_bytes"])
        cache.capacity_bytes = int(meta["capacity_bytes"])
        cache.policy = CachePolicy.LRU if lru else CachePolicy.HFF
        cache._item_bytes = cache.dim * cache.value_bytes
        cache._max_items = len(arrays["id_of_slot"])
        cache._data = _writable(arrays["data"]) if lru else arrays["data"]
        cache._slot_of = _writable(arrays["slot_of"]) if lru else arrays["slot_of"]
        cache._id_of_slot = (
            _writable(arrays["id_of_slot"]) if lru else arrays["id_of_slot"]
        )
        cache._free = [int(s) for s in np.asarray(arrays["free"]).tolist()]
        cache._stamp = (
            _writable(arrays["stamp"]) if lru else np.asarray(arrays["stamp"])
        )
        cache._clock = int(meta["clock"])
        cache.telemetry = restore_telemetry(meta["telemetry"])
        return cache
    raise ArtifactError(f"unknown cache kind {kind!r}")


# ----------------------------------------------------------------------
# Indexes
# ----------------------------------------------------------------------
def index_state(
    index,
    name: str | None = None,
    params: dict | None = None,
    seed: int = 0,
    value_bytes: int = 4,
) -> tuple[dict, dict]:
    """``(meta, arrays)`` of an index (see :func:`restore_index`).

    ``name``/``params``/``seed`` come from the producing spec; they are
    required for families without a native codec (deterministic-rebuild
    fallback) and recorded for provenance otherwise.
    """
    from repro.index.idistance import IDistanceIndex
    from repro.index.linear_scan import LinearScanIndex
    from repro.index.vafile import VAFileIndex
    from repro.index.vptree import VPTreeIndex
    from repro.lsh.c2lsh import C2LSHIndex

    if isinstance(index, LinearScanIndex):
        return {"family": "linear", "n_points": int(index.n_points)}, {}
    if isinstance(index, C2LSHIndex):
        meta = {
            "family": "c2lsh",
            "params": asdict(index.params),
            "page_size": int(index.page_size),
            "base_radius": float(index.base_radius),
            "n_points": int(index.n_points),
            "dim": int(index.dim),
            "seed": int(seed),
        }
        arrays = {
            "sorted_ids": index._sorted_ids,
            "sorted_hashes": index._sorted_hashes,
            "family_a": index.family._a,
            "family_b": index.family._b,
        }
        return meta, arrays
    if isinstance(index, VAFileIndex):
        enc_meta, enc_arrays = encoder_state(index.encoder)
        meta = {
            "family": "vafile",
            "bits": int(index.bits),
            "page_size": int(index.page_size),
            "approximations_on_disk": bool(index.approximations_on_disk),
            "n_points": int(index.n_points),
            "dim": int(index.dim),
            "encoder": enc_meta,
        }
        arrays = {"codes": index.codes}
        arrays.update({f"enc_{k}": v for k, v in enc_arrays.items()})
        return meta, arrays
    if isinstance(index, IDistanceIndex):
        meta = {
            "family": "idistance",
            "page_size": int(index.page_size),
            "value_bytes": int(index.value_bytes),
            "btree_order": int(index.btree_order),
        }
        return meta, {"centers": index.centers, "labels": index._labels}
    if isinstance(index, VPTreeIndex):
        return _vptree_state(index)
    if name is None:
        raise ArtifactError(
            f"index type {type(index).__name__} has no native codec and no "
            "producing spec to rebuild from"
        )
    return (
        {
            "family": name,
            "rebuild": True,
            "params": dict(params or {}),
            "seed": int(seed),
            "value_bytes": int(value_bytes),
        },
        {},
    )


def _vptree_state(index) -> tuple[dict, dict]:
    """Flatten the recursive VP-tree into parallel node arrays."""
    order = []
    stack = [index.root]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.append(node.outer)
            stack.append(node.inner)
    pos = {id(node): i for i, node in enumerate(order)}
    n = len(order)
    is_leaf = np.zeros(n, dtype=np.int8)
    leaf_id = np.full(n, -1, dtype=np.int64)
    mu = np.zeros(n, dtype=np.float64)
    pivot = np.zeros((n, index.dim), dtype=np.float64)
    inner = np.full(n, -1, dtype=np.int64)
    outer = np.full(n, -1, dtype=np.int64)
    for i, node in enumerate(order):
        if node.is_leaf:
            is_leaf[i] = 1
            leaf_id[i] = node.leaf_id
        else:
            mu[i] = node.mu
            pivot[i] = node.pivot
            inner[i] = pos[id(node.inner)]
            outer[i] = pos[id(node.outer)]
    counts = np.asarray([len(ids) for ids in index._leaf_ids], dtype=np.int64)
    meta = {
        "family": "vptree",
        "page_size": int(index.page_size),
        "leaf_capacity": int(index.leaf_capacity),
        "pages_per_leaf": int(index._pages_per_leaf),
        "n_points": int(index.n_points),
        "dim": int(index.dim),
    }
    arrays = {
        "node_is_leaf": is_leaf,
        "node_leaf_id": leaf_id,
        "node_mu": mu,
        "node_pivot": pivot,
        "node_inner": inner,
        "node_outer": outer,
        "leaf_counts": counts,
        "leaf_ids_concat": (
            np.concatenate(index._leaf_ids)
            if index._leaf_ids
            else np.empty(0, dtype=np.int64)
        ),
    }
    return meta, arrays


def restore_index(meta: dict, arrays: dict, points: np.ndarray):
    """Rebuild an index over the snapshot's (mapped) points."""
    family = meta["family"]
    if meta.get("rebuild"):
        from repro.spec.registry import build_index

        return build_index(
            family,
            points,
            seed=int(meta["seed"]),
            value_bytes=int(meta["value_bytes"]),
            params=meta["params"] or None,
        )
    if family == "linear":
        from repro.index.linear_scan import LinearScanIndex

        return LinearScanIndex(int(meta["n_points"]))
    if family == "c2lsh":
        return _restore_c2lsh(meta, arrays, points)
    if family == "vafile":
        return _restore_vafile(meta, arrays)
    if family == "idistance":
        from repro.index.idistance import IDistanceIndex

        return IDistanceIndex.from_state(
            points,
            arrays["centers"],
            arrays["labels"],
            page_size=int(meta["page_size"]),
            value_bytes=int(meta["value_bytes"]),
            btree_order=int(meta["btree_order"]),
        )
    if family == "vptree":
        return _restore_vptree(meta, arrays, points)
    raise ArtifactError(f"unknown index family {family!r}")


def _restore_c2lsh(meta: dict, arrays: dict, points: np.ndarray):
    from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams, derive_collision_threshold
    from repro.lsh.hashes import PStableHashFamily

    index = C2LSHIndex.__new__(C2LSHIndex)
    index.params = C2LSHParams(**meta["params"])
    index.n_points = int(meta["n_points"])
    index.dim = int(meta["dim"])
    index.page_size = int(meta["page_size"])
    index.entries_per_page = max(1, index.page_size // C2LSHIndex.ENTRY_BYTES)
    index.base_radius = float(meta["base_radius"])
    m, l, p1, p2 = derive_collision_threshold(index.params)
    index.n_hashes = m
    index.collision_threshold = l
    index.p1, index.p2 = p1, p2
    family = PStableHashFamily.__new__(PStableHashFamily)
    family.dim = index.dim
    family.n_hashes = m
    family.width = index.params.width_factor * index.base_radius
    family._a = np.asarray(arrays["family_a"])
    family._b = np.asarray(arrays["family_b"])
    index.family = family
    index._points = np.asarray(points, dtype=np.float64) if index.params.use_t2 else None
    index._sorted_ids = arrays["sorted_ids"]
    index._sorted_hashes = arrays["sorted_hashes"]
    index._pages_per_table = -(-index.n_points // index.entries_per_page)
    return index


def _restore_vafile(meta: dict, arrays: dict):
    from repro.index.vafile import VAFileIndex

    encoder = restore_encoder(meta["encoder"], _split_enc_arrays(arrays))
    index = VAFileIndex.__new__(VAFileIndex)
    index.n_points = int(meta["n_points"])
    index.dim = int(meta["dim"])
    index.bits = int(meta["bits"])
    index.approximations_on_disk = bool(meta["approximations_on_disk"])
    index.page_size = int(meta["page_size"])
    index.encoder = encoder
    index.codes = arrays["codes"]
    index._lowers = encoder._lowers
    index._uppers = encoder._uppers
    index.approximation_bytes = index.n_points * index.dim * index.bits // 8
    return index


def _restore_vptree(meta: dict, arrays: dict, points: np.ndarray):
    from repro.index.vptree import VPTreeIndex, _Node

    counts = np.asarray(arrays["leaf_counts"], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    leaf_ids = [
        np.asarray(arrays["leaf_ids_concat"][offsets[i] : offsets[i + 1]])
        for i in range(len(counts))
    ]
    is_leaf = np.asarray(arrays["node_is_leaf"])
    node_leaf = np.asarray(arrays["node_leaf_id"])
    inner = np.asarray(arrays["node_inner"])
    outer = np.asarray(arrays["node_outer"])
    mu = np.asarray(arrays["node_mu"])
    pivot = arrays["node_pivot"]
    nodes = [_Node(is_leaf=bool(is_leaf[i])) for i in range(len(is_leaf))]
    for i, node in enumerate(nodes):
        if node.is_leaf:
            node.leaf_id = int(node_leaf[i])
            node.point_ids = leaf_ids[node.leaf_id]
        else:
            node.mu = float(mu[i])
            node.pivot = np.asarray(pivot[i])
            node.inner = nodes[int(inner[i])]
            node.outer = nodes[int(outer[i])]
    index = VPTreeIndex.__new__(VPTreeIndex)
    index.points = np.asarray(points, dtype=np.float64)
    index.n_points = int(meta["n_points"])
    index.dim = int(meta["dim"])
    index.page_size = int(meta["page_size"])
    index.leaf_capacity = int(meta["leaf_capacity"])
    index._pages_per_leaf = int(meta["pages_per_leaf"])
    index._rng = None  # only used during construction
    index._leaf_ids = leaf_ids
    index.root = nodes[0]
    index.total_pages = len(leaf_ids) * index._pages_per_leaf
    return index
