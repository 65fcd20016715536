"""Versioned pipeline snapshots: build once, mmap everywhere.

The paper deploys HC-O the way production systems ship index artifacts
(Section 3.5): an offline job rebuilds the histogram and cache content
daily and serving processes pick the artifact up without recomputing
anything.  A *snapshot* is that artifact for a whole pipeline — the
points, the index structures, the bit-packed cache codes and the
producing :class:`~repro.spec.PipelineSpec` — stored as a manifest plus
content-hashed ``.npy`` members (:mod:`repro.artifacts.store`).

Loading opens every member with ``np.load(mmap_mode="r")``: nothing is
deserialized or copied, the kernel pages members in on demand, and all
processes serving the same snapshot share one physical copy of the
tables through the page cache.  A loaded pipeline is bit-identical to
the freshly built one — same ids, same distances, same page reads.

``save_cache_snapshot``/``load_cache_snapshot`` persist just a cache
(the retrain artifact of :class:`repro.workload.DriftController`),
published atomically under a ``CURRENT`` pointer for hot swap under live
traffic.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.artifacts.errors import ArtifactError, FormatVersionError
from repro.artifacts.state import (
    cache_state,
    index_state,
    restore_cache,
    restore_index,
)
from repro.artifacts.store import (
    ObjectStore,
    read_manifest,
    write_manifest,
)
from repro.engine.engine import QueryEngine
from repro.spec.build import Pipeline, build_pipeline, resolve_dataset
from repro.spec.sections import PipelineSpec
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile

#: Manifest schema version; bump on any incompatible layout change.
SNAPSHOT_FORMAT_VERSION = 1


def _disk_manifest(config) -> dict:
    return {
        "page_size": int(config.page_size),
        "read_latency_s": float(config.read_latency_s),
        "seq_read_latency_s": float(config.seq_read_latency_s),
        "blocking": bool(config.blocking),
    }


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_snapshot(
    path: str | Path,
    pipeline,
    queries: np.ndarray | None = None,
    metrics=None,
) -> Path:
    """Persist a built :class:`~repro.spec.build.Pipeline` as a snapshot.

    ``queries`` (default: the dataset's held-out test queries, when the
    pipeline still carries its workload context) are stored alongside so
    differential verification needs nothing external.  The manifest is
    written last, so a directory with a manifest is always a complete
    snapshot.
    """
    path = Path(path)
    store = ObjectStore(path)
    spec = pipeline.spec
    spec_dict = spec.to_dict() if spec is not None else None
    index_name = spec.index.name if spec is not None else None
    index_params = dict(spec.index.params) if spec is not None else None
    seed = spec.seed if spec is not None else 0
    index = pipeline.index
    cache = pipeline.cache
    point_file = pipeline.point_file
    if pipeline.engine.is_tree:
        kind = "tree"
        value_bytes = int(getattr(index, "value_bytes", 4))
        disk = {
            "page_size": int(getattr(index, "page_size", 4096)),
            "read_latency_s": float(pipeline.read_latency_s),
            "seq_read_latency_s": float(pipeline.seq_read_latency_s),
            "blocking": False,
        }
        points = np.ascontiguousarray(index.points, dtype=np.float64)
        order = np.arange(len(points), dtype=np.int64)
    else:
        kind = "point"
        value_bytes = point_file.value_bytes
        disk = _disk_manifest(point_file.disk.config)
        points = np.ascontiguousarray(point_file.points, dtype=np.float64)
        order = point_file._order
    context = pipeline.context
    if queries is None and context is not None:
        if context.dataset.query_log is not None:
            queries = context.dataset.query_log.test

    idx_meta, idx_arrays = index_state(
        index,
        name=index_name,
        params=index_params,
        seed=seed,
        value_bytes=value_bytes,
    )
    cache_meta, cache_arrays = cache_state(cache)

    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": kind,
        "method": pipeline.method,
        "tau": None if pipeline.tau is None else int(pipeline.tau),
        "k": int(pipeline.k),
        "value_bytes": int(value_bytes),
        "spec": spec_dict,
        "disk": disk,
        "points": {
            "member": store.put_array(points),
            "order": store.put_array(np.asarray(order, dtype=np.int64)),
        },
        "index": {"meta": idx_meta, "members": store.put_members(idx_arrays)},
        "cache": {"meta": cache_meta, "members": store.put_members(cache_arrays)},
        "queries": (
            store.put_array(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
            if queries is not None
            else None
        ),
    }
    write_manifest(path, manifest)
    if metrics is not None:
        metrics.counter(
            "snapshot_save_total", "snapshots written", kind=kind
        ).inc()
        metrics.gauge("snapshot_bytes", "total member bytes").set(
            float(_total_member_bytes(store, manifest))
        )
    return path


def _total_member_bytes(store: ObjectStore, manifest: dict) -> int:
    digests = set()
    digests.add(manifest["points"]["member"])
    digests.add(manifest["points"]["order"])
    if manifest.get("queries"):
        digests.add(manifest["queries"])
    for section in ("index", "cache"):
        digests.update(manifest.get(section, {}).get("members", {}).values())
    digests.discard(None)
    return sum(store.member_bytes(d) for d in digests)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _check_manifest_version(manifest: dict, path: Path) -> None:
    found = manifest.get("format_version")
    if found != SNAPSHOT_FORMAT_VERSION:
        raise FormatVersionError(
            found, SNAPSHOT_FORMAT_VERSION, str(Path(path) / "manifest.json")
        )


def load_snapshot(
    path: str | Path,
    mmap: bool = True,
    metrics=None,
    resilience=None,
):
    """Open a snapshot as a ready-to-query :class:`~repro.spec.build.Pipeline`.

    With ``mmap=True`` (the default) every member is a read-only memory
    map: points, index tables and HFF cache codes are served straight
    from the page cache (shared across processes); only LRU caches get
    private writable copies.  ``metrics``/``resilience`` wire the live observability and
    fault-handling objects into the served engine.
    """
    path = Path(path)
    manifest = read_manifest(path)
    _check_manifest_version(manifest, path)
    store = ObjectStore(path)

    points = store.load(manifest["points"]["member"], mmap=mmap)
    idx = manifest["index"]
    index = restore_index(
        idx["meta"], store.load_members(idx["members"], mmap=mmap), points
    )
    cm = manifest["cache"]
    cache = restore_cache(
        cm["meta"], store.load_members(cm["members"], mmap=mmap), points
    )
    spec = None
    if manifest.get("spec") is not None:
        spec = PipelineSpec.from_dict(manifest["spec"])

    if metrics is not None:
        metrics.counter(
            "snapshot_load_total", "snapshots opened", kind=manifest["kind"]
        ).inc()

    if manifest["kind"] == "tree":
        engine = QueryEngine.for_tree(index, cache, metrics=metrics)
    else:
        point_file = PointFile(
            points,
            disk=SimulatedDisk(DiskConfig(**manifest["disk"])),
            order=store.load(manifest["points"]["order"], mmap=mmap),
            value_bytes=int(manifest["value_bytes"]),
        )
        engine = QueryEngine.for_index(
            index, point_file, cache, metrics=metrics, resilience=resilience
        )
    return Pipeline(
        engine=engine, method=manifest["method"], tau=manifest["tau"], spec=spec
    )


def load_queries(path: str | Path, mmap: bool = True) -> np.ndarray | None:
    """The test queries stored with a snapshot (None if absent)."""
    path = Path(path)
    manifest = read_manifest(path)
    _check_manifest_version(manifest, path)
    if not manifest.get("queries"):
        return None
    return ObjectStore(path).load(manifest["queries"], mmap=mmap)


# ----------------------------------------------------------------------
# Inspect / verify
# ----------------------------------------------------------------------
def inspect_snapshot(path: str | Path) -> dict:
    """Manifest summary plus member sizes (no arrays are loaded)."""
    path = Path(path)
    manifest = read_manifest(path)
    store = ObjectStore(path)
    members: dict[str, dict] = {}

    def _add(name: str, digest: str | None) -> None:
        if digest:
            members[name] = {"digest": digest, "bytes": store.member_bytes(digest)}

    _add("points", manifest.get("points", {}).get("member"))
    _add("order", manifest.get("points", {}).get("order"))
    _add("queries", manifest.get("queries"))
    for section in ("index", "cache"):
        for name, digest in manifest.get(section, {}).get("members", {}).items():
            _add(f"{section}.{name}", digest)
    return {
        "path": str(path),
        "format_version": manifest.get("format_version"),
        "kind": manifest.get("kind"),
        "method": manifest.get("method"),
        "tau": manifest.get("tau"),
        "k": manifest.get("k"),
        "index_family": manifest.get("index", {}).get("meta", {}).get("family"),
        "cache_kind": manifest.get("cache", {}).get("meta", {}).get("kind"),
        "has_spec": manifest.get("spec") is not None,
        "members": members,
        "total_bytes": sum(m["bytes"] for m in members.values()),
    }


def verify_snapshot(
    path: str | Path,
    k: int | None = None,
    limit: int | None = None,
) -> dict:
    """Differential check: snapshot-served answers vs a fresh rebuild.

    Rebuilds the pipeline from the spec embedded in the manifest (through
    the single build path) and compares ids, distances and page reads on
    the stored test queries.  Returns a report dict with ``ok`` plus the
    indexes of any mismatching queries.
    """
    path = Path(path)
    manifest = read_manifest(path)
    _check_manifest_version(manifest, path)
    if manifest.get("spec") is None:
        raise ArtifactError(
            f"snapshot {path} embeds no spec; differential verification "
            "needs one to rebuild from"
        )
    served = load_snapshot(path)
    spec = PipelineSpec.from_dict(manifest["spec"])
    fresh = build_pipeline(spec)
    queries = load_queries(path)
    if queries is None:
        dataset = _fresh_dataset(fresh, spec)
        if dataset is None or dataset.query_log is None:
            raise ArtifactError("snapshot stores no queries to verify with")
        queries = dataset.query_log.test
    if limit is not None:
        queries = queries[:limit]
    k = int(k or manifest.get("k") or spec.k)
    mismatches = []
    for i, query in enumerate(np.atleast_2d(np.asarray(queries))):
        a = served.search(query, k)
        b = fresh.search(query, k)
        same = (
            np.array_equal(a.ids, b.ids)
            and np.array_equal(a.distances, b.distances)
            and a.stats.page_reads == b.stats.page_reads
        )
        if not same:
            mismatches.append(i)
    return {
        "ok": not mismatches,
        "queries": len(np.atleast_2d(np.asarray(queries))),
        "mismatches": mismatches,
        "kind": manifest["kind"],
        "method": manifest["method"],
        "format_version": manifest["format_version"],
    }


def _fresh_dataset(fresh, spec):
    if fresh.context is not None:
        return fresh.context.dataset
    return resolve_dataset(spec.dataset)


# ----------------------------------------------------------------------
# Cache-only snapshots (hot-swap maintenance artifacts)
# ----------------------------------------------------------------------
def save_cache_snapshot(
    root: str | Path, name: str, cache, metrics=None
) -> Path:
    """Persist just a cache under ``<root>/<name>`` (rebuild artifact).

    The caller publishes it with
    :func:`repro.artifacts.store.publish_current` once complete.
    """
    path = Path(root) / name
    store = ObjectStore(path)
    meta, arrays = cache_state(cache)
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": "cache",
        "cache": {"meta": meta, "members": store.put_members(arrays)},
    }
    write_manifest(path, manifest)
    if metrics is not None:
        metrics.counter(
            "snapshot_save_total", "snapshots written", kind="cache"
        ).inc()
    return path


def load_cache_snapshot(
    path: str | Path, mmap: bool = True, points: np.ndarray | None = None
):
    """Open a cache-only snapshot written by :func:`save_cache_snapshot`."""
    path = Path(path)
    manifest = read_manifest(path)
    _check_manifest_version(manifest, path)
    if manifest.get("kind") != "cache":
        raise ArtifactError(f"{path} is not a cache snapshot")
    store = ObjectStore(path)
    cm = manifest["cache"]
    return restore_cache(
        cm["meta"], store.load_members(cm["members"], mmap=mmap), points
    )
