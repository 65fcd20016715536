"""Component registry: index family name -> builder callable.

One table serves every index family the spec build path, the workload
context and the shard layer construct.  Builders share one signature::

    builder(points, *, seed=0, value_bytes=4, params=None) -> index

``params`` is the spec's picklable ``index.params`` dict; builders that
take no parameters simply ignore it being empty.  Third-party indexes
register via :func:`register_index`.
"""

from __future__ import annotations

import numpy as np

#: Candidate-generation families (Algorithm 1's generate phase).
INDEX_NAMES = (
    "c2lsh", "e2lsh", "multiprobe", "sklsh", "vafile", "vaplus", "linear",
)
#: Tree families (Section 3.6.1 leaf-at-a-time search).
TREE_INDEX_NAMES = ("idistance", "vptree", "mtree")


def _build_linear(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.linear_scan import LinearScanIndex

    return LinearScanIndex(len(points))


def _build_c2lsh(points, *, seed=0, value_bytes=4, params=None):
    from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams

    params = dict(params or {})
    inner = params.pop("params", None)
    base_radius = params.pop("base_radius", None)
    return C2LSHIndex(
        points,
        params=C2LSHParams(**inner) if inner is not None else None,
        seed=seed,
        base_radius=base_radius,
        **params,
    )


def _build_e2lsh(points, *, seed=0, value_bytes=4, params=None):
    from repro.lsh.e2lsh import E2LSHIndex

    return E2LSHIndex(points, seed=seed, **dict(params or {}))


def _build_multiprobe(points, *, seed=0, value_bytes=4, params=None):
    from repro.lsh.multiprobe import MultiProbeLSHIndex

    return MultiProbeLSHIndex(points, seed=seed, **dict(params or {}))


def _build_sklsh(points, *, seed=0, value_bytes=4, params=None):
    from repro.lsh.sklsh import SKLSHIndex

    return SKLSHIndex(points, seed=seed, **dict(params or {}))


def _build_vafile(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.vafile import VAFileIndex

    return VAFileIndex(points, **dict(params or {}))


def _build_vaplus(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.vaplus import VAPlusFileIndex

    return VAPlusFileIndex(points, **dict(params or {}))


def _build_idistance(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.idistance import IDistanceIndex

    return IDistanceIndex(
        points, seed=seed, value_bytes=value_bytes, **dict(params or {})
    )


def _build_vptree(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.vptree import VPTreeIndex

    return VPTreeIndex(
        points, seed=seed, value_bytes=value_bytes, **dict(params or {})
    )


def _build_mtree(points, *, seed=0, value_bytes=4, params=None):
    from repro.index.mtree import MTreeIndex

    return MTreeIndex(
        points, seed=seed, value_bytes=value_bytes, **dict(params or {})
    )


INDEX_REGISTRY: dict[str, callable] = {
    "linear": _build_linear,
    "c2lsh": _build_c2lsh,
    "e2lsh": _build_e2lsh,
    "multiprobe": _build_multiprobe,
    "sklsh": _build_sklsh,
    "vafile": _build_vafile,
    "vaplus": _build_vaplus,
    "idistance": _build_idistance,
    "vptree": _build_vptree,
    "mtree": _build_mtree,
}


def register_index(name: str, builder) -> None:
    """Register (or replace) an index builder under ``name``."""
    if not callable(builder):
        raise TypeError("builder must be callable")
    INDEX_REGISTRY[name] = builder


def build_index(
    name: str,
    points: np.ndarray,
    *,
    seed: int = 0,
    value_bytes: int = 4,
    params: dict | None = None,
):
    """Build an index of the named family over ``points``."""
    builder = INDEX_REGISTRY.get(name)
    if builder is None:
        raise ValueError(
            f"unknown index {name!r}; choices: {sorted(INDEX_REGISTRY)}"
        )
    return builder(points, seed=seed, value_bytes=value_bytes, params=params)
