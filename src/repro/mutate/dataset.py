"""``MutableDataset``: the versioned point set behind a mutable pipeline.

The id space is *stable*: an insert appends rows (new ids are always
larger than every existing id), a delete tombstones a row without
compacting, and an update overwrites coordinates in place.  Rows
``0..base_count-1`` form the build-time segment the index geometry was
trained on; everything after is the append segment (the "delta").

Optional per-point attributes (1-D arrays aligned with ids) support
attribute-filtered kNN (see :mod:`repro.mutate.predicate`).
"""

from __future__ import annotations

import numpy as np

from repro.storage.growable import append_rows


def snap_to_domain(points: np.ndarray, domain_values: np.ndarray) -> np.ndarray:
    """Snap coordinates onto the trained value domain (nearest member).

    Histogram geometry is trained over the base data's distinct values;
    strict encoding rejects coordinates falling in inter-bucket gaps, so
    ingest quantizes appended rows against the trained domain — the same
    role ``discretize`` plays at build time.
    """
    values = np.asarray(domain_values, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if len(values) == 1:
        return np.full_like(points, values[0])
    hi = np.clip(np.searchsorted(values, points), 1, len(values) - 1)
    lo = hi - 1
    pick_hi = (values[hi] - points) <= (points - values[lo])
    return np.where(pick_hi, values[hi], values[lo])


class InvalidPointsError(ValueError):
    """Rows a mutable dataset cannot store: wrong dimension, NaN or inf."""


def check_points(points: np.ndarray, dim: int) -> None:
    """Reject a ``(n, d)`` row block of the wrong width or non-finite.

    A NaN or inf coordinate would hash to ``floor(nan)`` = -2**63 in
    every LSH run and poison every distance, so it is refused where it
    enters, before any buffer or index changes.
    """
    if points.ndim != 2 or points.shape[1] != dim:
        raise InvalidPointsError(
            f"points must have dim {dim}, got shape {points.shape}"
        )
    if not np.isfinite(points).all():
        raise InvalidPointsError("points must be finite (no NaN or inf)")


class MutableDataset:
    """A point set with an append segment, tombstones and attributes.

    Args:
        points: the ``(n, d)`` build-time segment.
        attributes: optional mapping of attribute name -> ``(n,)`` array.
    """

    def __init__(
        self,
        points: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.points = points
        #: Owned capacity buffer behind ``points`` once rows are appended.
        self._points_buf: np.ndarray | None = None
        self.base_count = len(points)
        self.live = np.ones(len(points), dtype=bool)
        self.attributes: dict[str, np.ndarray] = {}
        for name, values in (attributes or {}).items():
            values = np.atleast_1d(np.asarray(values))
            if len(values) != len(points):
                raise ValueError(
                    f"attribute {name!r} has {len(values)} values for "
                    f"{len(points)} points"
                )
            self.attributes[name] = values

    # ------------------------------------------------------------------
    @property
    def num_total(self) -> int:
        """Total ids ever allocated (live + tombstoned)."""
        return len(self.points)

    @property
    def num_live(self) -> int:
        return int(self.live.sum())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def appended(self) -> np.ndarray:
        """Rows of the append segment (including tombstoned ones)."""
        return self.points[self.base_count :]

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self.live).astype(np.int64)

    # ------------------------------------------------------------------
    def append(
        self,
        points: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Append rows; returns their (new, strictly larger) ids."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        check_points(points, self.dim)
        n_old = self.num_total
        n_new = len(points)
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        attributes = attributes or {}
        unknown = set(attributes) - set(self.attributes)
        if unknown:
            raise ValueError(f"unknown attributes {sorted(unknown)}")
        tails = {}
        for name, column in self.attributes.items():
            if name in attributes:
                tail = np.atleast_1d(np.asarray(attributes[name], dtype=column.dtype))
                if len(tail) != n_new:
                    raise ValueError(
                        f"attribute {name!r} has {len(tail)} values for "
                        f"{n_new} appended points"
                    )
            else:
                tail = np.zeros(n_new, dtype=column.dtype)
            tails[name] = tail
        # Validated: from here on the append cannot fail half-applied.
        self._points_buf, self.points = append_rows(
            self._points_buf, self.points, points
        )
        self.live = np.concatenate([self.live, np.ones(n_new, dtype=bool)])
        for name, tail in tails.items():
            self.attributes[name] = np.concatenate([self.attributes[name], tail])
        return np.arange(n_old, n_old + n_new, dtype=np.int64)

    def tombstone(self, ids: np.ndarray) -> np.ndarray:
        """Mark ids deleted; returns the ids that were live before."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_total):
            raise IndexError("point id out of range")
        was_live = ids[self.live[ids]]
        self.live[ids] = False
        return was_live

    def check_update(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Reject an update of ``ids`` to ``points`` before anything changes.

        The rows must be valid (:func:`check_points`), one per id, and
        every id live.
        """
        check_points(points, self.dim)
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_total):
            raise IndexError("point id out of range")
        if not self.live[ids].all():
            raise IndexError("cannot update a tombstoned point")

    def update(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Overwrite live rows in place (same ids)."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.check_update(ids, points)
        self.points[ids] = points

    # ------------------------------------------------------------------
    def to_state(self) -> dict[str, np.ndarray]:
        """Arrays that reconstruct this dataset (for churn snapshots)."""
        state = {
            "base": self.points[: self.base_count].copy(),
            "appended": self.points[self.base_count :].copy(),
            "live": self.live.copy(),
        }
        for name, values in self.attributes.items():
            state[f"attr_{name}"] = values.copy()
        return state

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "MutableDataset":
        base = np.asarray(state["base"])
        appended = np.asarray(state["appended"])
        attrs = {
            key[len("attr_") :]: np.asarray(values)
            for key, values in state.items()
            if key.startswith("attr_")
        }
        data = cls(base, attributes={k: v[: len(base)] for k, v in attrs.items()})
        if len(appended):
            data.append(
                appended, {k: v[len(base) :] for k, v in attrs.items()}
            )
        data.live = np.asarray(state["live"], dtype=bool).copy()
        return data
