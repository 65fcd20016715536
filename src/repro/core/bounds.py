"""Lower/upper distance bounds from approximate points (paper Section 3.2).

An approximate point decodes to a bounding rectangle ``[lo, hi]`` per
dimension.  For a query ``q``:

* ``dist-``: per dimension, 0 if ``q`` falls inside the interval, else the
  distance to the nearer edge (the paper's ``dist^-_q``);
* ``dist+``: per dimension, the distance to the farther edge
  (the paper's ``dist^+_q``).

Both are valid Euclidean bounds: ``dist- <= dist(q, p) <= dist+`` for any
point ``p`` inside the rectangle.  The error vector of Def. 10 is the
vector of interval widths; Lemma 1 guarantees
``dist+ - dist <= ||error||``.
"""

from __future__ import annotations

import numpy as np


def rectangle_bounds(
    query: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper Euclidean distance bounds to rectangles.

    Args:
        query: ``(d,)`` query point.
        lowers: ``(m, d)`` rectangle lower corners.
        uppers: ``(m, d)`` rectangle upper corners.

    Returns:
        ``(lb, ub)`` arrays of shape ``(m,)``.
    """
    query = np.asarray(query, dtype=np.float64)
    lowers = np.atleast_2d(np.asarray(lowers, dtype=np.float64))
    uppers = np.atleast_2d(np.asarray(uppers, dtype=np.float64))
    if lowers.shape != uppers.shape or lowers.shape[-1] != query.shape[-1]:
        raise ValueError("query, lowers and uppers must agree on dimension")
    below = np.maximum(lowers - query, 0.0)
    above = np.maximum(query - uppers, 0.0)
    lb = np.sqrt(np.sum((below + above) ** 2, axis=-1))
    far = np.maximum(np.abs(query - lowers), np.abs(query - uppers))
    ub = np.sqrt(np.sum(far**2, axis=-1))
    return lb, ub


def batch_rectangle_bounds(
    queries: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``rectangle_bounds`` for a query batch against one rectangle set.

    Performs the exact operation sequence of :func:`rectangle_bounds` per
    query — results are bitwise identical — but reuses two ``(m, d)``
    scratch buffers across the whole batch instead of allocating ~7
    temporaries per query, which dominates the kernel's cost at large
    candidate counts.

    Returns:
        ``(lb, ub)`` arrays of shape ``(Q, m)``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    lowers = np.atleast_2d(np.asarray(lowers, dtype=np.float64))
    uppers = np.atleast_2d(np.asarray(uppers, dtype=np.float64))
    if lowers.shape != uppers.shape or lowers.shape[-1] != queries.shape[-1]:
        raise ValueError("queries, lowers and uppers must agree on dimension")
    n_queries, (m, _) = len(queries), lowers.shape
    lb = np.empty((n_queries, m), dtype=np.float64)
    ub = np.empty((n_queries, m), dtype=np.float64)
    scratch_a = np.empty_like(lowers)
    scratch_b = np.empty_like(lowers)
    for i, query in enumerate(queries):
        # lb: (max(lo - q, 0) + max(q - hi, 0))^2 summed over dims.
        np.subtract(lowers, query, out=scratch_a)
        np.maximum(scratch_a, 0.0, out=scratch_a)
        np.subtract(query, uppers, out=scratch_b)
        np.maximum(scratch_b, 0.0, out=scratch_b)
        np.add(scratch_a, scratch_b, out=scratch_a)
        np.multiply(scratch_a, scratch_a, out=scratch_a)
        np.sum(scratch_a, axis=-1, out=lb[i])
        np.sqrt(lb[i], out=lb[i])
        # ub: max(|q - lo|, |q - hi|)^2 summed over dims.
        np.subtract(query, lowers, out=scratch_a)
        np.abs(scratch_a, out=scratch_a)
        np.subtract(query, uppers, out=scratch_b)
        np.abs(scratch_b, out=scratch_b)
        np.maximum(scratch_a, scratch_b, out=scratch_a)
        np.multiply(scratch_a, scratch_a, out=scratch_a)
        np.sum(scratch_a, axis=-1, out=ub[i])
        np.sqrt(ub[i], out=ub[i])
    return lb, ub


def error_vector_norms(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """``||eps(c)||`` per rectangle (Def. 10): norm of interval widths."""
    widths = np.atleast_2d(np.asarray(uppers) - np.asarray(lowers))
    return np.sqrt(np.sum(widths.astype(np.float64) ** 2, axis=-1))


def exact_distances(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``query`` to each row of ``points``."""
    query = np.asarray(query, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.sqrt(np.sum((points - query) ** 2, axis=-1))


def kth_smallest(values: np.ndarray, k: int) -> float:
    """The k-th smallest entry (1-based); +inf when fewer than k values.

    NaN entries raise: ``np.partition`` orders NaN after every number,
    so a NaN bound (e.g. from a corrupted degraded-mode read) would
    silently shift the k-th threshold instead of failing.
    """
    values = np.asarray(values, dtype=np.float64)
    if k <= 0:
        raise ValueError("k must be positive")
    if np.isnan(values).any():
        raise ValueError(
            "NaN among bound values; the k-th smallest is undefined "
            "(np.partition would silently order NaN last)"
        )
    if values.size < k:
        return float("inf")
    return float(np.partition(values, k - 1)[k - 1])


def drop_pruned(lower: np.ndarray, upper: np.ndarray, k: int) -> None:
    """Algorithm 1's early prune, in place: ``lb = ub = inf`` on every row
    with ``lb > kth_smallest(ub, k)``.

    The k-th smallest lower and upper bounds of the result equal those
    of the input: a pruned row's bounds both exceed the k-th smallest
    upper bound, and at least k rows have bounds no larger than it.
    """
    pruned = lower > kth_smallest(upper, k)
    lower[pruned] = np.inf
    upper[pruned] = np.inf
