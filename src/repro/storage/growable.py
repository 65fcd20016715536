"""Capacity-doubling buffers for state that grows by small appends.

Growing an array with ``np.vstack``/``np.concatenate`` on every insert
reallocates and copies the whole array each time.  Besides the copy, the
allocator tends to keep the freed blocks, so peak RSS creeps up with
every write.  The owners of append-heavy arrays (the point file, the
mutable dataset, the C2LSH sorted runs) instead keep an owned buffer
with spare capacity along the growth axis and expose its used prefix as
a view; the prefix is what every reader sees.
"""

from __future__ import annotations

import numpy as np


def prefix(buffer: np.ndarray, n: int, axis: int = 0) -> np.ndarray:
    """The first ``n`` entries of ``buffer`` along ``axis`` (a view)."""
    return buffer[(slice(None),) * axis + (slice(0, n),)]


def reserve(
    buffer: np.ndarray | None, view: np.ndarray, extra: int, axis: int = 0
) -> np.ndarray:
    """A buffer holding ``view`` as its prefix, with room for ``extra`` more.

    ``buffer`` is reused when ``view`` is a prefix of it and it is large
    enough.  Otherwise (no buffer yet, too small, or ``view`` was
    replaced by a foreign array) a new buffer of at least twice the used
    length is allocated and ``view`` is copied in, so a caller's own
    array is never written to.
    """
    n = view.shape[axis]
    if (
        buffer is not None
        and view.base is buffer
        and buffer.shape[axis] >= n + extra
    ):
        return buffer
    shape = list(view.shape)
    shape[axis] = max(n + extra, 2 * n)
    grown = np.empty(shape, dtype=view.dtype)
    prefix(grown, n, axis)[...] = view
    return grown


def append_rows(
    buffer: np.ndarray | None, view: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Append ``rows`` after ``view``; returns ``(buffer, extended view)``."""
    n, extra = len(view), len(rows)
    buffer = reserve(buffer, view, extra)
    buffer[n : n + extra] = rows
    return buffer, buffer[: n + extra]
