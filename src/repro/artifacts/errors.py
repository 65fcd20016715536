"""Typed errors of the artifact subsystem."""

from __future__ import annotations


class ArtifactError(Exception):
    """A snapshot or object-store operation failed (corruption, missing
    members, unsupported component state)."""


class FormatVersionError(ValueError):
    """A persisted file carries the wrong (or no) format version.

    Distinct from :class:`ArtifactError` so loaders can tell *version
    skew* (rebuild the artifact with the current code) apart from
    *corruption* (the bytes are damaged).  Subclasses ``ValueError`` for
    backward compatibility with callers that caught the historical bare
    ``ValueError`` raised by the ``.npz`` dataset loader.

    Attributes:
        found: the version present in the file (None when missing).
        expected: the version this code writes and reads.
        path: the offending file, when known.
    """

    def __init__(
        self,
        found: int | None,
        expected: int,
        path: str | None = None,
    ) -> None:
        self.found = found
        self.expected = expected
        self.path = str(path) if path is not None else None
        where = f" in {self.path}" if self.path else ""
        got = "no format version" if found is None else f"format version {found}"
        super().__init__(
            f"unsupported persistence format{where}: found {got}, "
            f"expected version {expected}"
        )
