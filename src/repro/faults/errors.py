"""The fault taxonomy: typed errors and their retryability classification.

Every failure the simulated storage/shard stack can produce falls into
one of two classes:

* **retryable** — transient device hiccups: :class:`TransientIOError`
  (a read that failed but would succeed if reissued),
  :class:`CorruptPageError` (a read whose payload failed validation and
  must be reissued) and generic ``OSError``; a bounded
  :class:`~repro.faults.retry.RetryPolicy` masks these.
* **fatal** — programming or protocol errors that retrying cannot fix:
  :class:`~repro.storage.disk.PageRangeError` (an out-of-range page id
  charged against the device), plus control-flow signals
  (:class:`DeadlineExceeded`, :class:`CircuitOpenError`) that mark a
  *policy* decision rather than a device failure.

:func:`is_retryable` encodes the classification once; the retry layer,
the circuit breaker and the degraded-answer path all consult it.
"""

from __future__ import annotations


class TransientIOError(IOError):
    """A read that failed now but is expected to succeed if reissued."""


class CorruptPageError(IOError):
    """A read whose payload failed validation (detectable corruption).

    The paper's cached codes are checksummable bit-packed rows; a
    corrupt page is *detected*, never silently consumed, so the correct
    response is to reissue the read — corruption is retryable.
    """


class DeadlineExceeded(RuntimeError):
    """A per-query or per-batch time budget ran out.

    Raised at phase boundaries and between refine rounds (by the
    protected fetcher) so the engine can fall back to a cache-only
    degraded answer.
    """


class CircuitOpenError(RuntimeError):
    """The refinement-I/O circuit breaker is open; no reads are issued."""


#: Errors that may legitimately reach the engine from the disk layer and
#: that the degraded path is allowed to absorb into a cache-only answer.
#: ``OSError`` covers ``IOError`` (same type) and hence the injected
#: transient/corrupt faults; ``PageRangeError`` is deliberately NOT an
#: ``OSError`` so it always propagates as a programming error.
DEGRADABLE_ERRORS = (OSError, DeadlineExceeded, CircuitOpenError)


def is_retryable(exc: BaseException) -> bool:
    """True when reissuing the failed operation can succeed.

    ``PageRangeError`` is fatal (the request itself is invalid) and is
    excluded structurally — it subclasses ``ValueError``, never
    ``OSError``; deadline/breaker signals are policy decisions, not
    device failures, so retrying them is meaningless.
    """
    if isinstance(exc, (DeadlineExceeded, CircuitOpenError)):
        return False
    return isinstance(exc, OSError)


def is_breaker_fault(exc: BaseException) -> bool:
    """True when the failure should count against the circuit breaker.

    Only genuine device failures (transient, corrupt, generic I/O) move
    the breaker; policy signals (never ``OSError``) and invalid requests
    (``PageRangeError`` is a ``ValueError``) do not.
    """
    return isinstance(exc, OSError)


def fault_reason(exc: BaseException) -> str:
    """Short label for metrics/outcome reporting of a degraded answer."""
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, CircuitOpenError):
        return "breaker_open"
    return "io_failure"
