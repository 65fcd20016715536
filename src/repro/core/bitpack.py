"""Exploit every bit: packing tau-bit codes into memory words.

The paper (footnote 5) packs the bit-string encoding of each point into
``ceil(d * tau / Lword)`` consecutive machine words, so a cache of size
``CS`` holds ``CS * 8 / (d * tau)`` approximate points rather than
``CS / (d * 4)`` exact ones.  ``BitPackedMatrix`` reproduces that layout:
a fixed-capacity table of rows, each ``ceil(d * tau / 64)`` uint64 words,
with vectorized pack/unpack.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


class BitPackedMatrix:
    """Fixed-capacity table of bit-packed code rows.

    Args:
        capacity: number of row slots.
        n_fields: codes per row (d for per-dimension encodings, 1 for
            multi-dimensional bucket ids).
        bits: bits per code (tau); codes must be < 2**bits.
    """

    def __init__(self, capacity: int, n_fields: int, bits: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if n_fields <= 0:
            raise ValueError("n_fields must be positive")
        if not 1 <= bits <= 63:
            raise ValueError(f"bits must be in [1, 63], got {bits}")
        self.capacity = capacity
        self.n_fields = n_fields
        self.bits = bits
        self.words_per_row = -(-n_fields * bits // WORD_BITS)
        self._words = np.zeros((capacity, self.words_per_row), dtype=np.uint64)
        starts = np.arange(n_fields, dtype=np.int64) * bits
        self._word_idx = (starts // WORD_BITS).astype(np.int64)
        self._offsets = (starts % WORD_BITS).astype(np.uint64)
        # How many bits of field j spill into the following word (0 = none).
        self._spill = np.maximum(
            self._offsets.astype(np.int64) + bits - WORD_BITS, 0
        ).astype(np.int64)
        self._mask = np.uint64((1 << bits) - 1)

    # ------------------------------------------------------------------
    @property
    def row_bits(self) -> int:
        """Bits of payload per row (d * tau), before word rounding."""
        return self.n_fields * self.bits

    @property
    def row_bytes(self) -> int:
        """Bytes actually occupied by one packed row."""
        return self.words_per_row * (WORD_BITS // 8)

    @property
    def nbytes(self) -> int:
        return self._words.nbytes

    @property
    def words(self) -> np.ndarray:
        """The raw ``(capacity, words_per_row)`` uint64 storage.

        Exposed read-mostly for decode-free bound kernels
        (:mod:`repro.core.kernels`); mutate rows through ``set_rows``.
        """
        return self._words

    def field_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-field ``(word_idx, bit_offset, spill_bits)`` int64 arrays.

        ``spill_bits[j] > 0`` means the top bits of field ``j`` continue
        in word ``word_idx[j] + 1`` — the layout contract native kernels
        must honor to decode without ``unpack_words``.
        """
        return (
            self._word_idx,
            self._offsets.astype(np.int64),
            self._spill,
        )

    # ------------------------------------------------------------------
    def _validate_codes(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        if codes.ndim == 1:
            codes = codes[None, :]
        if codes.shape[1] != self.n_fields:
            raise ValueError(
                f"expected {self.n_fields} fields per row, got {codes.shape[1]}"
            )
        if codes.size and (codes.min() < 0 or codes.max() > int(self._mask)):
            raise ValueError(f"codes must fit in {self.bits} bits")
        return codes.astype(np.uint64)

    def pack_rows(self, codes: np.ndarray) -> np.ndarray:
        """Pack ``(m, n_fields)`` codes into ``(m, words_per_row)`` words."""
        codes = self._validate_codes(codes)
        out = np.zeros((len(codes), self.words_per_row), dtype=np.uint64)
        for j in range(self.n_fields):
            v = codes[:, j]
            out[:, self._word_idx[j]] |= v << self._offsets[j]
            spill = self._spill[j]
            if spill > 0:
                out[:, self._word_idx[j] + 1] |= v >> np.uint64(self.bits - spill)
        return out

    def unpack_words(self, words: np.ndarray) -> np.ndarray:
        """Inverse of ``pack_rows``; returns ``(m, n_fields)`` int64 codes."""
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim == 1:
            words = words[None, :]
        # One gather of every field's first word, shifted into place;
        # fields straddling a word boundary then OR in their top bits.
        # ``np.take`` keeps the result C-contiguous (``words[:, idx]``
        # would not), which the kernels' row sums rely on.
        out = np.take(words, self._word_idx, axis=1)
        np.right_shift(out, self._offsets, out=out)
        spilled = np.flatnonzero(self._spill)
        if spilled.size:
            out[:, spilled] |= words[:, self._word_idx[spilled] + 1] << (
                self.bits - self._spill[spilled]
            ).astype(np.uint64)
        out &= self._mask
        # Masked codes are < 2**63, so the int64 view reads the same values.
        return out.view(np.int64)

    # ------------------------------------------------------------------
    def set_rows(self, slots: np.ndarray, codes: np.ndarray) -> None:
        """Write packed codes into the given row slots."""
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        packed = self.pack_rows(codes)
        if len(packed) != len(slots):
            raise ValueError("one code row per slot required")
        if slots.size and (slots.min() < 0 or slots.max() >= self.capacity):
            raise IndexError("slot out of range")
        self._words[slots] = packed

    def get_rows(self, slots: np.ndarray) -> np.ndarray:
        """Read and unpack the codes stored in the given row slots."""
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        if slots.size and (slots.min() < 0 or slots.max() >= self.capacity):
            raise IndexError("slot out of range")
        return self.unpack_words(self._words[slots])
