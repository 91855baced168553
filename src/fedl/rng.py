"""Deterministic seeding and counter-based randomness.

Every random choice in the package flows either through a numpy Generator
seeded with :func:`fold_seed`, or through :func:`keep_mask`, a stateless
hash of integer coordinates.  Both are pure functions of their inputs, so
identical configurations produce bit-identical runs on any platform.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Rows hashed per pass of keep_mask: the leading MASK_BLOCK_ROWS x n_cols
# rows of its two uint64 scratch arrays stay in L2 cache at the network's
# widths.  A dropout layer lends it its own activation and dropout-output
# buffers, before the affine map fills them.
MASK_BLOCK_ROWS = 512


def _mix64(x: int) -> int:
    # splitmix64 finaliser
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def fold_seed(*parts: int) -> int:
    """Fold any number of integers into a single 64-bit seed.

    Order matters: fold_seed(1, 2) != fold_seed(2, 1).
    """
    state = 0
    for part in parts:
        state = _mix64((state + _GOLDEN + (int(part) & _MASK64)) & _MASK64)
    return state


def keep_mask(
    seed: int,
    tag: int,
    row_ids,
    n_cols: int,
    p: float,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | np.ndarray | None = None,
) -> np.ndarray:
    """Dropout keep-mask: 1.0 where the hash uniform at (row, column) is
    ``>= p``, else 0.0, as a float64 array of shape ``(len(row_ids), n_cols)``.

    The uniform at (i, j) is the top 53 bits of the splitmix64 finaliser of
    ``fold_seed(seed, tag) + row_ids[i]*M1 + j*G`` (mod 2^64), scaled by
    2^-53.  It depends only on ``(seed, tag, row_ids[i], j)`` — never on the
    batch shape — so a subset of rows gets exactly the rows it would get
    inside a larger batch.  The comparison runs on the integers: for
    ``0 <= p < 1``, ``u >= p`` holds exactly when the hash is at least
    ``ceil(p * 2^53) << 11``, since a 53-bit integer is exact in float64.

    ``out`` receives the mask when given; a bool ``out`` gets True/False.
    ``scratch`` is a pair of 2-d uint64 arrays of ``n_cols`` columns, each
    with at least ``min(len(row_ids), MASK_BLOCK_ROWS)`` rows (a
    ``(2, MASK_BLOCK_ROWS, n_cols)`` array unpacks as one).  They hold
    the hashes of one block of rows at a time, and any values in them are
    overwritten, so float64 buffers viewed as uint64 serve as well; without
    it the call allocates its own.
    """
    ids = np.asarray(row_ids)
    n = ids.shape[0]
    if out is None:
        out = np.empty((n, n_cols), dtype=np.float64)
    if scratch is None:
        scratch = np.empty((2, min(n, MASK_BLOCK_ROWS), n_cols), dtype=np.uint64)
    hashes, shifts = scratch
    base = np.uint64(fold_seed(seed, tag))
    cols = np.arange(n_cols, dtype=np.uint64) * np.uint64(_GOLDEN)
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    for start in range(0, n, MASK_BLOCK_ROWS):
        stop = min(start + MASK_BLOCK_ROWS, n)
        x = hashes[: stop - start]
        shifted = shifts[: stop - start]
        rows = ids[start:stop].astype(np.uint64) * np.uint64(_MIX1) + base
        np.add(rows[:, None], cols, out=x)
        for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(x, np.uint64(shift), out=shifted)
            np.bitwise_xor(x, shifted, out=x)
            np.multiply(x, np.uint64(multiplier), out=x)
        np.right_shift(x, np.uint64(31), out=shifted)
        np.bitwise_xor(x, shifted, out=x)
        np.greater_equal(x, threshold, out=out[start:stop])
    return out
