import math

import numpy as np
import pytest

from fedl.rng import _MIX1, _MIX2, MASK_BLOCK_ROWS, fold_seed, keep_mask
from helpers import uniform_hash

B = MASK_BLOCK_ROWS
PROBABILITIES = [2.0**-53, 0.15, 0.5, 1.0 - 2.0**-53]
M64 = 2**64


def _row_hashing_to(seed: int, tag: int, target: int) -> int:
    """The row id whose column-0 hash is ``target``: the splitmix64
    finaliser inverted step by step (xor-shifts by fixed-point iteration,
    odd multipliers by their inverse mod 2^64)."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = unshift(target, 31) * pow(_MIX2, -1, M64) % M64
    x = unshift(x, 27) * pow(_MIX1, -1, M64) % M64
    x = unshift(x, 30)
    return (x - fold_seed(seed, tag)) * pow(_MIX1, -1, M64) % M64


@pytest.mark.parametrize("p", PROBABILITIES)
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_keep_mask_equals_float_hash_comparison(p, n):
    ids = np.arange(n, dtype=np.int64) * 7 + 3
    mask = keep_mask(11, 2, ids, 5, p)
    assert mask.dtype == np.float64 and mask.shape == (n, 5)
    expected = (uniform_hash(11, 2, ids, 5) >= p).astype(np.float64)
    assert np.array_equal(mask, expected)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_keep_mask_wraps_row_ids_near_two_to_the_64(p):
    # row * M1 + base overflows uint64 and must wrap as the float hash does
    ids = np.array([2**64 - 1, 2**64 - 2, 2**63, 2**63 - 1, 0], dtype=np.uint64)
    assert np.array_equal(
        keep_mask(3, 1, ids, 64, p),
        (uniform_hash(3, 1, ids, 64) >= p).astype(np.float64),
    )


@pytest.mark.parametrize("p", PROBABILITIES)
def test_keep_mask_at_the_threshold_hash(p):
    # rows whose uniform is exactly the smallest kept value k/2^53, and the
    # one below it: only an exact integer threshold k = ceil(p * 2^53) splits them
    k = math.ceil(p * 2**53)
    ids = np.array(
        [_row_hashing_to(4, 1, k << 11), _row_hashing_to(4, 1, (k << 11) - 1)],
        dtype=np.uint64,
    )
    u = uniform_hash(4, 1, ids, 1)[:, 0]
    assert u[0] == k * 2.0**-53 and u[0] >= p > u[1]
    assert keep_mask(4, 1, ids, 1, p)[:, 0].tolist() == [1.0, 0.0]


def test_keep_mask_thresholds_at_the_extremes():
    # the smallest p drops only a hash whose top 53 bits are all zero; the
    # largest keeps only one whose top 53 bits are all one
    ids = np.arange(2 * B + 1)
    assert keep_mask(5, 0, ids, 32, 2.0**-53).all()
    assert not keep_mask(5, 0, ids, 32, 1.0 - 2.0**-53).any()


def test_keep_mask_writes_into_out_and_scratch_it_is_given():
    ids = np.arange(B + 3)
    out = np.full((B + 3, 4), 7.0)
    scratch = np.empty((2, B, 4), dtype=np.uint64)
    result = keep_mask(9, 4, ids, 4, 0.3, out=out, scratch=scratch)
    assert result is out
    assert np.array_equal(out, keep_mask(9, 4, ids, 4, 0.3))


@pytest.mark.parametrize("n_cols", [1, 64])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
def test_keep_mask_hashes_in_float_buffers_viewed_as_uint64(n, n_cols):
    # a dropout layer lends keep_mask its n-row float64 activation and
    # output buffers, which hold stale values from an earlier step
    ids = np.arange(n, dtype=np.int64) * 5 + 2
    fills = np.array([np.nan, -1.5])
    scratch = [np.full((n, n_cols), fill).view(np.uint64) for fill in fills]
    mask = keep_mask(6, 1, ids, n_cols, 0.15, scratch=scratch)
    assert np.array_equal(mask, keep_mask(6, 1, ids, n_cols, 0.15))
    for buffer, fill in zip(scratch, fills.view(np.uint64)):
        assert (buffer[0] != fill).any()  # the hash ran in the buffer


def test_keep_mask_rows_do_not_depend_on_the_batch():
    ids = np.arange(3 * B, dtype=np.int64)
    full = keep_mask(1, 1, ids, 8, 0.15)
    subset = np.array([5, B + 1, 2 * B + 9, 0])
    assert np.array_equal(keep_mask(1, 1, subset, 8, 0.15), full[subset])


def test_fold_seed_depends_on_argument_order():
    assert fold_seed(1, 2) != fold_seed(2, 1)
    assert fold_seed(0, 7, 3) != fold_seed(0, 3, 7)
    assert fold_seed(1, 2) == fold_seed(1, 2)
    assert 0 <= fold_seed(2**70, -1) < 2**64
