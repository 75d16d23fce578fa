"""Digit-tuple counting and the digit table against brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest

from dsym.states import composition_counts, digit_sums, digit_table


def test_count_examples():
    assert composition_counts(3, 3)[0] == 1
    assert composition_counts(4, 2)[2] == 6
    assert composition_counts(2, 3)[2] == 3  # (0,2), (1,1), (2,0)


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("d", range(2, 5))
def test_count_matches_enumeration(N, d):
    counts = composition_counts(N, d)
    assert counts.dtype == np.float64 and counts.shape == (N * (d - 1) + 1,)
    np.testing.assert_array_equal(counts, np.bincount(digit_sums(N, d)))


@pytest.mark.parametrize("N,d", [(2, 2), (3, 3), (4, 2), (5, 3), (6, 4)])
def test_total_count_is_d_to_the_N(N, d):
    assert composition_counts(N, d).sum() == d**N


@pytest.mark.parametrize("N,d", [(3, 3), (4, 4), (5, 2), (6, 3)])
def test_reflection_symmetry(N, d):
    counts = composition_counts(N, d)
    np.testing.assert_array_equal(counts, counts[::-1])


def test_d2_reduces_to_binomials():
    for N in range(1, 13):
        assert composition_counts(N, 2).tolist() == [math.comb(N, k) for k in range(N + 1)]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        digit_table(0, 2)
    with pytest.raises(ValueError):
        digit_table(3, 1)


def _rows_with_sum(N, d, k):
    return [tuple(row) for row in digit_table(N, d)[digit_sums(N, d) == k].tolist()]


def test_enumerate_examples():
    assert _rows_with_sum(2, 2, 1) == [(0, 1), (1, 0)]
    assert _rows_with_sum(2, 3, 2) == [(0, 2), (1, 1), (2, 0)]
    assert _rows_with_sum(3, 2, 3) == [(1, 1, 1)]


def test_enumerate_is_lexicographic_and_complete():
    for N, d in [(3, 3), (4, 2), (2, 4)]:
        for k in range(N * (d - 1) + 1):
            tuples = _rows_with_sum(N, d, k)
            assert tuples == sorted(tuples)
            assert tuples == [t for t in itertools.product(range(d), repeat=N) if sum(t) == k]
            assert len(tuples) == composition_counts(N, d)[k]


def test_tuple_to_index_examples():
    # the basis index of a digit tuple is big-endian mixed radix
    assert digit_table(2, 2)[1].tolist() == [0, 1]
    assert digit_table(2, 2)[2].tolist() == [1, 0]
    assert digit_table(2, 3)[7].tolist() == [2, 1]


def test_tuple_to_index_bijective():
    for N, d in [(3, 2), (2, 4), (3, 3)]:
        indices = np.ravel_multi_index(digit_table(N, d).T, (d,) * N)
        np.testing.assert_array_equal(indices, np.arange(d**N))


def test_count_rejects_overflow_scale():
    with pytest.raises(ValueError):
        digit_table(64, 3)  # 3**64 > 2**64 - 1


def test_digit_sums_consistency():
    for N, d in [(2, 2), (3, 3), (4, 2)]:
        sums = digit_sums(N, d)
        table = digit_table(N, d)
        for t in itertools.product(range(d), repeat=N):
            index = np.ravel_multi_index(t, (d,) * N)
            assert sums[index] == sum(t)
            assert tuple(table[index]) == t
