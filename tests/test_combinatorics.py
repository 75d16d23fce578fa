"""Digit-tuple counting against brute-force enumeration."""

import itertools
import math

import pytest

from dsym.combinatorics import (
    count_compositions,
    digit_sums,
    digit_table,
    enumerate_tuples,
    tuple_to_index,
)


def brute_count(N: int, k: int, d: int) -> int:
    return sum(1 for t in itertools.product(range(d), repeat=N) if sum(t) == k)


def test_count_examples():
    assert count_compositions(3, 0, 3) == 1
    assert count_compositions(4, 2, 2) == 6
    assert count_compositions(2, 2, 3) == 3  # (0,2), (1,1), (2,0)


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("d", range(2, 5))
def test_count_matches_enumeration(N, d):
    for k in range(-1, N * (d - 1) + 2):
        assert count_compositions(N, k, d) == brute_count(N, k, d)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 3), (4, 2), (5, 3), (6, 4)])
def test_total_count_is_d_to_the_N(N, d):
    assert sum(count_compositions(N, k, d) for k in range(N * (d - 1) + 1)) == d**N


@pytest.mark.parametrize("N,d", [(3, 3), (4, 4), (5, 2), (6, 3)])
def test_reflection_symmetry(N, d):
    top = N * (d - 1)
    for k in range(top + 1):
        assert count_compositions(N, k, d) == count_compositions(N, top - k, d)


def test_d2_reduces_to_binomials():
    for N in range(1, 13):
        for k in range(N + 1):
            assert count_compositions(N, k, 2) == math.comb(N, k)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        count_compositions(0, 0, 2)
    with pytest.raises(ValueError):
        count_compositions(3, 0, 1)


def test_enumerate_examples():
    assert enumerate_tuples(2, 2, 1) == [(0, 1), (1, 0)]
    assert enumerate_tuples(2, 3, 2) == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_tuples(3, 2, 3) == [(1, 1, 1)]


def test_enumerate_is_lexicographic_and_complete():
    for N, d in [(3, 3), (4, 2), (2, 4)]:
        for k in range(N * (d - 1) + 1):
            tuples = enumerate_tuples(N, d, k)
            assert tuples == sorted(tuples)
            assert len(tuples) == count_compositions(N, k, d)
            assert all(sum(t) == k for t in tuples)
            assert len(set(tuples)) == len(tuples)


def test_enumerate_out_of_range():
    with pytest.raises(ValueError):
        enumerate_tuples(2, 2, 3)
    with pytest.raises(ValueError):
        enumerate_tuples(2, 2, -1)


def test_tuple_to_index_examples():
    assert tuple_to_index((0, 1), 2) == 1
    assert tuple_to_index((1, 0), 2) == 2
    assert tuple_to_index((2, 1), 3) == 7


def test_tuple_to_index_bijective():
    for N, d in [(3, 2), (2, 4), (3, 3)]:
        seen = {
            tuple_to_index(t, d)
            for t in itertools.product(range(d), repeat=N)
        }
        assert seen == set(range(d**N))


def test_tuple_to_index_rejects_bad_digit():
    with pytest.raises(ValueError):
        tuple_to_index((0, 2), 2)


def test_count_rejects_overflow_scale():
    with pytest.raises(ValueError):
        count_compositions(64, 0, 3)  # 3**64 > 2**64 - 1


def test_digit_sums_consistency():
    for N, d in [(2, 2), (3, 3), (4, 2)]:
        sums = digit_sums(N, d)
        table = digit_table(N, d)
        for t in itertools.product(range(d), repeat=N):
            assert sums[tuple_to_index(t, d)] == sum(t)
            assert tuple(table[tuple_to_index(t, d)]) == t
