"""Digit-tuple combinatorics for N parties with d levels each.

Everything downstream indexes the computational basis of (C^d)^(x N) by
N-tuples of digits in {0, ..., d-1}.  The central quantity is the number
of tuples with a fixed digit sum k, written ``count_compositions(N, k, d)``
(a generalized binomial coefficient; for d = 2 it is the ordinary binomial
coefficient C(N, k)).  There is no useful closed form for d > 2, so counts
are computed by the Pascal-style recurrence

    count(N, k) = sum_{j=0}^{min(k, d-1)} count(N-1, k-j)

with count(1, k) = 1 for 0 <= k <= d-1.

The dense layer reads every basis index from one cached table,
``digit_table(N, d)``, whose row i holds the digits of index i; digit sums,
digit multisets, product vectors and permuted indices all come from it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_UINT64_MAX = 2**64 - 1


def _validate_nd(N: int, d: int) -> None:
    if N < 1:
        raise ValueError(f"particle count N must be >= 1, got {N}")
    if d < 2:
        raise ValueError(f"local dimension d must be >= 2, got {d}")
    if d**N > _UINT64_MAX:
        raise ValueError(f"d**N = {d}**{N} exceeds the 64-bit count range")


@lru_cache(maxsize=None)
def _count_table(N: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Rows n = 0..N of digit-sum counts; row n has entries k = 0..n(d-1)."""
    rows = [(1,)]
    for n in range(1, N + 1):
        prev = rows[-1]
        row = []
        for k in range(n * (d - 1) + 1):
            lo = max(0, k - (d - 1))
            hi = min(k, (n - 1) * (d - 1))
            row.append(sum(prev[j] for j in range(lo, hi + 1)))
        rows.append(tuple(row))
    return tuple(rows)


def count_compositions(N: int, k: int, d: int) -> int:
    """Count N-tuples over {0..d-1} with digit sum k.

    Returns 0 for k outside [0, N(d-1)].
    """
    _validate_nd(N, d)
    rows = _count_table(N, d)
    row = rows[N]
    if k < 0 or k >= len(row):
        return 0
    return row[k]


@lru_cache(maxsize=None)
def composition_counts(N: int, d: int) -> np.ndarray:
    """count_compositions(N, k, d) for every k = 0..N(d-1), as a read-only
    float64 array: the coefficients of (1 + x + ... + x^(d-1))^N, from N
    convolutions.  Exact below 2**53, rounded above it, and inf beyond the
    float range; unlike count_compositions it has no 64-bit cap on d**N."""
    counts = np.ones(1)
    with np.errstate(over="ignore"):
        for _ in range(N):
            counts = np.convolve(counts, np.ones(d))
    counts.setflags(write=False)
    return counts


def enumerate_tuples(N: int, d: int, k: int) -> list[tuple[int, ...]]:
    """All N-tuples over {0..d-1} with digit sum k, in lexicographic order."""
    _validate_nd(N, d)
    if k < 0 or k > N * (d - 1):
        raise ValueError(f"digit sum k={k} out of range [0, {N * (d - 1)}]")
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        # the remaining slots can absorb at most slots*(d-1)
        lo = max(0, remaining - (slots - 1) * (d - 1))
        hi = min(d - 1, remaining)
        for digit in range(lo, hi + 1):
            extend(prefix + (digit,), remaining - digit, slots - 1)

    extend((), k, N)
    return out


def tuple_to_index(t: tuple[int, ...], d: int) -> int:
    """Big-endian mixed-radix index of a digit tuple: sum_r t_r * d**(N-1-r)."""
    if d < 2:
        raise ValueError(f"local dimension d must be >= 2, got {d}")
    idx = 0
    for digit in t:
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} out of range [0, {d - 1}]")
        idx = idx * d + digit
    return idx


@lru_cache(maxsize=None)
def digit_table(N: int, d: int) -> np.ndarray:
    """Base-d digits of every basis index 0..d**N-1, most significant first, as
    a read-only int array of shape (d**N, N): row tuple_to_index(t, d) is t."""
    _validate_nd(N, d)
    places = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
    table = (np.arange(d**N, dtype=np.int64)[:, None] // places) % d
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def digit_sums(N: int, d: int) -> np.ndarray:
    """Digit sum of every basis index 0..d**N-1, as a read-only int array."""
    sums = digit_table(N, d).sum(axis=1)
    sums.setflags(write=False)
    return sums
