"""Diagonal restricted-Dicke states and their dense digit-sum kernels.

Everything dense indexes the computational basis of (C^d)^(x N) by N-tuples
of digits in {0, ..., d-1}, big-endian: row i of the cached table
``digit_table(N, d)`` holds the digits of basis index i, and digit sums and
product vectors all come from it.  ``composition_counts(N, d)[k]`` is the
number of tuples with digit sum k (a binomial coefficient for d = 2); it is
what the coefficient-sequence code needs of this module besides `StateSpec`.

The restricted Dicke vectors R_k, the sums of the basis vectors of digit
sum k, have entries 0 and 1, so every operator diagonal in them (states, the
V/U witnesses) is real symmetric and built as float64: its eigensolves then
run in real arithmetic.  Only the product states carry complex phases:
``product_powers`` and separable ensembles stay complex128.  Dense
construction is deliberately capped (default d**N <= 4096, override with the
DSYM_DENSE_CAP environment variable, an integer >= 1): the dense path exists
for verification, not production; ``states`` and ``oracle`` are the only
modules that build dense arrays, and the Hankel classification path in the
ppt/moment modules has no cap.

Dense operators are built by kernels over ``digit_table``:
``digit_sum_core`` gives the core of sum_k v_k |R_k><R_k|, the
(N(d-1)+1) x (N(d-1)+1) diag(v), with the digit sums as the index map: the
matrix is core[sums][:, sums]; ``digit_sum_operator`` writes it from them,
its N(d-1)+1 distinct rows first and then one row gather (states,
``oracle.witness_matrix``); ``product_powers`` gives the tensor powers
phi^(tensor N) (``oracle.ensemble_matrix``).  No d**N x d**N temporary is
made, and the CLI's dense check stops at the core:
``oracle.dense_ppt_check`` takes a state as its core and index map.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_UINT64_MAX = 2**64 - 1
DEFAULT_DENSE_CAP = 4096


class DenseCapExceeded(ValueError):
    """Requested dense operator is larger than the configured cap."""


def dense_cap() -> int:
    """The cap on d**N: DSYM_DENSE_CAP, an integer >= 1, or the default."""
    text = os.environ.get("DSYM_DENSE_CAP", str(DEFAULT_DENSE_CAP))
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise ValueError(f"DSYM_DENSE_CAP must be an integer >= 1, got {text!r}")
    return int(text)


def check_dense_cap(N: int, d: int) -> int:
    """Return d**N after verifying it is within the dense cap."""
    dim = d**N
    cap = dense_cap()
    if dim > cap:
        raise DenseCapExceeded(
            f"dense dimension d**N = {d}**{N} = {dim} exceeds cap {cap} "
            "(set DSYM_DENSE_CAP to raise it)"
        )
    return dim


def _validate_nd(N: int, d: int) -> None:
    if N < 1:
        raise ValueError(f"particle count N must be >= 1, got {N}")
    if d < 2:
        raise ValueError(f"local dimension d must be >= 2, got {d}")
    if d**N > _UINT64_MAX:
        raise ValueError(f"d**N = {d}**{N} exceeds the 64-bit count range")


@lru_cache(maxsize=None)
def composition_counts(N: int, d: int) -> np.ndarray:
    """The number of N-tuples over {0..d-1} with digit sum k, for every
    k = 0..N(d-1), as a read-only float64 array: the coefficients of
    (1 + x + ... + x^(d-1))^N, from N convolutions.  Exact below 2**53,
    rounded above it, and inf beyond the float range; no cap on d**N."""
    counts = np.ones(1)
    with np.errstate(over="ignore"):
        for _ in range(N):
            counts = np.convolve(counts, np.ones(d))
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def digit_table(N: int, d: int) -> np.ndarray:
    """Base-d digits of every basis index 0..d**N-1, most significant first, as
    a read-only int array of shape (d**N, N): row sum_r t_r d**(N-1-r) is t."""
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


@dataclass(frozen=True)
class StateSpec:
    """Diagonal restricted-Dicke state: the coefficient of the rank-1 term on
    the digit-sum-k subspace is p[k], for k = 0..N(d-1).

    States are kept unnormalized; ``build_state(spec, normalize=True)``
    divides by the trace.
    """

    N: int
    d: int
    p: tuple[float, ...]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        expected = self.N * (self.d - 1) + 1
        p = tuple(map(float, self.p))
        if len(p) != expected:
            raise ValueError(
                f"coefficient sequence must have length N(d-1)+1 = {expected}, "
                f"got {len(p)}"
            )
        if not all(map(math.isfinite, p)):
            raise ValueError("coefficients p_k must be finite")
        if min(p) < 0:
            raise ValueError("coefficients p_k must be nonnegative")
        object.__setattr__(self, "p", p)


def digit_sum_core(N: int, d: int, values) -> tuple[np.ndarray, np.ndarray]:
    """The core of sum_k values[k] |R_k><R_k| and its index map, as
    (core, sums): core is diag(values), (N(d-1)+1) x (N(d-1)+1) with +0.0
    off the diagonal, and sums holds the digit sums, so the matrix is
    core[sums][:, sums] (values[k] where both digit sums are k, else +0.0,
    also when values[k] is negative).  Checks the dense cap like the matrix
    it stands for."""
    check_dense_cap(N, d)
    values = np.asarray(values, dtype=float)
    if values.shape != (N * (d - 1) + 1,):
        raise ValueError(f"expected one value per digit sum 0..{N * (d - 1)}, got {values.shape}")
    return np.diag(values), digit_sums(N, d)


def digit_sum_operator(N: int, d: int, values) -> np.ndarray:
    """Dense real sum_k values[k] |R_k><R_k| over the restricted Dicke vectors
    R_k: entry (i, j) is values[k] when both digit sums are k, else +0.0
    (also when values[k] is negative).  Its distinct rows, one per digit
    sum, are gathered from the core first, then the matrix from them."""
    core, sums = digit_sum_core(N, d, values)
    return core.take(sums, axis=1).take(sums, axis=0)


def product_powers(N: int, d: int, phis) -> np.ndarray:
    """Row t is the product vector phis[t]^(tensor N), for a (T, d) array of
    single-party vectors: entry i multiplies phis[t] at each digit of i."""
    check_dense_cap(N, d)
    phis = np.asarray(phis, dtype=np.complex128)
    if phis.ndim != 2 or phis.shape[1] != d:
        raise ValueError(f"expected a (T, {d}) array of single-party vectors, got {phis.shape}")
    vecs = np.ones((len(phis), d**N), dtype=np.complex128)
    for column in digit_table(N, d).T:
        vecs *= phis[:, column]
    return vecs


def build_state(spec: StateSpec, normalize: bool = False) -> np.ndarray:
    """Dense matrix of the diagonal restricted-Dicke state.

    Entry (i, j) equals p[k] when both digit sums are k, else 0.  The trace
    is sum_k p[k] * composition_counts(N, d)[k].
    """
    rho = digit_sum_operator(spec.N, spec.d, spec.p)
    if normalize:
        tr = np.trace(rho)
        if tr <= 0:
            raise ValueError("cannot normalize a state with nonpositive trace")
        rho /= tr
    return rho
