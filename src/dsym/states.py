"""Restricted Dicke vectors and digit-sum symmetric (D-symmetric) operators.

Dense operators are numpy arrays of shape (d**N, d**N), with rows and
columns indexed by the big-endian digit convention of
``combinatorics.tuple_to_index``.  The restricted Dicke vectors have entries
0 and 1, so every operator diagonal in them (states, the D-symmetrizer, the
V/U witnesses) and the bosonic symmetrizer is real symmetric and built as
float64: its eigensolves then run in real arithmetic.  Only the product
states carry complex phases: ``product_powers``, ``sigma_z`` and separable
ensembles stay complex128.  Dense construction is deliberately capped
(default d**N <= 4096, override with the DSYM_DENSE_CAP environment
variable): the dense path exists for verification, not production; the
Hankel classification path in the ppt/moment modules has no cap.

Dense operators are built by two kernels over ``combinatorics.digit_table``:
``digit_sum_operator`` gives sum_k v_k |R_k><R_k| (states, the D-symmetrizer,
the V/U witnesses) and ``product_powers`` the tensor powers phi^(tensor N)
(product states, separable ensembles).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import composition_counts, count_compositions, digit_sums, digit_table

DEFAULT_DENSE_CAP = 4096


class DenseCapExceeded(ValueError):
    """Requested dense operator is larger than the configured cap."""


def dense_cap() -> int:
    return int(os.environ.get("DSYM_DENSE_CAP", DEFAULT_DENSE_CAP))


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
        p = tuple(float(x) for x in self.p)
        if len(p) != expected:
            raise ValueError(
                f"coefficient sequence must have length N(d-1)+1 = {expected}, "
                f"got {len(p)}"
            )
        if not all(math.isfinite(x) for x in p):
            raise ValueError("coefficients p_k must be finite")
        if any(x < 0 for x in p):
            raise ValueError("coefficients p_k must be nonnegative")
        object.__setattr__(self, "p", p)

    @property
    def num_levels(self) -> int:
        return self.N * (self.d - 1) + 1


def restricted_dicke_vector(N: int, d: int, k: int) -> np.ndarray:
    """Unnormalized sum of all basis vectors whose N digits sum to k.

    Squared norm equals count_compositions(N, k, d).
    """
    if k < 0 or k > N * (d - 1):
        raise ValueError(f"digit sum k={k} out of range [0, {N * (d - 1)}]")
    check_dense_cap(N, d)
    return (digit_sums(N, d) == k).astype(float)


def dual_restricted_dicke(N: int, d: int, k: int) -> np.ndarray:
    """Dual-basis partner: the restricted Dicke vector divided by its squared norm."""
    return restricted_dicke_vector(N, d, k) / count_compositions(N, k, d)


def digit_sum_operator(N: int, d: int, values) -> np.ndarray:
    """Dense real sum_k values[k] |R_k><R_k| over the restricted Dicke vectors
    R_k: entry (i, j) is values[k] when both digit sums are k, else 0."""
    check_dense_cap(N, d)
    values = np.asarray(values, dtype=float)
    if values.shape != (N * (d - 1) + 1,):
        raise ValueError(f"expected one value per digit sum 0..{N * (d - 1)}, got {values.shape}")
    sums = digit_sums(N, d)
    return np.multiply(sums[:, None] == sums[None, :], values[sums][:, None])


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


@lru_cache(maxsize=None)
def _multiset_orbits(N: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Group basis indices by digit multiset: (orbit id per index, orbit sizes)."""
    _, orbit_id, sizes = np.unique(
        np.sort(digit_table(N, d), axis=1), axis=0, return_inverse=True, return_counts=True
    )
    orbit_id.setflags(write=False)
    sizes.setflags(write=False)
    return orbit_id, sizes


def symmetrizer(N: int, d: int) -> np.ndarray:
    """Projection onto the permutation-symmetric (bosonic) subspace.

    Averaging over all N! permutations sends |i> to the uniform mixture of
    its digit rearrangements, so the matrix element between i and j is
    1/orbit_size when i and j share a digit multiset and 0 otherwise.
    """
    check_dense_cap(N, d)
    orbit_id, sizes = _multiset_orbits(N, d)
    same = orbit_id[:, None] == orbit_id[None, :]
    inv = (1.0 / sizes[orbit_id])[:, None]
    return np.where(same, inv, 0.0)


def d_symmetrizer(N: int, d: int) -> np.ndarray:
    """Projection averaging each basis vector over all tuples with the same
    digit sum; its range (dimension N(d-1)+1) is spanned by the restricted
    Dicke vectors.
    """
    check_dense_cap(N, d)
    return digit_sum_operator(N, d, 1.0 / composition_counts(N, d))


def build_state(spec: StateSpec, normalize: bool = False) -> np.ndarray:
    """Dense matrix of the diagonal restricted-Dicke state.

    Entry (i, j) equals p[k] when both digit sums are k, else 0.  The trace
    is sum_k p[k] * count_compositions(N, k, d).
    """
    check_dense_cap(spec.N, spec.d)
    rho = digit_sum_operator(spec.N, spec.d, spec.p)
    if normalize:
        tr = np.trace(rho)
        if tr <= 0:
            raise ValueError("cannot normalize a state with nonpositive trace")
        rho /= tr
    return rho


def sigma_z(N: int, d: int, z: complex) -> np.ndarray:
    """Rank-1, trace-1 product state built from N copies of the geometric
    vector; z = 0 degenerates to the all-zeros basis state.  Together with
    the top state |d-1>^N these exhaust the pure separable states in the
    digit-sum symmetric family.
    """
    check_dense_cap(N, d)
    # unit vector with geometrically graded amplitudes (1, z, ..., z^(d-1))
    xi = np.array([complex(z) ** i for i in range(d)])
    xi /= np.linalg.norm(xi)
    vec = product_powers(N, d, [xi])[0]
    return np.outer(vec, vec.conj())


def top_product_state(N: int, d: int) -> np.ndarray:
    """|d-1><d-1| tensored N times, as a dense matrix."""
    check_dense_cap(N, d)
    return digit_sum_operator(N, d, np.eye(N * (d - 1) + 1)[-1])
