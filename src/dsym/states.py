"""Restricted Dicke vectors and digit-sum symmetric (D-symmetric) operators.

Dense operators are plain complex numpy arrays of shape (d**N, d**N), with
rows and columns indexed by the big-endian digit convention of
``combinatorics.tuple_to_index``.  Dense construction is deliberately capped
(default d**N <= 4096, override with the DSYM_DENSE_CAP environment
variable): the dense path exists for verification, not production; the
Hankel classification path in the ppt/moment modules has no cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import count_compositions, digit_sums

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
    return (digit_sums(N, d) == k).astype(np.complex128)


def dual_restricted_dicke(N: int, d: int, k: int) -> np.ndarray:
    """Dual-basis partner: the restricted Dicke vector divided by its squared norm."""
    return restricted_dicke_vector(N, d, k) / count_compositions(N, k, d)


@lru_cache(maxsize=None)
def _multiset_orbits(N: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Group basis indices by digit multiset: (orbit id per index, orbit sizes)."""
    dim = d**N
    idx = np.arange(dim)
    digits = np.stack([(idx // d ** (N - 1 - r)) % d for r in range(N)], axis=1)
    digits.sort(axis=1)
    _, orbit_id, sizes = np.unique(
        digits, axis=0, return_inverse=True, return_counts=True
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
    return np.where(same, inv, 0.0).astype(np.complex128)


def d_symmetrizer(N: int, d: int) -> np.ndarray:
    """Projection averaging each basis vector over all tuples with the same
    digit sum; its range (dimension N(d-1)+1) is spanned by the restricted
    Dicke vectors.
    """
    check_dense_cap(N, d)
    sums = digit_sums(N, d)
    counts = np.array(
        [count_compositions(N, k, d) for k in range(N * (d - 1) + 1)], dtype=float
    )
    same = sums[:, None] == sums[None, :]
    inv = (1.0 / counts[sums])[:, None]
    return np.where(same, inv, 0.0).astype(np.complex128)


def build_state(spec: StateSpec, normalize: bool = False) -> np.ndarray:
    """Dense matrix of the diagonal restricted-Dicke state.

    Entry (i, j) equals p[k] when both digit sums are k, else 0.  The trace
    is sum_k p[k] * count_compositions(N, k, d).
    """
    check_dense_cap(spec.N, spec.d)
    sums = digit_sums(spec.N, spec.d)
    p = np.asarray(spec.p, dtype=float)
    rho = np.where(sums[:, None] == sums[None, :], p[sums][:, None], 0.0).astype(
        np.complex128
    )
    if normalize:
        tr = np.trace(rho).real
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
    vec = xi
    for _ in range(N - 1):
        vec = np.kron(vec, xi)
    return np.outer(vec, vec.conj())


def top_product_state(N: int, d: int) -> np.ndarray:
    """|d-1><d-1| tensored N times, as a dense matrix."""
    dim = check_dense_cap(N, d)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[dim - 1, dim - 1] = 1.0
    return rho
