"""The paper's dense objects that no command computes, for checking dsym
against the definitions: the restricted Dicke vectors and their duals, the
bosonic and the D-symmetrizer, the pure separable states sigma_z and
|d-1>^N, the permutation operators of the parties, the offset-block supports
of a partial transpose and the D-symmetry test.  All are built from the
dense kernels of ``dsym.states``; they have real dtype except sigma_z."""

import numpy as np

from dsym.states import composition_counts, digit_sum_operator, digit_sums, digit_table, product_powers


def restricted_dicke_vector(N: int, d: int, k: int) -> np.ndarray:
    """R_k, the unnormalized sum of the basis vectors whose N digits sum to
    k; its squared norm is composition_counts(N, d)[k]."""
    if not 0 <= k <= N * (d - 1):
        raise ValueError(f"digit sum k={k} out of range [0, {N * (d - 1)}]")
    return (digit_sums(N, d) == k).astype(float)


def dual_restricted_dicke(N: int, d: int, k: int) -> np.ndarray:
    """The dual partner of R_k: R_k over its squared norm."""
    return restricted_dicke_vector(N, d, k) / composition_counts(N, d)[k]


def symmetrizer(N: int, d: int) -> np.ndarray:
    """Projection onto the permutation-symmetric (bosonic) subspace.

    Averaging over all N! permutations sends |i> to the uniform mixture of
    its digit rearrangements, so the matrix element between i and j is
    1/orbit_size when i and j share a digit multiset and 0 otherwise.
    """
    _, orbit, sizes = np.unique(
        np.sort(digit_table(N, d), axis=1), axis=0, return_inverse=True, return_counts=True
    )
    return np.where(orbit[:, None] == orbit[None, :], 1.0 / sizes[orbit][:, None], 0.0)


def d_symmetrizer(N: int, d: int) -> np.ndarray:
    """Projection averaging each basis vector over the tuples of its digit
    sum; its range, of dimension N(d-1)+1, is spanned by the R_k."""
    return digit_sum_operator(N, d, 1.0 / composition_counts(N, d))


def sigma_z(N: int, d: int, z: complex) -> np.ndarray:
    """Rank-1, trace-1 product state of N copies of the unit vector with
    amplitudes graded as (1, z, ..., z^(d-1)); z = 0 gives |0..0>.  With
    |d-1>^N these exhaust the pure separable D-symmetric states."""
    xi = np.array([complex(z) ** i for i in range(d)])
    vec = product_powers(N, d, [xi / np.linalg.norm(xi)])[0]
    return np.outer(vec, vec.conj())


def top_product_state(N: int, d: int) -> np.ndarray:
    """|d-1><d-1| tensored N times."""
    return digit_sum_operator(N, d, np.eye(N * (d - 1) + 1)[-1])


def permutation_operator(sigma, d: int) -> np.ndarray:
    """Permutation of the tensor factors: factor r of the output is factor
    sigma^{-1}(r) of the input, for a 0-based permutation tuple sigma."""
    N = len(sigma)
    if sorted(sigma) != list(range(N)):
        raise ValueError(f"{sigma} is not a permutation of 0..{N - 1}")
    # output digit at position sigma[r] is the input digit at position r
    target = digit_table(N, d) @ d ** (N - 1 - np.array(sigma, dtype=np.int64))
    F = np.zeros((d**N, d**N))
    F[target, np.arange(d**N)] = 1.0
    return F


def offset_supports(N: int, d: int, m: int) -> list[np.ndarray]:
    """Index sets of the digit-sum offset blocks of the partial transpose over
    the first m parties, one per offset s = -m(d-1)..(N-m)(d-1).

    With a and b an index's digit sums over the transposed and the kept group,
    block s holds the indices with b - a = s.  On it the partial transpose
    has entries p[a_i + b_j] = P_s[a_i, a_j], and it is zero outside the
    union of the blocks' index squares.  The supports do not depend on p.
    """
    digits = digit_table(N, d)
    offset = digits[:, m:].sum(axis=1) - digits[:, :m].sum(axis=1)
    return [np.flatnonzero(offset == s) for s in range(-m * (d - 1), (N - m) * (d - 1) + 1)]


def check_d_symmetry(rho: np.ndarray, N: int, d: int, tol: float = 1e-10) -> bool:
    """Whether rho is invariant under compression by the D-symmetrizer."""
    P = d_symmetrizer(N, d)
    return bool(np.linalg.norm(rho - P @ rho @ P) <= tol * np.linalg.norm(rho))
