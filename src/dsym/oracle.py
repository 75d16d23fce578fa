"""Dense brute-force ground truth for small systems.

Everything here materializes d**N-sized arrays (subject to the dense cap) and
is meant for validating the Hankel fast path and its certificates, not for
production classification; with the dense kernels of ``states``, this is the
only module that builds them.  Partial transposes are exact entry
permutations (digit swaps between row and column indices), never Kronecker
products of transpose maps, so they keep the dtype of their input: the real
states of ``states.build_state`` give real partial transposes, eigensolved in
real symmetric arithmetic, while complex inputs (product states, separable
ensembles) stay complex.  Permutation operators are real.

A spectrum is taken from one quotient of the matrix by its equal rows,
found from the matrix alone (no digit sums, no Hankel blocks), so the
oracle's verdict stays independent of `ppt`.  Equal rows i and j of a
Hermitian matrix make e_i - e_j a null vector, and the rest of its spectrum
is that of D^1/2 M[r, r] D^1/2 on one row r per class of equal rows, with D
the class sizes.  With a and b an index's digit sums over the transposed
and the kept parties, the partial transpose of a diagonal D-symmetric state
has entry p[a_i + b_j] where b_i - a_i = b_j - a_j and 0 elsewhere, so its
row i depends on (a_i, b_i) alone: for w transposed parties the quotient
has at most (w(d - 1) + 1)((N - w)(d - 1) + 1) rows.  On 2^10 with w = 5
one 36 x 36 eigensolve replaces the 1024 x 1024 one.  The finite and
Hermitian tests cover every entry, yet past the row hash and the row
compare they read only the distinct rows.

The dense forms of the production certificates, for tests, are
``witness_matrix`` (a ``WitnessSpec``) and ``ensemble_matrix`` (a
``SeparableEnsemble``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import composition_counts, digit_table
from .decompose import SeparableEnsemble
from .ppt import DEFAULT_PSD_TOL, PsdCheck
from .states import (
    StateSpec,
    build_state,
    check_dense_cap,
    d_symmetrizer,
    digit_sum_operator,
    product_powers,
)
from .witnesses import FAMILY_SHIFT, WitnessSpec


def _validate_mask(mask, N: int) -> tuple[int, ...]:
    mask = tuple(int(b) for b in mask)
    if len(mask) != N:
        raise ValueError(f"mask length {len(mask)} does not match N={N}")
    if any(b not in (0, 1) for b in mask):
        raise ValueError(f"mask entries must be 0 or 1, got {mask}")
    return mask


def partial_transpose(rho: np.ndarray, mask, d: int) -> np.ndarray:
    """Transpose the parties flagged by the 0/1 mask.

    Implemented by reshaping to 2N digit axes and swapping the row/column
    axis of each masked party; involutive and trace-preserving by
    construction.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    N = round(np.log(dim) / np.log(d))
    if d**N != dim or rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} is not (d**N, d**N) for d={d}")
    mask = _validate_mask(mask, N)
    axes = list(range(2 * N))
    for party, bit in enumerate(mask):
        if bit:
            axes[party], axes[N + party] = axes[N + party], axes[party]
    return rho.reshape((d,) * (2 * N)).transpose(axes).reshape(dim, dim)


def permutation_operator(sigma, d: int) -> np.ndarray:
    """Unitary permutation of tensor factors: factor r of the output is
    factor sigma^{-1}(r) of the input.  `sigma` is a 0-based permutation
    tuple (sigma[r] = image of position r)."""
    sigma = tuple(int(s) for s in sigma)
    N = len(sigma)
    if sorted(sigma) != list(range(N)):
        raise ValueError(f"{sigma} is not a permutation of 0..{N - 1}")
    dim = check_dense_cap(N, d)
    # output digit at position sigma[r] is the input digit at position r
    target = digit_table(N, d) @ d ** (N - 1 - np.array(sigma, dtype=np.int64))
    F = np.zeros((dim, dim))
    F[target, np.arange(dim)] = 1.0
    return F


def offset_supports(N: int, d: int, m: int) -> list[np.ndarray]:
    """Index sets of the digit-sum offset blocks of the partial transpose over
    the first m parties, one per offset s = -m(d-1)..(N-m)(d-1).

    With a and b an index's digit sums over the transposed and the kept group,
    block s holds the indices with b - a = s.  On it the partial transpose
    has entries p[a_i + b_j] = P_s[a_i, a_j], and it is zero outside the
    union of the blocks' index squares.  The supports do not depend on p.
    """
    if not 1 <= m <= N - 1:
        raise ValueError(f"m must be in [1, {N - 1}], got {m}")
    check_dense_cap(N, d)
    digits = digit_table(N, d)
    offset = digits[:, m:].sum(axis=1) - digits[:, :m].sum(axis=1)
    return [np.flatnonzero(offset == s) for s in range(-m * (d - 1), (N - m) * (d - 1) + 1)]


def witness_matrix(w: WitnessSpec) -> np.ndarray:
    """Dense real matrix of a V or U witness with coefficients c:
    sum_{k,l} c_k conj(c_l) |dual_j><dual_j| with j = k + l + shift.  That
    is one real weight per degree j (the convolution of c with conj(c)), and
    |dual_j><dual_j| = |R_j><R_j| / count_j^2."""
    coeffs = np.asarray(w.coeffs, dtype=np.complex128)
    counts = composition_counts(w.N, w.d)
    shift = FAMILY_SHIFT[w.family]
    weights = np.zeros(len(counts))
    weights[shift : shift + 2 * len(coeffs) - 1] = np.convolve(coeffs, np.conj(coeffs)).real
    return digit_sum_operator(w.N, w.d, weights / counts**2)


def ensemble_matrix(e: SeparableEnsemble) -> np.ndarray:
    """sum_t weight_t |phi_t><phi_t|^(tensor N), as one matrix product."""
    top = np.eye(e.d)[e.d - 1]
    weights = np.array([weight for weight, _ in e.terms], dtype=float)
    phis = [top if isinstance(phi, str) else phi for _, phi in e.terms]
    vecs = product_powers(e.N, e.d, np.reshape(phis, (len(phis), e.d)))
    return (vecs.T * weights) @ vecs.conj()


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """n fixed random weights on [1, 2), read-only: the row hash of an
    n x n matrix is its product with them."""
    probe = np.random.default_rng(0x5EED).uniform(1.0, 2.0, n)
    probe.flags.writeable = False
    return probe


def _extreme_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix, from one
    eigensolve of its quotient by equal rows.

    If rows i and j of a Hermitian M are equal, so are columns i and j.
    With one row r per class of equal rows, A = M[r, r] and S the 0/1
    class-membership matrix, M = S^T A S and S S^T = D, the class sizes.
    The spectrum of M is therefore that of C = D^1/2 A D^1/2, plus an
    exact 0 when a class has two rows i and j: e_i - e_j is a null vector.

    Classes are named by a row hash (the product with ``_probe``) and
    confirmed by one exact compare; a row unlike its candidate is a class
    of its own, so a hash miss or collision costs quotient size, never
    correctness.  Every row of M equals one of R = M[r], so the finite test
    on R tests every entry; and when the columns of R are equal within
    each class too, M - M^H repeats the entries of A - A^H, so the
    Hermitian test to 1e-12 * max(1, max|M|) runs on A, else on M.
    """
    M = np.ascontiguousarray(M)  # one layout, so one row hash for every layout
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = len(M)
    if not n:
        raise ValueError("matrix is empty")
    # einsum sums every row in one order; a BLAS gemv runs its last rows
    # through another kernel, so equal rows there would hash apart
    with np.errstate(invalid="ignore", over="ignore"):  # inf rows hash to nan
        h = np.einsum("ij,j->i", M, _probe(n))
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]
    # compared in slices of ~2^16 entries: no second n x n array, and faster
    step = max(1, 2**16 // n)
    same = [(M[i : i + step] == M[rep[i : i + step]]).all(axis=1) for i in range(0, n, step)]
    rep = np.where(np.concatenate(same), rep, np.arange(n))
    reps, cls, sizes = np.unique(rep, return_inverse=True, return_counts=True)
    R = M[reps]
    scale = float(abs(R).max())
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    A = R[:, reps]
    H = A if (R == A[:, cls]).all() else M
    if abs(H - H.conj().T).max() > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not Hermitian")
    root = np.sqrt(sizes)
    spectrum = np.linalg.eigvalsh(A * root[:, None] * root[None, :])
    if len(reps) < n:
        spectrum = np.append(spectrum, 0.0)  # the null vectors' eigenvalue
    return float(spectrum.min()), float(spectrum.max())


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, from its quotient by
    equal rows."""
    return _extreme_eigenvalues(M)[0]


def dense_ppt_check(rho: np.ndarray, mask, d: int, tol: float = DEFAULT_PSD_TOL):
    """Partial-transpose PSD status of a dense state from the extremes of
    its partial transpose's spectrum: (status, lam_min, lam_max).
    Raises ValueError if the partial transpose is not Hermitian."""
    lam_min, lam_max = _extreme_eigenvalues(partial_transpose(rho, mask, d))
    return PsdCheck.from_extremes(lam_min, lam_max, tol).status, lam_min, lam_max


@dataclass(frozen=True)
class MaskAgreement:
    mask_a: tuple[int, ...]
    mask_b: tuple[int, ...]
    lam_min_a: float
    lam_min_b: float
    difference: float
    status_a: str
    status_b: str

    @property
    def agree(self) -> bool:
        return self.status_a == self.status_b


def check_mask_equivalence(
    spec: StateSpec, mask_a, mask_b, tol: float = DEFAULT_PSD_TOL
) -> MaskAgreement:
    """Compare dense PPT verdicts under two transpose masks of equal weight.

    For permutation-symmetric states only the number of transposed parties
    matters, so the two minimum eigenvalues must coincide.
    """
    mask_a = _validate_mask(mask_a, spec.N)
    mask_b = _validate_mask(mask_b, spec.N)
    if sum(mask_a) != sum(mask_b):
        raise ValueError(
            f"masks have different weights: {sum(mask_a)} vs {sum(mask_b)}"
        )
    rho = build_state(spec)
    status_a, lam_a, _ = dense_ppt_check(rho, mask_a, spec.d, tol)
    status_b, lam_b, _ = dense_ppt_check(rho, mask_b, spec.d, tol)
    return MaskAgreement(
        mask_a, mask_b, lam_a, lam_b, abs(lam_a - lam_b), status_a, status_b
    )


def check_d_symmetry(rho: np.ndarray, N: int, d: int, tol: float = 1e-10) -> bool:
    """Whether rho is invariant under compression by the digit-sum projector."""
    rho = np.asarray(rho)
    dim = check_dense_cap(N, d)
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} does not match d**N = {dim}")
    P = d_symmetrizer(N, d)
    norm = np.linalg.norm(rho)
    if norm == 0:
        return True
    return bool(np.linalg.norm(rho - P @ rho @ P) < tol * norm)
