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

A spectrum is taken one connected component of the matrix's nonzero
pattern at a time, with the components found from the matrix alone (no
digit sums, no Hankel blocks), so the oracle's verdict stays independent of
`ppt`.  When every p_k > 0, the components of a diagonal D-symmetric state's
partial transpose are its digit-sum offset blocks, whose index sets
``offset_supports`` gives (zero coefficients split them further); this makes
the eigensolve work on 2^10 32x smaller than one 1024 x 1024 eigvalsh.

The dense forms of the production certificates, for tests, are
``witness_matrix`` (a ``WitnessSpec``) and ``ensemble_matrix`` (a
``SeparableEnsemble``)."""

from __future__ import annotations

from dataclasses import dataclass

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


def _components(M: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a square matrix's nonzero
    pattern.  An entry whose mirror is zero still joins its two indices.

    An index with no off-diagonal nonzero in its row is a set of its own.
    Every other set is grown from its lowest unassigned index by OR-ing the
    pattern rows of the indices it reached last, until none is new.  Each
    set then holds every nonzero of its rows, so when the sets are disjoint
    they are the components and hold every nonzero of M.  Only an entry
    whose mirror is zero can make two sets overlap (its row reaches an index
    whose row does not reach back); then the sets are grown again on the
    pattern read from both triangles.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    pattern = M != 0
    np.fill_diagonal(pattern, True)
    components = _row_closures(pattern)
    if sum(map(len, components)) > len(M):
        components = _row_closures(pattern | pattern.T)
    return components


def _row_closures(pattern: np.ndarray) -> list[np.ndarray]:
    seen = pattern.sum(axis=1) == 1
    components = list(seen.nonzero()[0][:, None])
    while not seen[seed := seen.argmin()]:
        reach = new = pattern[seed]
        while np.count_nonzero(new):
            new = np.logical_or.reduce(pattern[new]) > reach  # reached for the first time
            reach = reach | new
        seen |= reach
        components.append(reach.nonzero()[0])
    return components


def _extreme_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The matrix is the direct sum of its diagonal blocks on the components of
    its nonzero pattern, so its spectrum is theirs: blocks of equal size are
    stacked into one eigvalsh call.  Every nonzero entry lies in a block, so
    testing the blocks to 1e-12 * max(1, max|M|) is the whole-matrix
    Hermitian test.
    """
    M = np.asarray(M)
    by_size = {}
    for c in _components(M):
        by_size.setdefault(len(c), []).append(c)
    # one (blocks, size, size) stack per size
    stacks = [M[idx[:, :, None], idx[:, None, :]] for idx in map(np.array, by_size.values())]
    entries = np.concatenate([B.ravel() for B in stacks])
    mirrors = np.concatenate([B.swapaxes(-1, -2).ravel() for B in stacks])
    scale = max(1.0, float(abs(entries).max()))
    if abs(entries - mirrors.conj()).max() > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    spectra = np.concatenate([np.linalg.eigvalsh(B).ravel() for B in stacks])
    return float(spectra.min()), float(spectra.max())


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, from its pattern's blocks."""
    return _extreme_eigenvalues(M)[0]


def dense_ppt_check(rho: np.ndarray, mask, d: int, tol: float = DEFAULT_PSD_TOL):
    """Partial-transpose PSD status of a dense state from the spectrum of
    its partial transpose, block by block: (status, lam_min, lam_max).
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
