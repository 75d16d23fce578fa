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
pattern at a time, and each component on its quotient by identical rows,
with both found from the matrix alone (no digit sums, no Hankel blocks), so
the oracle's verdict stays independent of `ppt`.  Rows i and j of a
Hermitian block that are equal make e_i - e_j a null vector, and the rest
of the block's spectrum is that of the quotient D^1/2 B[r, r] D^1/2 on one
row r per class of equal rows, with D the class sizes.  When every p_k > 0,
the components of a diagonal D-symmetric state's partial transpose are its
digit-sum offset blocks, whose index sets ``offset_supports`` gives (zero
coefficients split them further).  A block's entries are p[a_i + b_j], and
b - a is fixed on it, so its rows depend on a alone: each quotient has at
most min(w, N - w)(d - 1) + 1 rows for w transposed parties.  On 2^10 with
w = 5 the largest eigensolve is 6 x 6, not 252 x 252.  The blocks of one
size are gathered as one stack by a single ``take`` on flat indices of the
matrix, and the finite and Hermitian tests run stack by stack: past its
nonzero pattern, no step reads the whole d**N x d**N matrix (``ravel``
copies it once if it is not C-contiguous).

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
    pattern read from both triangles.  An empty matrix raises ValueError.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not len(M):
        raise ValueError("matrix is empty")
    pattern = M != 0
    np.fill_diagonal(pattern, False)
    components = _row_closures(pattern)
    if sum(map(len, components)) > len(M):
        components = _row_closures(pattern | pattern.T)
    return components


def _row_closures(pattern: np.ndarray) -> list[np.ndarray]:
    """Row-closed index sets of an off-diagonal pattern (diagonal False)."""
    seen = ~pattern.any(axis=1)
    components = list(seen.nonzero()[0][:, None])
    while not seen[seed := seen.argmin()]:
        reach = new = pattern[seed].copy()
        reach[seed] = True
        while np.count_nonzero(new):
            new = np.logical_or.reduce(pattern[new]) > reach  # reached for the first time
            reach = reach | new
        seen |= reach
        components.append(reach.nonzero()[0])
    return components


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    """Hash mod 2^64 of each row of a (rows, words) uint64 array.

    Each word is folded (its high half xor-ed onto its low half, a
    bijection) and weighted by splitmix64 of its column number.  Folding
    keeps a difference in the top bits alone, such as a sign, from
    vanishing in the sum.
    """
    z = np.arange(1, bits.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (bits ^ (bits >> np.uint64(32))) @ (z ^ (z >> np.uint64(31)))


def _row_classes(stacks: list[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Class representative of every row of the (blocks, k, k) stacks, read
    in order as one flat list of rows with block numbers `block`.

    A row's representative is the lowest row of its block with the same
    hash if one compare finds their bits equal, else the row itself.  So a
    class only ever holds bitwise-identical rows; a hash collision can only
    leave equal rows in separate classes.
    """
    bits = [
        np.ascontiguousarray(B, dtype=np.result_type(B, np.float64))
        .view(np.uint64)
        .reshape(B.shape[0] * B.shape[1], -1)
        for B in stacks
    ]
    hashes = np.concatenate([_row_hashes(b) for b in bits])
    # rows lie block by block, so a stable sort by hash keeps the rows of one
    # block and hash together, lowest first
    order = hashes.argsort(kind="stable")
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = (np.diff(block[order]) != 0) | (np.diff(hashes[order]) != 0)
    first = np.maximum.accumulate(np.where(run_start, np.arange(len(order)), 0))
    rep = np.empty_like(order)
    rep[order] = order[first]
    start = 0
    for b in bits:
        local = rep[start : start + len(b)] - start
        same = (b == b[local]).all(axis=1)
        rep[start : start + len(b)] = np.where(same, local, np.arange(len(b))) + start
        start += len(b)
    return rep


def _extreme_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The matrix is the direct sum of its diagonal blocks on the components of
    its nonzero pattern, so its spectrum is theirs.  The blocks of one size
    are gathered as one (blocks, size, size) stack by a single ``take`` on
    flat indices of ``M.ravel()``.  Every nonzero entry lies in a block, so
    testing each stack for non-finite entries, and for Hermiticity to
    1e-12 * max(1, max|M|), tests the whole matrix.

    Each block B is then reduced to the classes of its bitwise-identical
    rows.  With r one row per class and D the class sizes, B = S^T B[r, r] S
    for the 0/1 class-membership matrix S (equal rows i and j of a
    Hermitian matrix make columns i and j equal too), and S S^T = D.  The
    spectrum of B is therefore that of C = D^1/2 B[r, r] D^1/2, plus an
    exact 0 whenever a class has two rows i and j: e_i - e_j is a null
    vector.  Quotients of equal size are stacked into one eigvalsh call.
    """
    M = np.asarray(M)
    by_size = {}
    for c in _components(M):
        by_size.setdefault(len(c), []).append(c)
    flat, n = M.ravel(), len(M)

    def gather(idx):  # the (blocks, k, k) stack M[idx[b, i], idx[b, j]]
        return flat.take(idx[:, :, None] * n + idx[:, None, :])

    # one (blocks, size) index array and (blocks, size, size) stack per size
    supports = [np.array(cs) for cs in by_size.values()]
    stacks = [gather(idx) for idx in supports]
    # np.max, not the builtin max, so that a NaN in any stack propagates
    scale = float(np.max([abs(B).max() for B in stacks]))
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    asymmetry = np.max([abs(B - B.swapaxes(-1, -2).conj()).max() for B in stacks])
    if asymmetry > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not Hermitian")
    block_rows = np.concatenate([np.full(len(idx), idx.shape[1]) for idx in supports])
    block = np.repeat(np.arange(len(block_rows)), block_rows)
    rep = _row_classes(stacks, block)
    is_rep = rep == np.arange(len(rep))
    root = np.sqrt(np.bincount(rep, minlength=len(rep))[is_rep])
    rows = np.concatenate([idx.ravel() for idx in supports])[is_rep]
    block = block[is_rep]
    quotient_rows = np.bincount(block)[block]  # per class, the size of its block's quotient
    spectra = [np.zeros(int(not is_rep.all()))]  # the null vectors' 0, if any
    for q in np.unique(quotient_rows):
        r = rows[quotient_rows == q].reshape(-1, q)
        s = root[quotient_rows == q].reshape(-1, q)
        C = gather(r) * s[:, :, None] * s[:, None, :]
        spectra.append(np.linalg.eigvalsh(C).ravel())
    spectra = np.concatenate(spectra)
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
