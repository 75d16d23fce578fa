"""Dense brute-force ground truth for small systems.

Everything here materializes full d**N x d**N matrices (subject to the dense
cap) and is meant for validating the Hankel fast path, not for production
classification.  Partial transposes are exact entry permutations (digit
swaps between row and column indices), never Kronecker products of
transpose maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import digit_table
from .ppt import DEFAULT_PSD_TOL, classify_min_eigenvalue
from .states import StateSpec, build_state, check_dense_cap, d_symmetrizer


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
    F = np.zeros((dim, dim), dtype=np.complex128)
    F[target, np.arange(dim)] = 1.0
    return F


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (full eigendecomposition)."""
    M = np.asarray(M)
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    if np.max(np.abs(M - M.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    return float(np.linalg.eigvalsh(M)[0])


def dense_ppt_check(rho: np.ndarray, mask, d: int, tol: float = DEFAULT_PSD_TOL):
    """Partial-transpose PSD status of a dense state: (status, lam_min, lam_max)."""
    pt = partial_transpose(rho, mask, d)
    ev = np.linalg.eigvalsh(pt)
    lam_min, lam_max = float(ev[0]), float(ev[-1])
    return classify_min_eigenvalue(lam_min, lam_max, tol), lam_min, lam_max


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
    rho = np.asarray(rho, dtype=np.complex128)
    dim = check_dense_cap(N, d)
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} does not match d**N = {dim}")
    P = d_symmetrizer(N, d)
    norm = np.linalg.norm(rho)
    if norm == 0:
        return True
    return bool(np.linalg.norm(rho - P @ rho @ P) < tol * norm)
