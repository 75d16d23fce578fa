"""Positivity of partial transposes for diagonal restricted-Dicke states.

Transposing the first m of N parties block-diagonalizes the state over the
digit-sum offset s between the two party groups; each block is (congruent
to) the Hankel matrix P_s with entries p[k+l+s].  The state is m-PPT exactly
when a small, explicitly known family of those Hankel blocks is positive
semidefinite, so the fast path never touches a d**N-dimensional matrix and
has no size cap.

PSD decisions are made by full symmetric eigendecomposition with a relative
tolerance band (leading principal minors are invalid for semidefiniteness).
A min eigenvalue below -band is decisive; inside the band, values that are
too negative to be rounding of an exact zero (below -band/100) are surfaced
as "marginal" rather than silently coerced either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combinatorics import count_compositions, digit_table
from .states import StateSpec, check_dense_cap

DEFAULT_PSD_TOL = 1e-10

# Fraction of the tolerance band treated as numerical noise around zero:
# |lam_min| <= band * NOISE_FRACTION counts as an exact boundary zero.
NOISE_FRACTION = 0.01

PSD = "psd"
NOT_PSD = "not-psd"
MARGINAL = "marginal"


@dataclass(frozen=True)
class PsdCheck:
    status: str
    lam_min: float | None  # None for an empty matrix
    lam_max: float | None
    band: float | None  # lam_min below -band is decisive; None for an empty matrix

    @classmethod
    def from_extremes(cls, lam_min: float, lam_max: float, tol_rel: float) -> "PsdCheck":
        """Status and band tol_rel * max(1, lam_max) from the extreme eigenvalues."""
        band = tol_rel * max(1.0, lam_max)
        if lam_min < -band:
            status = NOT_PSD
        elif lam_min < -band * NOISE_FRACTION:
            status = MARGINAL
        else:
            status = PSD
        return cls(status, lam_min, lam_max, band)


def classify_min_eigenvalue(lam_min: float, lam_max: float, tol_rel: float) -> str:
    """Three-valued PSD status from the extreme eigenvalues of a matrix."""
    return PsdCheck.from_extremes(lam_min, lam_max, tol_rel).status


def is_psd(M: np.ndarray, tol_rel: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """PSD status of a real symmetric matrix via eigendecomposition."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return PsdCheck(PSD, None, None, None)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not symmetric")
    ev = np.linalg.eigvalsh(M)
    return PsdCheck.from_extremes(float(ev[0]), float(ev[-1]), tol_rel)


@dataclass(frozen=True)
class HankelBlock:
    """Hankel block P_s = (p[k+l+s]) over lo <= k, l <= hi."""

    s: int
    lo: int
    hi: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)


def hankel_block(p, N: int, d: int, m: int, s: int) -> HankelBlock:
    """Build the Hankel block for digit-sum offset s between the transposed
    group of m parties and the remaining N - m."""
    p = np.asarray(p, dtype=float)
    if not 1 <= m <= N - 1:
        raise ValueError(f"m must be in [1, {N - 1}], got {m}")
    if not -m * (d - 1) <= s <= (N - m) * (d - 1):
        raise ValueError(
            f"offset s={s} out of range [{-m * (d - 1)}, {(N - m) * (d - 1)}]"
        )
    lo = max(0, -s)
    hi = min(m * (d - 1), (N - m) * (d - 1) - s)
    if lo > hi:
        return HankelBlock(s, lo, hi, np.zeros((0, 0)))
    idx = np.arange(lo, hi + 1)
    return HankelBlock(s, lo, hi, p[idx[:, None] + idx[None, :] + s])


@dataclass(frozen=True)
class BlockRecord:
    s: int
    size: int
    lam_min: float | None
    lam_max: float | None
    band: float | None
    status: str

    @property
    def margin(self) -> float | None:
        """Distance of the minimum eigenvalue above the decisive-negative
        threshold -band; negative means the block fails PSD."""
        if self.lam_min is None:
            return None
        return self.lam_min + self.band


@dataclass(frozen=True)
class PPTReport:
    m: int
    verdict: str  # "ppt" | "not-ppt" | "marginal"
    blocks: tuple[BlockRecord, ...] = field(default_factory=tuple)

    @property
    def checked(self) -> tuple[int, ...]:
        return tuple(b.s for b in self.blocks)


def _verdict_from_statuses(statuses) -> str:
    statuses = list(statuses)
    if NOT_PSD in statuses:
        return "not-ppt"
    if MARGINAL in statuses:
        return "marginal"
    return "ppt"


def is_m_ppt(spec: StateSpec, m: int, tol: float = DEFAULT_PSD_TOL) -> PPTReport:
    """Decide m-PPT from the sufficient set of Hankel blocks.

    For N = 2m the blocks s = 0 and s = 1 suffice; for 2m < N the blocks
    s = 0..(N-2m)(d-1) do (every other block is a principal submatrix of one
    of these).
    """
    N, d = spec.N, spec.d
    if not 1 <= m <= N // 2:
        raise ValueError(f"m must be in [1, {N // 2}], got {m}")
    if N == 2 * m:
        offsets = [0, 1]
    else:
        offsets = list(range((N - 2 * m) * (d - 1) + 1))
    records = []
    for s in offsets:
        block = hankel_block(spec.p, N, d, m, s)
        chk = is_psd(block.matrix, tol)
        records.append(
            BlockRecord(s, block.size, chk.lam_min, chk.lam_max, chk.band, chk.status)
        )
    verdict = _verdict_from_statuses(r.status for r in records)
    return PPTReport(m=m, verdict=verdict, blocks=tuple(records))


def block_decomposition(spec: StateSpec, m: int) -> list[np.ndarray]:
    """Dense blocks A_s of the partial transpose over the first m parties.

    With a and b an index's digit sums over the transposed and the kept group,
    A_s[i, j] = p[a_i + b_j] = P_s[a_i, a_j] on the indices with b - a = s, and
    0 elsewhere.  Summing over s reproduces the dense partial transpose, and
    distinct blocks have orthogonal supports.
    """
    N, d = spec.N, spec.d
    if not 1 <= m <= N - 1:
        raise ValueError(f"m must be in [1, {N - 1}], got {m}")
    dim = check_dense_cap(N, d)
    p = np.asarray(spec.p, dtype=float)
    digits = digit_table(N, d)
    a = digits[:, :m].sum(axis=1)
    b = digits[:, m:].sum(axis=1)
    offset = b - a
    out = []
    for s in range(-m * (d - 1), (N - m) * (d - 1) + 1):
        idx = np.flatnonzero(offset == s)
        block = np.zeros((dim, dim), dtype=np.complex128)
        block[np.ix_(idx, idx)] = p[a[idx][:, None] + b[idx][None, :]]
        out.append(block)
    return out


def hankel_congruence_scales(N: int, d: int, m: int, s: int) -> np.ndarray:
    """Squared norms of the product Dicke vectors spanning block s.

    A_s equals D P_s D with D = diag(sqrt of these), so P_s and A_s restricted
    to its support share eigenvalue signs.
    """
    block_lo = max(0, -s)
    block_hi = min(m * (d - 1), (N - m) * (d - 1) - s)
    return np.array(
        [
            count_compositions(m, k, d) * count_compositions(N - m, k + s, d)
            for k in range(block_lo, block_hi + 1)
        ],
        dtype=float,
    )
