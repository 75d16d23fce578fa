"""Positivity of partial transposes for diagonal restricted-Dicke states.

Transposing the first m of N parties block-diagonalizes the state over the
digit-sum offset s between the two party groups; each block is (congruent
to) the Hankel matrix P_s with entries p[k+l+s].  The state is m-PPT exactly
when a small, explicitly known family of those Hankel blocks is positive
semidefinite, so this module never touches a d**N-dimensional matrix and
has no size cap.  The index supports of the offset blocks inside the dense
partial transpose are verification-only: ``oracle.offset_supports``.

Every Hankel matrix of the package, the blocks P_s here and the two moment
Hankels of `moment`, is built by `hankel` and decided by one full symmetric
eigendecomposition with a relative tolerance band (leading principal minors
are invalid for semidefiniteness), classified by `PsdCheck.from_extremes`.
The moment Hankels go through `is_psd` one at a time; the m-PPT blocks of
one size are decided as stacks, one batched eigensolve per stack.
A min eigenvalue below -band is decisive; inside the band, values that are
too negative to be rounding of an exact zero (below -band/100) are surfaced
as "marginal" rather than silently coerced either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .states import StateSpec

DEFAULT_PSD_TOL = 1e-10

# Largest stack of m-PPT blocks, in bytes, decided by one eigvalsh call:
# batching removes the per-call cost of many small blocks, and the cap bounds
# the stack's memory (a block larger than the cap is decided alone).
STACK_BYTES = 1 << 20

# Fraction of the tolerance band treated as numerical noise around zero:
# |lam_min| <= band * NOISE_FRACTION counts as an exact boundary zero.
NOISE_FRACTION = 0.01

PSD = "psd"
NOT_PSD = "not-psd"
MARGINAL = "marginal"


def worst_status(statuses) -> str:
    """not-psd if any status is, else marginal if any is, else psd."""
    statuses = set(statuses)
    return next((s for s in (NOT_PSD, MARGINAL) if s in statuses), PSD)


# The m-PPT verdict names each joint block status.
PPT_WORDS = {PSD: "ppt", NOT_PSD: "not-ppt", MARGINAL: "marginal"}


@dataclass(frozen=True)
class PsdCheck:
    status: str
    lam_min: float | None  # None for an empty matrix
    lam_max: float | None
    band: float | None  # lam_min below -band is decisive; None for an empty matrix
    # unit eigenvector of lam_min when asked for; None otherwise or when empty.
    # Left out of ==, which cannot compare arrays; the matrix determines it.
    vec: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_extremes(
        cls, lam_min: float, lam_max: float, tol_rel: float, vec=None, **fields
    ) -> "PsdCheck":
        """Status and band tol_rel * max(1, lam_max) from the extreme
        eigenvalues; `fields` fill a subclass's own fields."""
        band = tol_rel * max(1.0, lam_max)
        if lam_min < -band:
            status = NOT_PSD
        elif lam_min < -band * NOISE_FRACTION:
            status = MARGINAL
        else:
            status = PSD
        return cls(status, lam_min, lam_max, band, vec, **fields)

    @property
    def margin(self) -> float | None:
        """Distance of the minimum eigenvalue above the decisive-negative
        threshold -band; negative means the matrix fails PSD."""
        if self.lam_min is None:
            return None
        return self.lam_min + self.band

    @property
    def strict(self) -> bool:
        """Positive definite beyond the band (an empty matrix counts)."""
        return self.lam_min is None or self.lam_min > self.band


def is_psd(M: np.ndarray, tol_rel: float = DEFAULT_PSD_TOL, vector: bool = False) -> PsdCheck:
    """PSD status of a real symmetric matrix from one eigendecomposition;
    with vector=True (the moment Hankels, whose vector is a witness) it also
    keeps the lowest eigenvector."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return PsdCheck(PSD, None, None, None)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    ev, vecs = _spectrum(M, vector)
    vec = None if vecs is None else vecs[:, 0]
    return PsdCheck.from_extremes(float(ev[0]), float(ev[-1]), tol_rel, vec)


def _spectrum(M: np.ndarray, vector: bool):
    """Ascending eigenvalues (and eigenvectors when `vector`) of a symmetric
    matrix or a (k, n, n) stack of them, from one LAPACK call; each matrix
    must be symmetric to 1e-12 of its own largest entry.  Without `vector`
    it skips eigh, which on the m-PPT blocks at N up to 1000 costs check-ppt
    a third of its throughput and 5x its memory."""
    asym = abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asym > 1e-12 * np.maximum(1.0, abs(M).max(axis=(-2, -1)))).any():
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(M) if vector else (np.linalg.eigvalsh(M), None)


def hankel(p, size: int, shift) -> np.ndarray:
    """The size x size Hankel matrix (p[k + l + shift]) of a sequence, or the
    (k, size, size) stack of them for an array of k shifts."""
    idx = np.arange(size)
    return np.asarray(p, dtype=float)[np.add.outer(shift, idx[:, None] + idx[None, :])]


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


def _block_range(N: int, d: int, m: int, s: int) -> tuple[int, int]:
    """Rows lo..hi of block s (empty when lo > hi)."""
    return max(0, -s), min(m * (d - 1), (N - m) * (d - 1) - s)


def hankel_block(p, N: int, d: int, m: int, s: int) -> HankelBlock:
    """Build the Hankel block for digit-sum offset s between the transposed
    group of m parties and the remaining N - m."""
    if not 1 <= m <= N - 1:
        raise ValueError(f"m must be in [1, {N - 1}], got {m}")
    if not -m * (d - 1) <= s <= (N - m) * (d - 1):
        raise ValueError(
            f"offset s={s} out of range [{-m * (d - 1)}, {(N - m) * (d - 1)}]"
        )
    lo, hi = _block_range(N, d, m, s)
    return HankelBlock(s, lo, hi, hankel(p, max(0, hi - lo + 1), 2 * lo + s))


@dataclass(frozen=True, kw_only=True)
class BlockRecord(PsdCheck):
    """PSD check of the Hankel block P_s, which has `size` rows."""

    s: int
    size: int


@dataclass(frozen=True)
class PPTReport:
    m: int
    verdict: str  # "ppt" | "not-ppt" | "marginal"
    blocks: tuple[BlockRecord, ...] = field(default_factory=tuple)

    @property
    def checked(self) -> tuple[int, ...]:
        return tuple(b.s for b in self.blocks)


def is_m_ppt(spec: StateSpec, m: int, tol: float = DEFAULT_PSD_TOL) -> PPTReport:
    """Decide m-PPT from the sufficient set of Hankel blocks.

    For N = 2m the blocks s = 0 and s = 1 suffice; for 2m < N the blocks
    s = 0..(N-2m)(d-1) do (every other block is a principal submatrix of one
    of these).  Blocks of one size are decided in stacks of at most
    STACK_BYTES, one eigvalsh call per stack; batched LAPACK runs the same
    routine on each matrix, so the records equal per-block `is_psd` checks.
    """
    N, d = spec.N, spec.d
    if not 1 <= m <= N // 2:
        raise ValueError(f"m must be in [1, {N // 2}], got {m}")
    if N == 2 * m:
        offsets = [0, 1]
    else:
        offsets = list(range((N - 2 * m) * (d - 1) + 1))
    p = np.asarray(spec.p, dtype=float)
    records = []
    # every offset is >= 0, so each block starts at row 0 and its shift is s
    for size, group in groupby(offsets, key=lambda s: _block_range(N, d, m, s)[1] + 1):
        group = np.array(list(group))
        step = max(1, STACK_BYTES // (8 * size * size))
        for start in range(0, len(group), step):
            shifts = group[start : start + step]
            ev, _ = _spectrum(hankel(p, size, shifts), False)
            records += [
                BlockRecord.from_extremes(lo, hi, tol, s=s, size=size)
                for s, lo, hi in zip(shifts.tolist(), ev[:, 0].tolist(), ev[:, -1].tolist())
            ]
    verdict = PPT_WORDS[worst_status(r.status for r in records)]
    return PPTReport(m=m, verdict=verdict, blocks=tuple(records))
