"""Positivity of partial transposes for diagonal restricted-Dicke states.

Transposing the first m of N parties block-diagonalizes the state over the
digit-sum offset s between the two party groups; each block is (congruent
to) the Hankel matrix P_s with entries p[k+l+s].  The state is m-PPT exactly
when a small, explicitly known family of those Hankel blocks is positive
semidefinite, so this module never touches a d**N-dimensional matrix and
has no size cap.

Every Hankel matrix of the package, the blocks P_s here and the two moment
Hankels of `moment`, is built by `hankel` as a read-only strided view of p,
exactly symmetric by construction.  Every PSD decision of the package is
made by one kernel, `psd_checks`: one batched symmetric eigensolve of a
stack of matrices (leading principal minors are invalid for
semidefiniteness), classified with a relative tolerance band by one rule,
`psd_rule`, in array operations over the whole stack (on floats for a
single matrix).  The kernel returns its checks as columns (`PsdChecks`);
`is_psd` is its validated one-matrix entry, and `PsdCheck.from_extremes`
applies the rule to the extreme eigenvalues of one matrix.  The m-PPT
blocks of one size are decided as stacks of consecutive offsets, one
kernel call per stack, in offset order up to the first stack that holds a
not-psd block (the later blocks are reported as skipped); block 0 goes
first and alone, and the stacks after it of a large check go to a thread
pool of their own (see `is_m_ppt`).  dsym has no setting for this: it
follows the CPU affinity and the BLAS thread count of the environment.  The
`PPTReport` keeps the blocks as columns too, so a check builds no object
per block.
A min eigenvalue below -band is decisive; inside the band, values that are
too negative to be rounding of an exact zero (below -band/100) are surfaced
as "marginal" rather than silently coerced either way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import StateSpec

DEFAULT_PSD_TOL = 1e-10

# Largest stack of m-PPT blocks, in bytes of their entries, decided by one
# eigvalsh call: batching removes the per-call cost of many small blocks, and
# the cap sets how much work one call, and one thread, takes at a time and
# how far past a failing block a check may run (a block larger than the cap is
# decided alone).  A stack is a view of p, so it holds no memory of its own.
STACK_BYTES = 1 << 20

# Fraction of the tolerance band treated as numerical noise around zero:
# |lam_min| <= band * NOISE_FRACTION counts as an exact boundary zero.
NOISE_FRACTION = 0.01

PSD = "psd"
NOT_PSD = "not-psd"
MARGINAL = "marginal"
# an m-PPT block after the first stack that holds a not-psd block: not decided
SKIPPED = "skipped"


def worst_status(statuses) -> str:
    """not-psd if any status is, else marginal if any is, else psd."""
    statuses = set(statuses)
    return next((s for s in (NOT_PSD, MARGINAL) if s in statuses), PSD)


# The m-PPT verdict names each joint block status.
PPT_WORDS = {PSD: "ppt", NOT_PSD: "not-ppt", MARGINAL: "marginal"}


# The status of each code that `psd_rule` gives.
STATUSES = (PSD, MARGINAL, NOT_PSD)


def _pick(cond, a, b):
    """np.where on the floats of one matrix."""
    return a if cond else b


def psd_rule(lam_min, lam_max, tol_rel: float, where=np.where):
    """The one band and status rule: (band, margin, code) from finite
    extreme eigenvalues, float64 arrays with one entry per matrix of a
    stack, or with where=_pick the floats of one matrix.  The band is
    tol_rel * max(1, lam_max) and the margin lam_min + band.  The status,
    STATUSES[code], is not-psd for a negative margin (exactly lam_min below
    -band), else marginal for lam_min below -band * NOISE_FRACTION, else
    psd."""
    # max(1, lam_max) and the codes through np.where, whose loops a check
    # has paged in already: np.maximum and an int8 sum would page in more of
    # numpy's code (together about 0.3 MB of a check-ppt process's peak RSS)
    band = tol_rel * where(lam_max > 1.0, lam_max, 1.0)
    margin = lam_min + band
    code = where(margin < 0.0, 2, where(lam_min < band * -NOISE_FRACTION, 1, 0))
    return band, margin, code


def _overflow(lam_min, lam_max) -> ValueError:
    """The error for a spectrum that left the float range: an infinite band
    would call any matrix psd."""
    return ValueError(
        f"eigenvalues out of the float range (min {lam_min}, max {lam_max}); rescale p"
    )


def _check_floats(lam_min: float, lam_max: float, tol_rel: float) -> tuple:
    """(status, band, margin) of one matrix by `psd_rule` on its extreme
    eigenvalues as floats, where numpy's cost per call would exceed the
    rule's own.  Raises ValueError when one is not finite."""
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
        raise _overflow(lam_min, lam_max)
    band, margin, code = psd_rule(lam_min, lam_max, tol_rel, _pick)
    return STATUSES[code], band, margin


@dataclass(frozen=True)
class PsdCheck:
    status: str
    lam_min: float | None  # None for an empty matrix
    lam_max: float | None
    band: float | None  # lam_min below -band is decisive; None for an empty matrix
    # unit eigenvector of lam_min from `psd_checks(vectors=True)`, else None;
    # left out of ==, which cannot compare arrays (the matrix determines it)
    vec: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_extremes(cls, lam_min: float, lam_max: float, tol_rel: float, vec=None) -> "PsdCheck":
        """The check of one matrix from its extreme eigenvalues by `psd_rule`.
        Raises ValueError when one is not finite."""
        status, band, _ = _check_floats(lam_min, lam_max, tol_rel)
        return cls(status, lam_min, lam_max, band, vec)

    @property
    def margin(self) -> float | None:
        """Distance of the minimum eigenvalue above the decisive-negative
        threshold -band; negative means the matrix fails PSD."""
        if self.lam_min is None:
            return None
        return self.lam_min + self.band


class PsdChecks(NamedTuple):
    """The checks of a stack of matrices as columns, one entry per matrix:
    lists of statuses, extreme eigenvalues, bands and margins (lam_min +
    band; the numbers are None for empty matrices), and the (k, n) lowest
    eigenvectors when `psd_checks` was asked for them, else None."""

    status: list
    lam_min: list
    lam_max: list
    band: list
    margin: list
    vec: np.ndarray | None

    def check(self, i: int) -> PsdCheck:
        """Matrix i's check, with its lowest eigenvector when there is one."""
        vec = None if self.vec is None else self.vec[i]
        return PsdCheck(self.status[i], self.lam_min[i], self.lam_max[i], self.band[i], vec)


def psd_checks(H: np.ndarray, tol_rel: float, vectors=False) -> PsdChecks:
    """The checks of a (k, n, n) stack of real symmetric matrices (a `hankel`
    view, say) from one batched eigensolve: eigh with `vectors`, keeping
    each lowest eigenvector, else eigvalsh.  The one PSD decision site:
    `psd_rule` classifies the whole stack in array operations (or, for one
    matrix, on floats), and the columns come back as the lists a report
    needs.  Symmetry is not tested.  Raises ValueError on overflow."""
    k = len(H)
    if H.shape[-1] == 0:
        return PsdChecks([PSD] * k, [None] * k, [None] * k, [None] * k, [None] * k, None)
    ev, vecs = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    vec = None if vecs is None else vecs[:, :, 0]
    if k == 1:
        lam_min, lam_max = ev[0, 0].item(), ev[0, -1].item()
        status, band, margin = _check_floats(lam_min, lam_max, tol_rel)
        return PsdChecks([status], [lam_min], [lam_max], [band], [margin], vec)
    lam_min, lam_max = ev[:, 0], ev[:, -1]
    finite = np.isfinite(lam_min) & np.isfinite(lam_max)
    if np.count_nonzero(finite) < k:
        i = finite.argmin()  # the first matrix with a non-finite extreme
        raise _overflow(lam_min[i].item(), lam_max[i].item())
    band, margin, code = psd_rule(lam_min, lam_max, tol_rel)
    return PsdChecks(
        list(map(STATUSES.__getitem__, code.tolist())),
        lam_min.tolist(),
        lam_max.tolist(),
        band.tolist(),
        margin.tolist(),
        vec,
    )


def is_psd(M: np.ndarray, tol_rel: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """`psd_checks` of one matrix from a caller, with its lowest eigenvector
    (from eigh, so its eigenvalues may differ in the last bits from those of
    the eigenvalue-only checks of the m-PPT blocks and the moment Hankels).
    Raises ValueError unless M is square, finite and symmetric to 1e-12 of
    its largest entry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    # one temporary, the size of M, holds |M - M^T| and then |M|
    diff = np.subtract(M, M.T)
    asym = np.abs(diff, out=diff).max(initial=0.0)
    if asym > 1e-12 * np.abs(M, out=diff).max(initial=0.0):
        raise ValueError("matrix is not symmetric")
    return psd_checks(M[None], tol_rel, vectors=True).check(0)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# Variables from which OpenBLAS and MKL take their thread count; without one
# they use every CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _threads() -> int:
    """Threads to decide m-PPT stacks on: the CPUs this process may run on,
    divided by the threads each BLAS call takes.  Two eigvalsh calls that
    each run a multi-threaded BLAS on a shared CPU are slower than one after
    the other."""
    cpus = _cpus()
    values = (os.environ.get(var, "") for var in BLAS_THREAD_VARS)
    blas = next((int(v) for v in values if v.isdigit() and int(v) > 0), cpus)
    return cpus // blas


def hankel(p, size: int, shift) -> np.ndarray:
    """The size x size Hankel matrix (p[k + l + shift]) of a sequence, or the
    (k, size, size) stack of them for k evenly spaced shifts (a 1-d array).

    The result is a read-only strided view of p as a contiguous float64
    array (p is copied only when it is not one already): every entry is an
    element of p, so the matrices are exactly symmetric and no size**2 array
    is allocated.  Raises ValueError for shifts that are not evenly spaced
    and increasing, a negative shift, or a matrix reaching past the end of p."""
    p = np.ascontiguousarray(p, dtype=float)
    shifts = np.asarray(shift)
    if shifts.ndim == 0:
        start, shape, strides = int(shifts), (size, size), (8, 8)
    else:
        start = int(shifts[0]) if len(shifts) else 0
        step = int(shifts[1]) - start if len(shifts) > 1 else 1
        if step < 1 or (shifts != start + step * np.arange(len(shifts))).any():
            raise ValueError(f"shifts of a stack must be evenly spaced and increasing, got {shifts}")
        shape, strides = (len(shifts), size, size), (8 * step, 8, 8)
    if start < 0:
        raise ValueError(f"shift must be >= 0, got {start}")
    # an empty window reads nothing, wherever it starts
    H = np.ndarray(shape, float, buffer=p, offset=8 * start if size else 0, strides=strides)
    H.flags.writeable = False
    return H


@dataclass(frozen=True)
class PPTReport:
    """An m-PPT check as columns, one entry per block of the sufficient set
    in offset order: the offset s, the block's row count, and the columns of
    `PsdChecks`, its status, extreme eigenvalues, band and margin (lam_min +
    band).  The numbers of a skipped block are None."""

    m: int
    s: tuple[int, ...]
    size: tuple[int, ...]
    status: tuple[str, ...]
    lam_min: tuple[float | None, ...]
    lam_max: tuple[float | None, ...]
    band: tuple[float | None, ...]
    margin: tuple[float | None, ...]

    @property
    def verdict(self) -> str:
        """The worst block status as a PPT word: ppt, not-ppt or marginal."""
        return PPT_WORDS[worst_status(self.status)]

    @property
    def stopped_at(self) -> int | None:
        """The first offset whose block is not psd, or None."""
        return self.s[self.status.index(NOT_PSD)] if NOT_PSD in self.status else None


def is_m_ppt(spec: StateSpec, m: int, tol: float = DEFAULT_PSD_TOL) -> PPTReport:
    """Decide m-PPT from the sufficient set of Hankel blocks.

    For N = 2m the blocks s = 0 and s = 1 suffice; for 2m < N the blocks
    s = 0..(N-2m)(d-1) do (every other block is a principal submatrix of one
    of these).  Blocks of one size are decided in stacks of consecutive
    offsets holding at most STACK_BYTES of entries, one `psd_checks` call per
    stack on a read-only view of p (batched LAPACK decides each block as if
    alone).  Stacks are decided in offset order up to the first that holds a
    not-psd block, which settles the verdict; every block after that stack
    has status "skipped" and no eigenvalues, band or margin.
    When the blocks fill more than one stack, block 0 is a stack of its own,
    decided first on the calling thread: a check that fails there costs one
    eigensolve.  When two or more stacks remain and each block fits in
    STACK_BYTES, they are decided (eigvalsh releases the GIL) by a pool of
    `_threads()` workers that the call opens for itself, and read in offset
    order, so the report has the same bits and skipped blocks whatever the
    timing.  The report joins the stacks' columns and one run per column for
    the skipped blocks; it holds no object per block.  Raises ValueError
    when a block's spectrum overflows.
    """
    N, d = spec.N, spec.d
    if not 1 <= m <= N // 2:
        raise ValueError(f"m must be in [1, {N // 2}], got {m}")
    p = np.asarray(spec.p, dtype=float)
    # every offset is >= 0, so block s has shift s and rows k = 0..min(a, b - s),
    # k the transposed group's digit sum (at most a) and k + s the other's:
    # a + 1 rows for every block of the sufficient set but the s = 1 block of
    # N = 2m (where b = a)
    a, b = m * (d - 1), (N - m) * (d - 1)
    if N == 2 * m:
        groups = [(a + 1, np.arange(1)), (a, np.arange(1, 2))]
    else:
        groups = [(a + 1, np.arange(b - a + 1))]
    stacks = []
    for size, group in groups:
        step = max(1, STACK_BYTES // (8 * size * size))
        stacks += [(size, group[i : i + step]) for i in range(0, len(group), step)]
    if len(stacks) > 1 and len(stacks[0][1]) > 1:
        # block 0 alone: a check that fails there ends before any pool starts
        size, shifts = stacks[0]
        stacks[:1] = [(size, shifts[:1]), (size, shifts[1:])]

    def decide(stack):
        size, shifts = stack
        return psd_checks(hankel(p, size, shifts), tol)

    decided = [decide(stacks[0])]
    rest = [] if NOT_PSD in decided[0].status else stacks[1:]
    # a block larger than the cap is decided alone, on the calling thread
    threads = _threads() if len(rest) > 1 and 8 * (a + 1) ** 2 <= STACK_BYTES else 1
    pool = None
    try:
        results = map(decide, rest)
        if threads > 1:
            # imported here so that importing dsym does not pay for it
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(threads, thread_name_prefix="dsym-ppt")
            results = pool.map(decide, rest)
        for checks in results:
            decided.append(checks)
            if NOT_PSD in checks.status:
                break
    finally:
        # the stacks no worker has started are cancelled, and the workers joined
        if pool:
            pool.shutdown(cancel_futures=True)
    sizes = []
    for size, shifts in stacks:
        sizes += [size] * len(shifts)
    # the decided stacks' columns, then one run per column for the skipped blocks
    columns = [], [], [], [], []  # status, lam_min, lam_max, band, margin
    for checks in decided:
        for column, values in zip(columns, checks):
            column += values
    skipped = len(sizes) - len(columns[0])
    for column, value in zip(columns, (SKIPPED, None, None, None, None)):
        column += [value] * skipped
    return PPTReport(m, tuple(range(len(sizes))), tuple(sizes), *map(tuple, columns))
