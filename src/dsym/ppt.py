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
semidefiniteness), each classified with a relative tolerance band by
`PsdCheck.from_extremes`.  `is_psd` is its validated one-matrix entry.  The
m-PPT blocks of one size are decided as stacks of consecutive offsets, one
kernel call per stack, in offset order up to the first stack that holds a
not-psd block (the later blocks are reported as skipped); large checks
decide their stacks concurrently on a thread pool of their own (see
`is_m_ppt`).  dsym has no setting for this: it follows the CPU affinity and
the BLAS thread count of the environment.
A min eigenvalue below -band is decisive; inside the band, values that are
too negative to be rounding of an exact zero (below -band/100) are surfaced
as "marginal" rather than silently coerced either way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

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
    def from_extremes(
        cls, lam_min: float, lam_max: float, tol_rel: float, vec=None, **fields
    ) -> "PsdCheck":
        """Status and band tol_rel * max(1, lam_max) from the extreme
        eigenvalues; `fields` fill a subclass's own fields.  Raises
        ValueError when an extreme eigenvalue is not finite: the spectrum
        overflowed, and an infinite band would call any matrix psd."""
        if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
            raise ValueError(
                f"eigenvalues out of the float range (min {lam_min}, max {lam_max});"
                " rescale p"
            )
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


def psd_checks(H: np.ndarray, tol_rel: float, vectors=False, cls=PsdCheck, **fields) -> list:
    """One `cls` check per matrix of a (k, n, n) stack of real symmetric
    matrices (a `hankel` view, say) from one batched eigensolve: eigh with
    `vectors`, keeping each lowest eigenvector in .vec, else eigvalsh.  The
    one PSD decision site; symmetry is not tested.  `fields` fill a
    subclass's own fields, k values each.  Raises ValueError on overflow."""
    rows = [dict(zip(fields, row)) for row in zip(*fields.values())] if fields else [{}] * len(H)
    if H.shape[-1] == 0:
        return [cls(PSD, None, None, None, **row) for row in rows]
    ev, vecs = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    vecs = [None] * len(H) if vecs is None else vecs[:, :, 0]
    return [
        cls.from_extremes(lo, hi, tol_rel, vec, **row)
        for lo, hi, vec, row in zip(ev[:, 0].tolist(), ev[:, -1].tolist(), vecs, rows)
    ]


def is_psd(M: np.ndarray, tol_rel: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """`psd_checks` of one matrix from a caller, with its lowest eigenvector
    (a witness when the matrix is a moment Hankel).  Raises ValueError unless
    M is square, finite and symmetric to 1e-12 of its largest entry."""
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
    return psd_checks(M[None], tol_rel, vectors=True)[0]


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


def _decide_in_order(decide, stacks: list, threads: int) -> list:
    """[decide(stack) for stack in stacks] up to and including the first stack
    whose records hold a not-psd one.

    With threads > 1 and more than one stack, the stacks go to a pool of
    `threads` worker threads that lives for this call only.  The results are
    read in offset order up to the first failing stack, so they are the
    serial ones whatever the timing.  A worker whose stack fails or raises
    cancels the later stacks before it takes another; the stacks not yet
    started are cancelled, and the workers joined, before this returns or
    raises."""
    pool, decided = None, []
    try:
        results = map(decide, stacks)
        if threads > 1 and len(stacks) > 1:
            # imported here so that importing dsym does not pay for it
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(threads, thread_name_prefix="dsym-ppt")
            futures = [pool.submit(decide, stack) for stack in stacks]
            for i, future in enumerate(futures):
                future.add_done_callback(partial(_cancel_after, futures, i))
            results = (future.result() for future in futures)
        for records in results:
            decided.append(records)
            if _fails(records):
                break
        return decided
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _cancel_after(futures: list, i: int, future) -> None:
    """Done callback of stack i, run by its worker before it takes another
    stack: cancels the later stacks when stack i raised or failed."""
    if not future.cancelled() and (future.exception() is not None or _fails(future.result())):
        for later in futures[i + 1 :]:
            later.cancel()


def _fails(records) -> bool:
    return any(r.status == NOT_PSD for r in records)


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

    @property
    def stopped_at(self) -> int | None:
        """The first offset whose block is not psd, or None."""
        return next((b.s for b in self.blocks if b.status == NOT_PSD), None)


def is_m_ppt(spec: StateSpec, m: int, tol: float = DEFAULT_PSD_TOL) -> PPTReport:
    """Decide m-PPT from the sufficient set of Hankel blocks.

    For N = 2m the blocks s = 0 and s = 1 suffice; for 2m < N the blocks
    s = 0..(N-2m)(d-1) do (every other block is a principal submatrix of one
    of these).  Blocks of one size are decided in stacks of consecutive
    offsets holding at most STACK_BYTES of entries, one `psd_checks` call per
    stack on a read-only view of p (batched LAPACK decides each block as if
    alone).  Stacks are decided in offset order up to the first that holds a
    not-psd block, which settles the verdict; every block after that stack
    gets a record with status "skipped" and no eigenvalues, band or margin.
    When the blocks total more than STACK_BYTES and each fits in it, the
    stacks are decided concurrently (eigvalsh releases the GIL) by a pool the
    call opens for itself, one stack per worker at a time (see `_threads`
    and `_decide_in_order`); the records come back in offset order with the
    same bits and skipped blocks whatever the timing.  Raises ValueError
    when a block's spectrum overflows.
    """
    N, d = spec.N, spec.d
    if not 1 <= m <= N // 2:
        raise ValueError(f"m must be in [1, {N // 2}], got {m}")
    if N == 2 * m:
        offsets = [0, 1]
    else:
        offsets = list(range((N - 2 * m) * (d - 1) + 1))
    p = np.asarray(spec.p, dtype=float)
    # every offset is >= 0, so block s has shift s and rows k = 0..min(a, b - s),
    # k the transposed group's digit sum (at most a) and k + s the other's
    a, b = m * (d - 1), (N - m) * (d - 1)
    stacks, total = [], 0
    for size, group in groupby(offsets, key=lambda s: min(a, b - s) + 1):
        group = np.array(list(group))
        step = max(1, STACK_BYTES // (8 * size * size))
        stacks += [(size, group[i : i + step]) for i in range(0, len(group), step)]
        total += 8 * size * size * len(group)

    def decide(stack):
        size, shifts = stack
        H = hankel(p, size, shifts)
        return psd_checks(H, tol, cls=BlockRecord, s=shifts.tolist(), size=[size] * len(shifts))

    # a block larger than the cap is decided alone, on the calling thread
    pooled = total > STACK_BYTES >= 8 * (a + 1) ** 2
    decided = _decide_in_order(decide, stacks, _threads() if pooled else 1)
    records = [r for stack_records in decided for r in stack_records]
    records += [
        BlockRecord(SKIPPED, None, None, None, s=s, size=size)
        for size, shifts in stacks[len(decided) :]
        for s in shifts.tolist()
    ]
    verdict = PPT_WORDS[worst_status(r.status for r in records)]
    return PPTReport(m=m, verdict=verdict, blocks=tuple(records))
