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
one size are decided as stacks, one batched eigensolve per stack.  When the
blocks of one m-PPT check total more than STACK_BYTES and each fits in it,
its stacks are decided concurrently (eigvalsh releases the GIL) by the
calling thread and helper threads started for that call and joined before it
returns: one thread per CPU the process may run on, divided by the threads
each BLAS call takes.  Each thread builds one stack at a time, so at most
cpus x STACK_BYTES of stacks are in flight.  Smaller checks, blocks larger
than STACK_BYTES and a BLAS left at its default of one thread per CPU decide
the stacks one after the other.  dsym has no setting for this: it follows
the CPU affinity and the BLAS thread count of the environment.
A min eigenvalue below -band is decisive; inside the band, values that are
too negative to be rounding of an exact zero (below -band/100) are surfaced
as "marginal" rather than silently coerced either way.
"""

from __future__ import annotations

import math
import os
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
    # unit eigenvector of lam_min from `is_psd`; None when empty and on the
    # stacked m-PPT block records.  Left out of ==, which cannot compare
    # arrays; the matrix determines it.
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


def is_psd(M: np.ndarray, tol_rel: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """PSD status of a real symmetric matrix, with its lowest eigenvector
    (a witness when the matrix is a moment Hankel), from one
    eigendecomposition."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return PsdCheck(PSD, None, None, None)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    ev, vecs = _spectrum(M, True)
    return PsdCheck.from_extremes(float(ev[0]), float(ev[-1]), tol_rel, vecs[:, 0])


def _spectrum(M: np.ndarray, vector: bool):
    """Ascending eigenvalues (and eigenvectors when `vector`) of a symmetric
    matrix or a (k, n, n) stack of them, from one LAPACK call; each matrix
    must be symmetric to 1e-12 of its own largest entry.  Without `vector`
    it skips eigh, which on the m-PPT blocks at N up to 1000 costs check-ppt
    a third of its throughput and 5x its memory."""
    # one temporary, the size of M, holds |M - M^T| and then |M|
    diff = np.subtract(M, M.swapaxes(-1, -2))
    asym = np.abs(diff, out=diff).max(axis=(-2, -1))
    scale = np.abs(M, out=diff).max(axis=(-2, -1))
    if (asym > 1e-12 * np.maximum(1.0, scale)).any():
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(M) if vector else (np.linalg.eigvalsh(M), None)


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


def _decide_concurrently(decide, stacks: list, threads: int) -> list:
    """[decide(stack) for stack in stacks], computed by the calling thread and
    threads - 1 helper threads that live for this call only; each thread takes
    the next undecided stack, so at most `threads` stacks are in flight."""
    # imported here so that importing dsym does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    out = [None] * len(stacks)
    todo = iter(range(len(stacks)))  # a range iterator's next() holds the GIL

    def drain():
        for i in todo:
            out[i] = decide(stacks[i])

    helpers = min(threads, len(stacks)) - 1
    with ThreadPoolExecutor(helpers, thread_name_prefix="dsym-ppt") as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        try:
            drain()
        finally:
            for _ in todo:  # if the caller failed, leave the helpers nothing more
                pass
        for future in futures:
            future.result()
    return out


def hankel(p, size: int, shift) -> np.ndarray:
    """The size x size Hankel matrix (p[k + l + shift]) of a sequence, or the
    (k, size, size) stack of them for an array of k shifts."""
    idx = np.arange(size)
    return np.asarray(p, dtype=float)[np.add.outer(shift, idx[:, None] + idx[None, :])]


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
    routine on each matrix, so the records equal per-block eigvalsh decisions.
    When the blocks total more than STACK_BYTES and each fits in it, the
    stacks are decided concurrently on the CPUs that BLAS leaves free (see
    the module docstring), one stack per thread at a time, so at most
    cpus x STACK_BYTES of stacks are in flight; the helper threads are the
    call's own and have ended when it returns or raises.  Records come back
    in offset order either way, with the same bits.  There is no setting for
    this.  Raises ValueError when a block's spectrum overflows.
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
        ev, _ = _spectrum(hankel(p, size, shifts), False)
        return [
            BlockRecord.from_extremes(lo, hi, tol, s=s, size=size)
            for s, lo, hi in zip(shifts.tolist(), ev[:, 0].tolist(), ev[:, -1].tolist())
        ]

    # a block larger than the cap, decided alone, stays on the calling thread
    # so that at most threads x STACK_BYTES of stacks are in flight
    if total > STACK_BYTES >= 8 * (a + 1) ** 2 and (threads := _threads()) > 1:
        decided = _decide_concurrently(decide, stacks, threads)
    else:
        decided = map(decide, stacks)
    records = [r for rs in decided for r in rs]
    verdict = PPT_WORDS[worst_status(r.status for r in records)]
    return PPTReport(m=m, verdict=verdict, blocks=tuple(records))
