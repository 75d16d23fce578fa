"""Dense brute-force ground truth for small systems.

Everything here reads or builds d**N-sized arrays (subject to the dense
cap) and is meant for validating the Hankel fast path and its certificates,
not for production classification; with the dense kernels of ``states``,
this is the only module that handles them.  Partial transposes are exact
entry permutations (digit swaps between row and column indices), never
Kronecker products of transpose maps, so they keep the dtype of their
input: the real states of ``states.build_state`` give real partial
transposes, eigensolved in real symmetric arithmetic, while complex inputs
(product states, separable ensembles) stay complex.  ``partial_transpose``
builds one, as the definition; ``dense_ppt_check`` reads its entries off the
state through the mask and never builds it.

A spectrum is taken from one quotient of the partial transpose by its equal
rows, found from the state and the mask alone (no digit sums, no Hankel
blocks), so the oracle's verdict stays independent of `ppt`.  The state
comes as a square core and an opaque index map read on both sides,
core[row_of][:, row_of] (the CLI passes ``states.digit_sum_core``, the
N(d-1)+1 x N(d-1)+1 diag(p) and the digit sums), or as a dense matrix,
which is its own core under the identity map; one kernel reads both, and
neither is trusted: the equal rows of the core are found by row hash and
exact compare.  Equal rows i and j of a Hermitian matrix make e_i - e_j a
null vector, and the rest of its spectrum is that of D^1/2 M[r, r] D^1/2
on one row r per class of equal rows, with D the class sizes.  The classes
of equal rows (and columns) of the core, carried through the map and the
mask, split the partial transpose into classes of equal rows; their few
first rows, merged where equal, give its own.  With a and b an index's
digit sums over the transposed and the kept parties, the partial transpose
of a diagonal D-symmetric state has entry p[a_i + b_j] where
b_i - a_i = b_j - a_j and 0 elsewhere, so its row i depends on (a_i, b_i)
alone: for w transposed parties the quotient has at most
(w(d - 1) + 1)((N - w)(d - 1) + 1) rows.  On 2^10 with w = 5 one 36 x 36
eigensolve replaces the 1024 x 1024 one.  The finite and Hermitian tests
cover every entry of the state, yet read only the core: a state given by
its core costs no d**N x d**N array, and no d**N-long row either.

The dense forms of the production certificates, for tests, are
``witness_matrix`` (a ``WitnessSpec``) and ``ensemble_matrix`` (a
``SeparableEnsemble``)."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .decompose import SeparableEnsemble
from .ppt import DEFAULT_PSD_TOL, PsdCheck
from .states import composition_counts, digit_sum_operator, product_powers
from .witnesses import FAMILY_SHIFT, WitnessSpec


def _parties(shape: tuple[int, ...], d: int) -> int:
    """N for a (d**N, d**N) matrix shape."""
    dim = shape[0]
    N = round(math.log(dim) / math.log(d)) if dim > 0 else 0
    if d**N != dim or shape != (dim, dim):
        raise ValueError(f"matrix shape {shape} is not (d**N, d**N) for d={d}")
    return N


def _index_map(core: np.ndarray, row_of) -> tuple[np.ndarray, np.ndarray]:
    """The state core[row_of][:, row_of] with every core index referenced:
    (core, row_of), row_of as an intp array.  A core index the map never
    names is dropped from both sides, so the checks read the state's own
    entries alone."""
    if core.ndim != 2 or core.shape[0] != core.shape[1]:
        raise ValueError(f"core shape {core.shape} is not square")
    row_of = np.asarray(row_of)
    if row_of.ndim != 1 or row_of.dtype.kind not in "iu":
        raise ValueError(
            f"row map must be a 1-d integer array, got {row_of.dtype} of shape {row_of.shape}"
        )
    count = len(core)
    if len(row_of) and not (row_of.min() >= 0 and row_of.max() < count):
        raise ValueError(f"row map entries must lie in 0..{count - 1}")
    row_of = row_of.astype(np.intp, copy=False)
    named = np.bincount(row_of, minlength=count) > 0
    if not named.all():
        kept = np.flatnonzero(named)
        core = core[np.ix_(kept, kept)]
        row_of = (named.cumsum() - 1)[row_of]
    return core, row_of


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
    N = _parties(rho.shape, d)
    mask = _validate_mask(mask, N)
    axes = list(range(2 * N))
    for party, bit in enumerate(mask):
        if bit:
            axes[party], axes[N + party] = axes[N + party], axes[party]
    return rho.reshape((d,) * (2 * N)).transpose(axes).reshape(d**N, d**N)


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
    """n fixed random weights on [1, 2), read-only: the row hash of a real
    matrix of n columns is its product with them."""
    probe = np.random.default_rng(0x5EED).uniform(1.0, 2.0, n)
    probe.flags.writeable = False
    return probe


def _equal_rows(M: np.ndarray) -> np.ndarray:
    """For each row i of a C-contiguous matrix, the first row j <= i with
    its hash if the two rows are equal, else i itself.

    The hash is the row's product with ``_probe``; a complex row is hashed
    as its float view, real and imaginary parts interleaved.  einsum sums
    every row in one order (a BLAS gemv runs its last rows through another
    kernel, so equal rows there would hash apart).  A row unlike its
    candidate is a class of its own, so a hash miss or collision costs
    quotient size, never correctness: each class is named by its first row.
    """
    n = len(M)
    flat = M.view(M.real.dtype) if np.iscomplexobj(M) else M
    h = np.einsum("ij,j->i", flat, _probe(flat.shape[1]))
    order = h.argsort(kind="stable")  # keeps each hash's first row first
    h = h[order]
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(h[1:], h[:-1], out=start[1:])
    if start.all():  # no two hashes equal, so no two rows
        return np.arange(n)
    rep = np.empty(n, dtype=np.intp)
    rep[order] = order[start][start.cumsum() - 1]
    # compared in slices of ~2^16 entries: no second n x n array, and faster
    step = max(1, 2**16 // M.shape[1])
    same = np.empty(n, dtype=bool)
    for i in range(0, n, step):
        (M[i : i + step] == M[rep[i : i + step]]).all(axis=1, out=same[i : i + step])
    return np.where(same, rep, np.arange(n))


def _skew(core: np.ndarray, index: np.ndarray) -> float:
    """max |C - C^H| on the rows and columns ``index`` of the core C, read
    in slices of ~2^13 entries: each slice's three temporaries stay well
    below a 256 x 256 C."""
    step = max(1, 2**13 // len(index))
    skew = 0.0
    for i in range(0, len(index), step):
        part = index[i : i + step]
        rows = core[part[:, None], index]
        mirror = rows if len(part) == len(index) else core[index[:, None], part]
        skew = max(skew, float(abs(rows - mirror.conj().T).max()))
    return skew


def _state_classes(core: np.ndarray, row_of: np.ndarray | None) -> np.ndarray:
    """For each index of M = core[row_of][:, row_of] (core itself when
    row_of is None), its class, named by the class's first core index: the
    classes of equal rows of the core (``_equal_rows``), with a column
    unlike its class's first split off as a class of its own, carried
    through the map, so that M[x, y] depends on the classes of x and y
    alone.  Raises ValueError if the core has a non-finite entry or is not
    Hermitian to 1e-12 * max|core|.

    Every core index is referenced (``_index_map``), so the core holds
    exactly M's entries: equal core rows (or columns) give equal rows (or
    columns) of M, and the finite and Hermitian tests on the core are those
    on M.  Every row of the core equals one of R = core[r], one row r per
    class, so the finite test on R tests every entry.  When the columns are
    equal within each class too, C - C^H repeats the entries of A - A^H on
    the quotient A = R[:, r], so the Hermitian test to 1e-12 * max|C| runs
    on it, else on the core in slices.
    """
    k = len(core)
    with np.errstate(invalid="ignore", over="ignore"):  # inf rows hash to nan
        rep = _equal_rows(core)  # each core index's class, named by its first
    reps = np.flatnonzero(rep == np.arange(k))
    R = core[reps] if len(reps) < k else core
    scale = float(abs(R).max())
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if len(reps) < k:  # else every column is its class's first
        columns = (R == R[:, rep]).all(axis=0)
        if not columns.all():
            rep = np.where(columns, rep, np.arange(k))
            reps = np.arange(k)
    del R  # one row per class, up to k x k: not kept for the slices
    if _skew(core, reps) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    return rep if row_of is None else rep[row_of]


def _transposed_extremes(
    core: np.ndarray, row_of: np.ndarray | None, table: np.ndarray
) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the partial transpose P of a
    Hermitian matrix M = core[row_of][:, row_of] (core itself when row_of
    is None), from one eigensolve of P's quotient by equal rows, without
    building M or P.

    ``table[i_A, i_B]`` is the index whose transposed digits read i_A and
    whose kept digits read i_B, so P[(i_A, i_B), (j_A, j_B)] is
    M[table[j_A, i_B], table[i_A, j_B]]; the zero mask is the table of
    one row, where P is M.

    If rows i and j of a Hermitian P are equal, so are columns i and j.
    With one row r per class of equal rows, A = P[r, r] and S the 0/1
    class-membership matrix, P = S^T A S and S S^T = D, the class sizes.
    The spectrum of P is therefore that of C = D^1/2 A D^1/2, plus an
    exact 0 when a class has two rows i and j: e_i - e_j is a null vector.

    The classes are found on the core (``_state_classes``) and carried
    through the map and the mask.  With T = rep[table], each index's class
    label, row (i_A, i_B) of P depends on row i_A and column i_B of T
    alone, so the pairs of an equal-row class of T and an equal-column
    class of T split P into classes of equal rows and equal columns.
    table[i_A, i_B] = table[i_A, 0] + table[0, i_B] grows along rows and
    columns, so a pair's first row of P sits at the two classes' first
    indices, and P at those rows and columns is a small gather from the
    core, through one flat index.  Its equal rows merge the pairs into P's
    own classes of equal rows, ordered by first row, so the quotient is
    P[r, r] as read from P itself, whatever partition the pairs start
    from.  Every entry of P is an entry of M, and P - P^H holds the entries
    of M - M^H, moved: the finite and Hermitian tests on M are those on P.
    """
    n = table.size
    rep = _state_classes(core, row_of)
    T = rep[table]
    # the first index of each class of T's rows and of T's columns; the
    # pairs in P's row order, with their first rows' digits and their sizes
    u = _equal_rows(T)
    v = _equal_rows(np.ascontiguousarray(T.T))
    ua, va = np.flatnonzero(u == np.arange(len(u))), np.flatnonzero(v == np.arange(len(v)))
    a, b = table[ua, 0], table[0, va]
    i, j = np.divmod((a[:, None] + b).argsort(axis=None), len(va))
    sizes = np.bincount(u)[ua][i] * np.bincount(v)[va][j]
    a, b = a[i], b[j]
    # Q[x, y] = M[a[y] + b[x], a[x] + b[y]], at core.flat[row * len(core) + column]
    index = b[:, None] + a
    if row_of is None:
        index *= n
        index += a[:, None]
        index += b
    else:
        index = row_of[index]
        index = index * len(core) + index.T
    # the dtype of Q * root, so that the scaling can run in place
    Q = core.take(index).astype(np.result_type(core, np.float64), copy=False)
    del index
    merged = _equal_rows(Q)
    keep = np.flatnonzero(merged == np.arange(len(Q)))
    root = np.sqrt(np.bincount(merged, weights=sizes)[keep])
    if len(keep) < len(Q):
        Q = Q[keep[:, None], keep]
    Q *= root[:, None]
    Q *= root
    spectrum = np.linalg.eigvalsh(Q)
    if len(keep) < n:
        spectrum = np.append(spectrum, 0.0)  # the null vectors' eigenvalue
    return float(spectrum.min()), float(spectrum.max())


def dense_ppt_check(rho: np.ndarray, mask, d: int, tol: float = DEFAULT_PSD_TOL, row_of=None):
    """Partial-transpose PSD status of a dense state from the extremes of
    its partial transpose's spectrum: (status, lam_min, lam_max).

    With row_of, a 1-d integer array of d**N entries, the state is
    rho[row_of][:, row_of]: rho is its square core (as
    ``states.digit_sum_core`` gives it), read through the map on both
    sides, and the state is never built; row_of=None is the identity map of
    a d**N x d**N rho.  The partial transpose is read off the core through
    the mask's index table (``_transposed_extremes``), never built; its
    quotient, and so each extreme, is the one its own equal rows give.
    Raises ValueError if the core or the map is malformed, or if the
    partial transpose is not Hermitian or has a non-finite entry."""
    rho = np.ascontiguousarray(rho)
    if row_of is None:
        N = _parties(rho.shape, d)
    else:
        rho, row_of = _index_map(rho, row_of)
        N = _parties((len(row_of),) * 2, d)
    mask = _validate_mask(mask, N)
    masked = [party for party in range(N) if mask[party]]
    kept = [party for party in range(N) if not mask[party]]
    table = np.arange(d**N).reshape((d,) * N).transpose(masked + kept).reshape(d ** len(masked), -1)
    lam_min, lam_max = _transposed_extremes(rho, row_of, table)
    return PsdCheck.from_extremes(lam_min, lam_max, tol).status, lam_min, lam_max
