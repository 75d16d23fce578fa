"""Truncated half-line moment problem: feasibility, atomic-measure recovery,
and the separability decision it induces for diagonal restricted-Dicke states.

A coefficient sequence (p_0..p_n) is feasible exactly when the two moment
Hankel matrices (p_{k+l}) and (p_{k+l+1}) are positive semidefinite; the
measure may place an extra nonnegative mass M on the top moment p_n.  A
feasible sequence is certified constructively.  The sequence is rescaled once,
q_k = p_k / c^k, so its moments are of order one; the classical three-term
recurrence of q (Chebyshev algorithm -> Jacobi matrix truncated at its
numerical rank -> eigenvalues) gives Gauss nodes and weights, and the nodes
are mapped back by c.  For even n a rule with one node pinned at 0 is tried
first, then the Gauss rule; the first that reproduces every moment within
tolerance is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ppt import (
    DEFAULT_PSD_TOL,
    MARGINAL,
    NOT_PSD,
    PSD,
    PsdCheck,
    is_m_ppt,
)
from .states import StateSpec

DEFAULT_RESIDUAL_TOL = 1e-9

# Relative cutoff: a three-term-recurrence coefficient this far below the
# running scale is treated as the exact zero of a finitely-atomic measure.
RANK_TOL = 1e-9


class RecoveryError(RuntimeError):
    """Conditioning prevented recovery of a representing measure."""


def moment_hankels(p) -> tuple[np.ndarray, np.ndarray]:
    """The two Hankel matrices (p_{k+l}), size floor(n/2)+1, and (p_{k+l+1}),
    size floor((n-1)/2)+1, whose joint PSD-ness decides feasibility."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("expected a nonempty 1-d coefficient sequence")
    n = len(p) - 1
    n0 = n // 2
    n1 = (n - 1) // 2
    even_idx = np.arange(n0 + 1)
    h_even = p[even_idx[:, None] + even_idx[None, :]]
    if n1 < 0:
        h_odd = np.zeros((0, 0))
    else:
        odd_idx = np.arange(n1 + 1)
        h_odd = p[odd_idx[:, None] + odd_idx[None, :] + 1]
    return h_even, h_odd


@dataclass(frozen=True)
class MomentCheck:
    verdict: str  # "yes" | "no" | "marginal"
    strict: bool  # both Hankels strictly positive definite
    even: PsdCheck
    odd: PsdCheck
    # unit eigenvector of each Hankel's lowest eigenvalue; None when empty.
    # Left out of ==, which cannot compare arrays; p determines them anyway.
    even_vec: np.ndarray | None = field(default=None, compare=False, repr=False)
    odd_vec: np.ndarray | None = field(default=None, compare=False, repr=False)


def _lowest_eigenpair(H: np.ndarray, tol: float) -> tuple[PsdCheck, np.ndarray | None]:
    """PSD status of a moment Hankel and the eigenvector of its lowest
    eigenvalue, from one symmetric eigendecomposition."""
    if H.size == 0:
        return PsdCheck(PSD, None, None, None), None
    evals, evecs = np.linalg.eigh(H)
    return PsdCheck.from_extremes(float(evals[0]), float(evals[-1]), tol), evecs[:, 0]


def is_generalized_moment_solution(p, tol: float = DEFAULT_PSD_TOL) -> MomentCheck:
    """Feasibility of the moment sequence p, deciding each moment Hankel with
    a single eigendecomposition whose lowest eigenvector is kept for the
    witness."""
    h_even, h_odd = moment_hankels(p)
    even, even_vec = _lowest_eigenpair(h_even, tol)
    odd, odd_vec = _lowest_eigenpair(h_odd, tol)
    statuses = {even.status, odd.status}
    if NOT_PSD in statuses:
        verdict = "no"
    elif MARGINAL in statuses:
        verdict = "marginal"
    else:
        verdict = "yes"

    def _strict(chk: PsdCheck) -> bool:
        return chk.lam_min is None or chk.lam_min > chk.band

    return MomentCheck(verdict, _strict(even) and _strict(odd), even, odd, even_vec, odd_vec)


@dataclass(frozen=True)
class MeasureAtoms:
    """Finitely-atomic measure on [0, inf) plus a mass M on the top moment."""

    atoms: tuple[tuple[float, float], ...]  # (node, weight), weights > 0
    top_mass: float
    moment_residual: float

    def moments(self, count: int) -> np.ndarray:
        """First `count` raw moments of the measure (top mass not included)."""
        out = np.zeros(count)
        for t, w in self.atoms:
            out += w * t ** np.arange(count)
        return out

    def reproduced(self, n: int) -> np.ndarray:
        """Moments p_0..p_n this measure encodes, with M added to p_n."""
        out = self.moments(n + 1)
        out[n] += self.top_mass
        return out


def _recurrence_from_moments(mom: np.ndarray, K: int):
    """Three-term recurrence coefficients (alphas, betas) of the orthogonal
    polynomials of the measure behind `mom`, via the Chebyshev algorithm.

    Returns up to K coefficient pairs with betas[0] = mom[0]; stops early at
    the numerical rank of the measure (vanishing squared norm).  Requires
    len(mom) >= 2K.
    """
    L = len(mom) - 1
    if 2 * K - 1 > L:
        raise ValueError("not enough moments for the requested recurrence length")
    if K == 0 or mom[0] <= 0:
        return np.zeros(0), np.zeros(0)
    alphas = [mom[1] / mom[0]]
    betas = [mom[0]]
    sig_km2 = np.zeros(L + 2)
    sig_km1 = np.concatenate([mom.astype(float), [0.0]])
    for k in range(1, K):
        sig_k = np.zeros(L + 2)
        for l in range(k, 2 * K - k):
            sig_k[l] = (
                sig_km1[l + 1] - alphas[k - 1] * sig_km1[l] - betas[k - 1] * sig_km2[l]
            )
        norm_sq = sig_k[k]
        scale = max(1.0, max(a * a for a in alphas), max(betas[1:], default=0.0))
        if not np.isfinite(norm_sq) or norm_sq <= RANK_TOL * scale * sig_km1[k - 1]:
            break
        betas.append(norm_sq / sig_km1[k - 1])
        alphas.append(sig_k[k + 1] / sig_k[k] - sig_km1[k] / sig_km1[k - 1])
        sig_km2, sig_km1 = sig_km1, sig_k
    return np.array(alphas), np.array(betas)


def _gauss_rule(alphas: np.ndarray, betas: np.ndarray):
    """Gauss nodes/weights of the Jacobi matrix of a recurrence.

    Nodes are Jacobi-matrix eigenvalues; weights are the squared first
    eigenvector components scaled by the total mass betas[0].
    """
    r = len(alphas)
    if r == 0:
        return np.zeros(0), np.zeros(0)
    J = np.diag(alphas)
    if r > 1:
        off = np.sqrt(betas[1:])
        J += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(J)
    weights = betas[0] * vecs[0, :] ** 2
    return nodes, weights


class _Rejected(Exception):
    """A quadrature rule that does not certify the sequence: (atom count, reason)."""


def _clean_atoms(nodes: np.ndarray, weights: np.ndarray, n: int, scale: float):
    """Clip slightly-negative nodes to 0, drop atoms whose largest moment
    w * max(1, t)^n is negligible against the data, merge duplicates; rejects
    the rule if a kept node is decisively negative."""
    node_clip = 1e-8 * (1.0 + float(np.max(np.abs(nodes), initial=0.0)))
    with np.errstate(over="ignore"):
        largest = weights * np.maximum(nodes, 1.0) ** n
    merged: dict[float, float] = {}
    for t, w, top in zip(nodes, weights, largest):
        if top <= 1e-12 * scale:
            continue
        if t < -node_clip:
            raise _Rejected(len(nodes), f"negative node {t:.3e}")
        t = max(float(t), 0.0)
        merged[t] = merged.get(t, 0.0) + float(w)
    return sorted(merged.items())


def _evaluate_candidate(atom_list, p: np.ndarray, bound: float) -> MeasureAtoms:
    """Check an atom list against the full sequence; absorb the top-moment
    surplus into M when nonnegative."""
    n = len(p) - 1
    candidate = MeasureAtoms(tuple(atom_list), 0.0, 0.0)
    mom = candidate.moments(n + 1)
    top_mass = p[n] - mom[n]
    if top_mass < -bound:
        raise _Rejected(len(atom_list), f"negative top mass {top_mass:.3e}")
    if top_mass <= bound:
        top_mass = 0.0
    reproduced = mom.copy()
    reproduced[n] += top_mass
    residual = float(np.max(np.abs(reproduced - p), initial=0.0))
    if residual > bound:
        raise _Rejected(len(atom_list), f"residual {residual:.3e} > bound")
    return MeasureAtoms(tuple(atom_list), float(top_mass), residual)


def _radau_rule(q: np.ndarray):
    """Rule with one node pinned at 0 for the moments q_0..q_n, n even, from
    the Gauss rule of the shifted sequence q_1..q_n."""
    # q_1..q_n are the raw moments of t*dsigma; dividing its Gauss weights by
    # the nodes recovers sigma away from 0, and the mass balance pins the
    # weight at 0.
    nodes, u = _gauss_rule(*_recurrence_from_moments(q[1:], (len(q) - 1) // 2))
    if len(nodes) and np.min(nodes) <= 1e-10 * (1.0 + np.max(nodes)):
        raise _Rejected(len(nodes) + 1, f"non-positive node {np.min(nodes):.3e}")
    weights = u / nodes
    w0 = q[0] - float(np.sum(weights))
    if w0 < -1e-10 * q[0]:
        raise _Rejected(len(nodes) + 1, f"negative weight at 0 ({w0:.3e})")
    if w0 <= 1e-10 * q[0]:  # rounding noise either side of an empty 0
        return nodes, weights
    return np.concatenate([[0.0], nodes]), np.concatenate([[w0], weights])


def recover_atomic_measure(p, tol: float = DEFAULT_RESIDUAL_TOL) -> MeasureAtoms:
    """Atomic measure (plus top mass) reproducing a feasible moment sequence.

    The sequence is rescaled once to q_k = p_k / c^k with
    c = (p_{n-1} / p_0)^{1/(n-1)}, so the Chebyshev algorithm sees moments of
    order one.  At most two rules are built, each from one recurrence, and
    the first whose atoms (nodes mapped back by c) reproduce p within
    tol * max|p| wins: for even n, the rule with one node pinned at 0 from the
    shifted sequence q_1..q_n, which matches all moments exactly whenever
    possible; then the Gauss rule of q, truncated at the recurrence's
    numerical rank, with the surplus on the top moment.  Raises RecoveryError
    naming each rule and why it was rejected (the feasibility verdict is
    unaffected).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("expected a nonempty 1-d coefficient sequence")
    n = len(p) - 1
    scale = float(np.max(np.abs(p), initial=0.0))
    if scale == 0.0:
        return MeasureAtoms((), 0.0, 0.0)
    bound = tol * scale
    c = 1.0
    if n >= 2 and p[0] > 0 and p[n - 1] > 0:
        c = float((p[n - 1] / p[0]) ** (1.0 / (n - 1)))
    q = p / c ** np.arange(n + 1)

    rejected = []
    for kind in ("radau", "gauss") if n >= 2 and n % 2 == 0 else ("gauss",):
        try:
            if kind == "radau":
                nodes, weights = _radau_rule(q)
            else:
                nodes, weights = _gauss_rule(*_recurrence_from_moments(q, (n + 1) // 2))
            return _evaluate_candidate(_clean_atoms(c * nodes, weights, n, scale), p, bound)
        except _Rejected as exc:
            count, reason = exc.args
            rejected.append(f"{kind} rule, {count} atom{'s' * (count != 1)}: {reason}")
    raise RecoveryError(
        f"no atomic measure met the residual bound {bound:.3e}: " + "; ".join(rejected)
    )


# Separability is moment feasibility, so its verdict is read off the check.
_SEPARABILITY = {"yes": "separable", "no": "entangled", "marginal": "marginal"}


@dataclass(frozen=True)
class SeparabilityVerdict:
    verdict: str  # "separable" | "entangled" | "marginal"
    basis: str  # "even-hankel" | "odd-hankel" | "both"
    even: PsdCheck
    odd: PsdCheck
    atoms: MeasureAtoms | None = None
    witness: object | None = None  # WitnessSpec when entangled
    recovery_error: RecoveryError | None = None  # separable without atoms


def is_separable(
    spec: StateSpec,
    tol: float = DEFAULT_RESIDUAL_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> SeparabilityVerdict:
    """Full separability of the diagonal restricted-Dicke state: equivalent to
    moment-problem feasibility of its coefficient sequence.

    Separable verdicts carry the recovered measure, or the RecoveryError that
    explains why there is none; entangled verdicts carry a detecting witness
    built from the feasibility check's own eigenvectors.
    """
    check = is_generalized_moment_solution(spec.p, psd_tol)
    verdict = _SEPARABILITY[check.verdict]
    if verdict == "entangled":
        from .witnesses import witness_from_check

        if check.even.status == NOT_PSD and check.odd.status == NOT_PSD:
            basis = "both"
        elif check.even.status == NOT_PSD:
            basis = "even-hankel"
        else:
            basis = "odd-hankel"
        witness = witness_from_check(spec, check)
        return SeparabilityVerdict(verdict, basis, check.even, check.odd, witness=witness)
    if verdict == "marginal":
        return SeparabilityVerdict(verdict, "both", check.even, check.odd)
    try:
        atoms = recover_atomic_measure(spec.p, tol)
    except RecoveryError as exc:
        return SeparabilityVerdict(verdict, "both", check.even, check.odd, recovery_error=exc)
    return SeparabilityVerdict(verdict, "both", check.even, check.odd, atoms)


@dataclass(frozen=True)
class MainTheoremRecord:
    """Joint run of the three equivalent classifications (separability,
    half-party PPT, moment feasibility) with an agreement flag; marginal
    verdicts are excluded from the agreement comparison.  Separability is
    read off the moment check, so PPT is the only independent vote."""

    m: int
    separable: str
    ppt: str
    moment: str
    agree: bool


def check_main_theorem(spec: StateSpec, psd_tol: float = DEFAULT_PSD_TOL) -> MainTheoremRecord:
    N, d = spec.N, spec.d
    if N % 2 == 0:
        m = N // 2
    elif d == 2:
        m = (N - 1) // 2
    else:
        raise ValueError(
            "the equivalence requires N even, or d = 2 with N odd; "
            f"got N={N}, d={d}"
        )
    moment_check = is_generalized_moment_solution(spec.p, psd_tol)
    ppt_report = is_m_ppt(spec, m, psd_tol)
    agree = "marginal" in (moment_check.verdict, ppt_report.verdict) or (
        (moment_check.verdict == "yes") == (ppt_report.verdict == "ppt")
    )
    separable = _SEPARABILITY[moment_check.verdict]
    return MainTheoremRecord(m, separable, ppt_report.verdict, moment_check.verdict, agree)
