"""Truncated half-line moment problem: feasibility, atomic-measure recovery,
and the separability decision it induces for diagonal restricted-Dicke states.

A coefficient sequence (p_0..p_n) is feasible exactly when the two moment
Hankel matrices (p_{k+l}) and (p_{k+l+1}) are positive semidefinite; the
measure may place an extra nonnegative mass M on the top moment p_n.  A
feasible sequence is certified constructively.  The sequence is rescaled once,
q_k = p_k / c^k, so its moments are of order one; the classical three-term
recurrence of a window of q (Chebyshev algorithm -> Jacobi matrix truncated
at its numerical rank -> eigenvalues) gives Gauss nodes and weights, mapped
back by c.  For every n, the rule pinned at 0 on the longest odd-length window
is tried first, then the Gauss rule on the longest even-length window; the
first that reproduces every moment, p_n's surplus as top mass, is the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ppt import (
    DEFAULT_PSD_TOL,
    MARGINAL,
    NOT_PSD,
    PSD,
    PsdCheck,
    hankel,
    psd_checks,
    worst_status,
)
from .states import StateSpec
from .witnesses import witness_from_hankel

DEFAULT_RESIDUAL_TOL = 1e-9

# Relative cutoff: a three-term-recurrence coefficient this far below the
# running scale is treated as the exact zero of a finitely-atomic measure.
RANK_TOL = 1e-9


class RecoveryError(RuntimeError):
    """Conditioning prevented recovery of a representing measure."""


_FLOAT = np.finfo(float)


def _times_power(x, t: float, k: np.ndarray, divide: bool = False) -> np.ndarray:
    """x * t**k, or x / t**k with divide, over increasing integer exponents k >= 0.

    Where t**k is a normal float this is numpy's result, bit for bit.  Where
    it is not, t**k has left the float range although the result need not
    (an atom far out with a tiny weight), so for t > 0 the result is formed
    from t = m * 2**E instead: with e = k * log2(m) and j = ceil(e) (both
    negated with divide), it is ldexp(x * 2**(e - j), k*E + j), which leaves
    the float range only where its true value does."""
    if not t > 0 or not len(k) or k[-1] * abs(math.log2(t)) < 1021:  # every t**k is normal
        return x / t**k if divide else x * t**k
    with np.errstate(over="ignore", under="ignore"):
        tk = t ** k
    far = (tk < _FLOAT.tiny) | (tk > _FLOAT.max)
    tk[far] = 1.0
    out = x / tk if divide else x * tk
    m, E = math.frexp(t)
    sign = -1 if divide else 1
    e = sign * k[far] * math.log2(m)
    j = np.ceil(e)
    scaled = np.broadcast_to(x, out.shape)[far] * np.exp2(e - j)
    out[far] = np.ldexp(scaled, (sign * E * k[far] + j).astype(int))
    return out


def _sequence(p) -> np.ndarray:
    """p as a float array; raises ValueError unless it is a nonempty 1-d
    sequence of finite numbers."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("expected a nonempty 1-d coefficient sequence")
    if not np.isfinite(p).all():
        raise ValueError("coefficient sequence has non-finite entries")
    return p


def moment_hankels(p) -> tuple[np.ndarray, np.ndarray]:
    """The two Hankel matrices (p_{k+l}), size floor(n/2)+1, and (p_{k+l+1}),
    size floor((n-1)/2)+1, whose joint PSD-ness decides feasibility."""
    p = _sequence(p)
    n = len(p) - 1
    return hankel(p, n // 2 + 1, 0), hankel(p, (n - 1) // 2 + 1, 1)


# Feasibility verdict of each joint status of the two moment Hankels.
MOMENT_WORDS = {PSD: "yes", NOT_PSD: "no", MARGINAL: "marginal"}


@dataclass(frozen=True)
class MomentCheck:
    """The feasibility verdict and the checks of the two moment Hankels, whose
    matrices `moment_hankels(p)` gives again; no check carries a vector."""

    verdict: str  # "yes" | "no" | "marginal"
    even: PsdCheck
    odd: PsdCheck


def is_generalized_moment_solution(p, tol: float = DEFAULT_PSD_TOL) -> MomentCheck:
    """Feasibility of the moment sequence p, deciding each moment Hankel from
    its eigenvalues alone (`psd_checks` without vectors), so with the bits of
    the m-PPT block that is the same matrix.  A witness takes its eigenvector
    from a solve of its own (`witness_from_hankel`).  Raises ValueError unless
    p is a nonempty 1-d sequence of finite numbers."""
    even, odd = (psd_checks(h[None], tol).check(0) for h in moment_hankels(p))
    return MomentCheck(MOMENT_WORDS[worst_status((even.status, odd.status))], even, odd)


@dataclass(frozen=True)
class MeasureAtoms:
    """Finitely-atomic measure on [0, inf) plus a mass M on the top moment."""

    atoms: tuple[tuple[float, float], ...]  # (node, weight), weights > 0
    top_mass: float
    moment_residual: float

    def moments(self, count: int) -> np.ndarray:
        """First `count` raw moments of the measure (top mass not included)."""
        out, k = np.zeros(count), np.arange(count)
        for t, w in self.atoms:
            out += _times_power(w, t, k)
        return out

    def reproduced(self, n: int) -> np.ndarray:
        """Moments p_0..p_n this measure encodes, with M added to p_n."""
        out = self.moments(n + 1)
        out[n] += self.top_mass
        return out


def _recurrence_from_moments(mom: np.ndarray):
    """Three-term recurrence coefficients (alphas, betas) of the orthogonal
    polynomials of the measure behind the moment window `mom`, via the
    Chebyshev algorithm.

    Returns up to K = len(mom) // 2 coefficient pairs with betas[0] = mom[0];
    stops early at the numerical rank of the measure (vanishing squared norm).
    """
    L, K = len(mom) - 1, len(mom) // 2
    if K == 0 or mom[0] <= 0:
        return np.zeros(0), np.zeros(0)
    alphas = [mom[1] / mom[0]]
    betas = [mom[0]]
    sig_km2 = np.zeros(L + 2)
    sig_km1 = np.concatenate([mom.astype(float), [0.0]])
    scale = max(1.0, alphas[0] * alphas[0])  # max(1, alpha_j^2, beta_j for j >= 1)
    for k in range(1, K):
        sig_k = np.zeros(L + 2)
        l = slice(k, 2 * K - k)
        sig_k[l] = (
            sig_km1[k + 1 : 2 * K - k + 1] - alphas[k - 1] * sig_km1[l] - betas[k - 1] * sig_km2[l]
        )
        norm_sq = sig_k[k]
        if not np.isfinite(norm_sq) or norm_sq <= RANK_TOL * scale * sig_km1[k - 1]:
            break
        betas.append(norm_sq / sig_km1[k - 1])
        alphas.append(sig_k[k + 1] / sig_k[k] - sig_km1[k] / sig_km1[k - 1])
        scale = max(scale, alphas[-1] * alphas[-1], betas[-1])
        sig_km2, sig_km1 = sig_km1, sig_k
    return np.array(alphas), np.array(betas)


def _gauss_rule(mom: np.ndarray):
    """Gauss nodes/weights for the moment window `mom`, of even length 2K,
    from the Jacobi matrix of its recurrence (at most K nodes).

    Nodes are Jacobi-matrix eigenvalues; weights are the squared first
    eigenvector components scaled by the total mass betas[0].
    """
    alphas, betas = _recurrence_from_moments(mom)
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
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
        largest = weights * np.maximum(nodes, 1.0) ** n
    merged: dict[float, float] = {}
    for t, w, top in zip(nodes, weights, largest):
        if not top > 1e-12 * scale:  # also an empty atom far out, whose top is NaN
            continue
        if t < -node_clip:
            raise _Rejected(len(nodes), f"negative node {t:.3e}")
        t = max(float(t), 0.0)
        merged[t] = merged.get(t, 0.0) + float(w)
    return sorted(merged.items())


def _evaluate_candidate(atom_list, p: np.ndarray, bound: float) -> MeasureAtoms:
    """Check an atom list against the full sequence; absorb the top-moment
    surplus into M when nonnegative.  Only a surplus that is rounding of p_n
    itself is dropped: p_n can lie far below the absolute bound, and
    dropping a real surplus there would leave p_n wrong by a large fraction."""
    n = len(p) - 1
    candidate = MeasureAtoms(tuple(atom_list), 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        mom = candidate.moments(n + 1)
    if not np.all(np.isfinite(mom)):
        raise _Rejected(len(atom_list), "moments overflow")
    top_mass = p[n] - mom[n]
    if top_mass < -bound:
        raise _Rejected(len(atom_list), f"negative top mass {top_mass:.3e}")
    if top_mass <= min(bound, 1e-9 * abs(p[n])):
        top_mass = 0.0
    reproduced = mom.copy()
    reproduced[n] += top_mass
    residual = float(np.max(np.abs(reproduced - p), initial=0.0))
    if residual > bound:
        raise _Rejected(len(atom_list), f"residual {residual:.3e} > bound")
    return MeasureAtoms(tuple(atom_list), float(top_mass), residual)


def _radau_rule(q: np.ndarray):
    """Rule with one node pinned at 0 for an odd-length window q_0..q_{2K},
    from the Gauss rule of q_1..q_{2K}: the lower principal representation,
    whose q_{2K+1} is the least of any measure representing the window."""
    # q_1..q_{2K} are the raw moments of t*dsigma; dividing its Gauss weights
    # by the nodes recovers sigma away from 0, and the mass balance pins the
    # weight at 0.
    nodes, u = _gauss_rule(q[1:])
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
    the first whose atoms (nodes mapped back by c), with the surplus of p_n
    as the top mass, reproduce p within tol * max|p| wins: the rule pinned at
    0 on the longest odd-length window of q, whose next moment is the least
    of any measure representing that window; then the Gauss rule on the
    longest even-length window, truncated at the recurrence's numerical
    rank.  Neither p_{n-1}/p_0, the powers c^k nor an atom's powers t^k need
    lie in the float range for q and the moments to (see `_times_power`).
    Raises ValueError unless p is a nonempty 1-d sequence of finite numbers,
    and RecoveryError naming each rule and why it was rejected (the
    feasibility verdict is unaffected).
    """
    p = _sequence(p)
    n = len(p) - 1
    scale = float(np.max(np.abs(p), initial=0.0))
    if scale == 0.0:
        return MeasureAtoms((), 0.0, 0.0)
    bound = tol * scale
    c = 1.0
    if n >= 2 and p[0] > 0 and p[n - 1] > 0:
        with np.errstate(over="ignore", under="ignore"):
            ratio = p[n - 1] / p[0]
        if _FLOAT.tiny <= ratio <= _FLOAT.max:
            c = float(ratio ** (1.0 / (n - 1)))
        else:  # the ratio left the float range, its root need not
            # q and the nodes share c, so any c > 0 rescales exactly
            log_c = (math.log2(p[n - 1]) - math.log2(p[0])) / (n - 1)
            c = 2.0 ** min(max(log_c, -1022.0), 1023.0)
    q = _times_power(p, c, np.arange(n + 1), divide=True)

    rejected = []
    rules = (("radau", _radau_rule, q[: n + 1 - n % 2]), ("gauss", _gauss_rule, q[: n + n % 2]))
    for kind, rule, window in rules:
        try:
            nodes, weights = rule(window)
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
    built from the lowest eigenvector of the failing Hankel, the even one
    (family V) when both fail.
    """
    check = is_generalized_moment_solution(spec.p, psd_tol)
    verdict = _SEPARABILITY[check.verdict]
    if verdict == "entangled":
        failing = [i for i, chk in enumerate((check.even, check.odd)) if chk.status == NOT_PSD]
        i = failing[0]  # the even Hankel when both fail
        basis = "both" if len(failing) == 2 else ("even-hankel", "odd-hankel")[i]
        witness = witness_from_hankel(spec, "VU"[i], moment_hankels(spec.p)[i])
        return SeparabilityVerdict(verdict, basis, check.even, check.odd, witness=witness)
    if verdict == "marginal":
        return SeparabilityVerdict(verdict, "both", check.even, check.odd)
    try:
        atoms = recover_atomic_measure(spec.p, tol)
    except RecoveryError as exc:
        return SeparabilityVerdict(verdict, "both", check.even, check.odd, recovery_error=exc)
    return SeparabilityVerdict(verdict, "both", check.even, check.odd, atoms)
