"""Explicit fully separable ensembles for moment-feasible diagonal states.

A geometric coefficient sequence t^k is reconstructed exactly by a discrete
Fourier family of product vectors: with L = N(d-1)+1 and w a primitive L-th
root of unity, the L vectors sum_i t^(i/2) w^(a i) |i> (a = 0..L-1), each
taken to the N-th tensor power with weight 1/L, average out all cross terms
between different digit sums.  A general feasible sequence is a mixture of
geometric ones given by its recovered atomic measure, plus the top product
state carrying the mass M.  An atom's L vectors come from one array of
phases ``exp(2 pi i ((a i) mod L) / L)`` scaled by the amplitudes t^(i/2),
as one (L, d) array whose rows are the terms.  Ensembles are kept as their
terms; the distance to the state is reported in closed form, and the dense
matrix of an ensemble, for verification, is ``oracle.ensemble_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moment import DEFAULT_RESIDUAL_TOL, MeasureAtoms, SeparabilityVerdict, is_separable
from .states import StateSpec, composition_counts

TOP = "top"

MARGINAL_REASON = (
    "verdict is marginal: a moment Hankel's minimum eigenvalue lies inside the "
    "tolerance band, so neither a separable ensemble nor a detecting witness is decisive"
)


class NotSeparableError(ValueError):
    """Decomposition requested for a state not decided separable."""


@dataclass(frozen=True)
class SeparableEnsemble:
    """Weighted product vectors; each term means weight * |phi><phi|^(tensor N),
    with phi either an explicit d-vector (possibly non-unit) or the symbolic
    top vector |d-1>."""

    N: int
    d: int
    terms: tuple[tuple[float, np.ndarray | str], ...]
    reconstruction_error: float | None = None

    def normalized(self) -> "SeparableEnsemble":
        """Convex combination of unit-trace product states (weights sum to 1).
        Its reconstruction_error is None: the terms alone do not give the
        distance to the normalized state, which
        ``ensemble_from_measure(..., normalize=True)`` reports."""
        logs, units = [], []
        for weight, phi in self.terms:
            if weight < 0:
                raise ValueError(f"cannot normalize an ensemble with weight {weight}")
            log_w = math.log(weight) if weight > 0 else -math.inf
            if not isinstance(phi, str):
                vec = np.asarray(phi, dtype=np.complex128)
                norm = np.linalg.norm(vec)
                if norm == 0:
                    continue
                log_w += 2 * self.N * math.log(norm)
                phi = vec / norm
            logs.append(log_w)
            units.append(phi)
        weights = _convex_weights(logs, np.ones(len(logs)))
        return SeparableEnsemble(self.N, self.d, tuple(zip(weights.tolist(), units)))


def _convex_weights(logs, counts: np.ndarray) -> np.ndarray:
    """Weights proportional to exp(logs) whose total over counts[g] terms of
    weight g is 1.  The log-weights are shifted by their maximum before exp:
    weight * norm**(2N) itself overflows for an atom t > 1 at large N."""
    logs = np.asarray(logs, dtype=float)
    top = logs.max(initial=-math.inf)
    if top == -math.inf:
        raise ValueError("cannot normalize an ensemble with zero total weight")
    weights = np.exp(logs - top)
    return weights / (weights * counts).sum()


def _fourier_vectors(N: int, d: int, t: float) -> np.ndarray:
    """Rows a = 0..L-1: the Fourier vectors sum_i t^(i/2) w^(a i) |i> of ratio t."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"geometric ratio t must be finite and >= 0, got {t}")
    L = N * (d - 1) + 1
    amps = np.array([float(t) ** (i / 2) for i in range(d)])
    # w^(a i) from its exponent reduced mod L: one rounding of exp(i theta),
    # so every phase has unit modulus to an ulp, where complex powers of w
    # drift by ~L ulps and `SeparableEnsemble.normalized` raises that to 2N
    return amps * np.exp(2j * np.pi * (np.outer(np.arange(L), np.arange(d)) % L) / L)


def geometric_ensemble(N: int, d: int, t: float) -> SeparableEnsemble:
    """Fourier product-vector ensemble reconstructing the state with
    coefficients t^k; returns N(d-1)+1 terms of equal weight."""
    vectors = _fourier_vectors(N, d, t)
    return SeparableEnsemble(N, d, tuple((1.0 / len(vectors), phi) for phi in vectors))


def separable_ensemble(
    spec: StateSpec, tol: float = DEFAULT_RESIDUAL_TOL
) -> SeparableEnsemble:
    """Separable decomposition of the state: a Fourier ensemble per recovered
    atom (a single product term for an atom at 0) plus the top product state
    weighted by the recovered mass M.

    Raises NotSeparableError for entangled or marginal states, and the
    verdict's RecoveryError when no measure could be recovered.
    """
    return ensemble_from_verdict(spec, is_separable(spec, tol))


def ensemble_from_verdict(
    spec: StateSpec, verdict: SeparabilityVerdict, normalize: bool = False
) -> SeparableEnsemble:
    """Ensemble certifying an already computed separability verdict."""
    if verdict.verdict == "marginal":
        raise NotSeparableError(MARGINAL_REASON)
    if verdict.verdict != "separable":
        raise NotSeparableError(
            f"state is {verdict.verdict}; no separable decomposition exists"
        )
    if verdict.recovery_error is not None:
        raise verdict.recovery_error
    return ensemble_from_measure(spec, verdict.atoms, normalize)


def reconstruction_error(N: int, d: int, moments, p, normalize: bool = False) -> float | None:
    """Frobenius distance between the states sum_k x_k |R_k><R_k| with
    x = moments and x = p (each divided by its trace when `normalize`), in
    closed form: the |R_k><R_k| are orthogonal with Frobenius norm count_k,
    so the distance is sqrt(sum_k count_k^2 (moments_k - p_k)^2) and a trace
    is sum_k count_k x_k.  None when a count or a trace exceeds the float
    range, or the distance does."""
    counts = composition_counts(N, d)
    x, y = np.asarray(moments, dtype=float), np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if normalize:
            traces = counts @ x, counts @ y
            if not all(map(math.isfinite, traces)):
                return None
            x, y = x / traces[0], y / traces[1]
        err = math.hypot(*(counts * (x - y)))
    return err if math.isfinite(err) else None


def ensemble_from_measure(
    spec: StateSpec, measure: MeasureAtoms, normalize: bool = False
) -> SeparableEnsemble:
    """Fourier ensembles of the measure's atoms plus the top state.  Each
    Fourier family reproduces its atom's moments exactly, so the ensemble is
    the state with coefficients measure.reproduced(n), and its
    reconstruction_error is the closed form against p; no dense matrix is
    built.

    With `normalize`, the terms are unit-trace product states with weights
    summing to 1, as ``SeparableEnsemble.normalized`` gives them, but from
    one log-weight per atom: every phase has unit modulus, so each Fourier
    vector of an atom t has squared norm sum_{i<d} t^i in closed form, and
    the atom's terms share one weight bit for bit."""
    N, d = spec.N, spec.d
    L = N * (d - 1) + 1
    # per atom, then the top state: (weight, squared norm of each vector, vectors)
    groups: list[tuple[float, float, np.ndarray | list[str]]] = []
    for t, w in measure.atoms:
        if t == 0.0:
            # every Fourier vector degenerates to |0>, so emit one term
            groups.append((w, 1.0, np.eye(1, d, dtype=np.complex128)))
        else:
            norm2 = math.fsum(t**i for i in range(d))
            groups.append((w * (1.0 / L), norm2, _fourier_vectors(N, d, t)))
    if measure.top_mass > 0:
        groups.append((measure.top_mass, 1.0, [TOP]))
    if normalize:
        logs = [math.log(w) + N * math.log(norm2) for w, norm2, _ in groups]
        weights = _convex_weights(logs, np.array([len(v) for _, _, v in groups]))
        groups = [
            (weight, 1.0, v / math.sqrt(norm2) if isinstance(v, np.ndarray) else v)
            for weight, (_, norm2, v) in zip(weights.tolist(), groups)
        ]
    terms = tuple((weight, phi) for weight, _, vectors in groups for phi in vectors)
    err = reconstruction_error(N, d, measure.reproduced(N * (d - 1)), spec.p, normalize)
    return SeparableEnsemble(N, d, terms, err)
