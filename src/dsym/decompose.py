"""Explicit fully separable ensembles for moment-feasible diagonal states.

A geometric coefficient sequence t^k is reconstructed exactly by a discrete
Fourier family of product vectors: with L = N(d-1)+1 and w a primitive L-th
root of unity, the L vectors sum_i t^(i/2) w^(a i) |i> (a = 0..L-1), each
taken to the N-th tensor power with weight 1/L, average out all cross terms
between different digit sums.  A general feasible sequence is a mixture of
geometric ones given by its recovered atomic measure, plus the top product
state carrying the mass M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .combinatorics import composition_counts
from .moment import DEFAULT_RESIDUAL_TOL, MeasureAtoms, SeparabilityVerdict, is_separable
from .states import StateSpec, check_dense_cap, product_powers

TOP = "top"


class NotSeparableError(ValueError):
    """Decomposition requested for a state that is not separable."""


@dataclass(frozen=True)
class SeparableEnsemble:
    """Weighted product vectors; each term means weight * |phi><phi|^(tensor N),
    with phi either an explicit d-vector (possibly non-unit) or the symbolic
    top vector |d-1>."""

    N: int
    d: int
    terms: tuple[tuple[float, np.ndarray | str], ...]
    reconstruction_error: float | None = None

    def to_dense(self) -> np.ndarray:
        """sum_t weight_t |phi_t><phi_t|^(tensor N), as one matrix product."""
        check_dense_cap(self.N, self.d)
        top = np.eye(self.d)[self.d - 1]
        weights = np.array([weight for weight, _ in self.terms], dtype=float)
        phis = [top if isinstance(phi, str) else phi for _, phi in self.terms]
        vecs = product_powers(self.N, self.d, np.reshape(phis, (len(phis), self.d)))
        return (vecs.T * weights) @ vecs.conj()

    def normalized(self) -> "SeparableEnsemble":
        """Convex combination of unit-trace product states (weights sum to 1).
        Its reconstruction_error is None: the terms alone do not give the
        distance to the normalized state, which
        ``ensemble_from_measure(..., normalize=True)`` reports."""
        new_terms = []
        for weight, phi in self.terms:
            if isinstance(phi, str):
                new_terms.append((weight, phi))
            else:
                vec = np.asarray(phi, dtype=np.complex128)
                norm = np.linalg.norm(vec)
                if norm == 0:
                    continue
                new_terms.append((weight * norm ** (2 * self.N), vec / norm))
        total = sum(w for w, _ in new_terms)
        if total <= 0:
            raise ValueError("cannot normalize an ensemble with zero total weight")
        return SeparableEnsemble(
            self.N,
            self.d,
            tuple((w / total, phi) for w, phi in new_terms),
        )


def geometric_ensemble(N: int, d: int, t: float) -> SeparableEnsemble:
    """Fourier product-vector ensemble reconstructing the state with
    coefficients t^k; returns N(d-1)+1 terms of equal weight."""
    if t < 0:
        raise ValueError(f"geometric ratio t must be >= 0, got {t}")
    L = N * (d - 1) + 1
    omega = np.exp(2j * np.pi / L)
    amps = np.array([float(t) ** (i / 2) for i in range(d)])
    terms = []
    for a in range(L):
        phases = omega ** (a * np.arange(d))
        terms.append((1.0 / L, amps * phases))
    return SeparableEnsemble(N, d, tuple(terms))


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
    """Fourier ensembles of the measure's atoms plus the top state; with
    `normalize`, as the convex combination of ``SeparableEnsemble.normalized``.
    Each Fourier family reproduces its atom's moments exactly, so the
    ensemble is the state with coefficients measure.reproduced(n), and its
    reconstruction_error is the closed form against p; no dense matrix is
    built."""
    N, d = spec.N, spec.d
    terms: list[tuple[float, np.ndarray | str]] = []
    for t, w in measure.atoms:
        if t == 0.0:
            # every Fourier vector degenerates to |0>, so emit one term
            vec = np.zeros(d, dtype=np.complex128)
            vec[0] = 1.0
            terms.append((w, vec))
            continue
        for sub_w, phi in geometric_ensemble(N, d, t).terms:
            terms.append((w * sub_w, phi))
    if measure.top_mass > 0:
        terms.append((measure.top_mass, TOP))
    ensemble = SeparableEnsemble(N, d, tuple(terms))
    if normalize:
        ensemble = ensemble.normalized()
    err = reconstruction_error(N, d, measure.reproduced(N * (d - 1)), spec.p, normalize)
    return replace(ensemble, reconstruction_error=err)

