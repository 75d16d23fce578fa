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

from dataclasses import dataclass

import numpy as np

from .moment import DEFAULT_RESIDUAL_TOL, MeasureAtoms, SeparabilityVerdict, is_separable
from .states import StateSpec, check_dense_cap, dense_cap, product_powers

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
        """Convex combination of unit-trace product states (weights sum to 1)."""
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
            self.reconstruction_error,
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


def ensemble_from_verdict(spec: StateSpec, verdict: SeparabilityVerdict) -> SeparableEnsemble:
    """Ensemble certifying an already computed separability verdict."""
    if verdict.verdict != "separable":
        raise NotSeparableError(
            f"state is {verdict.verdict}; no separable decomposition exists"
        )
    if verdict.recovery_error is not None:
        raise verdict.recovery_error
    return ensemble_from_measure(spec, verdict.atoms)


def ensemble_from_measure(spec: StateSpec, measure: MeasureAtoms) -> SeparableEnsemble:
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
    err = None
    if d**N <= dense_cap():
        from .states import build_state

        ensemble = SeparableEnsemble(N, d, tuple(terms))
        err = float(np.linalg.norm(ensemble.to_dense() - build_state(spec)))
    return SeparableEnsemble(N, d, tuple(terms), err)

