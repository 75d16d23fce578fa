"""Entanglement witnesses for digit-sum symmetric systems.

Two quadratic families built on the dual restricted Dicke projectors: the
"even" family with coefficient vector s (degree index k+l) and the "odd"
family with coefficient vector t (degree index k+l+1).  Their expectation
values against a diagonal state are exactly the Hankel quadratic forms
sum s_k conj(s_l) p_{k+l} and sum t_k conj(t_l) p_{k+l+1}, so a negative
Hankel eigenvector is a detecting witness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import composition_counts
from .moment import MomentCheck, is_generalized_moment_solution
from .ppt import DEFAULT_PSD_TOL, NOT_PSD, hankel
from .states import StateSpec, check_dense_cap, digit_sum_operator


def family_v_length(N: int, d: int) -> int:
    return N * (d - 1) // 2 + 1


def family_u_length(N: int, d: int) -> int:
    return (N * (d - 1) - 1) // 2 + 1


@dataclass(frozen=True)
class WitnessSpec:
    family: str  # "V" (even) | "U" (odd)
    coeffs: tuple[complex, ...]
    N: int
    d: int
    witness_value: float | None = None

    def __post_init__(self):
        if self.family not in ("V", "U"):
            raise ValueError(f"family must be 'V' or 'U', got {self.family!r}")
        expected = (
            family_v_length(self.N, self.d)
            if self.family == "V"
            else family_u_length(self.N, self.d)
        )
        if len(self.coeffs) != expected:
            raise ValueError(
                f"family {self.family} for N={self.N}, d={self.d} needs "
                f"{expected} coefficients, got {len(self.coeffs)}"
            )


def _dual_projector_sum(coeffs: np.ndarray, N: int, d: int, shift: int) -> np.ndarray:
    """sum_{k,l} c_k conj(c_l) |dual_{k+l+shift}><dual_{k+l+shift}|: one real
    weight per degree j = k + l + shift (the convolution of c with conj(c)),
    and |dual_j><dual_j| = |R_j><R_j| / count_j^2."""
    check_dense_cap(N, d)
    counts = composition_counts(N, d)
    weights = np.zeros(len(counts))
    weights[shift : shift + 2 * len(coeffs) - 1] = np.convolve(coeffs, np.conj(coeffs)).real
    return digit_sum_operator(N, d, weights / counts**2)


def witness_V(coeffs, N: int, d: int) -> np.ndarray:
    """Dense matrix of the even-family witness for coefficient vector s."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) != family_v_length(N, d):
        raise ValueError(
            f"expected {family_v_length(N, d)} coefficients, got {len(coeffs)}"
        )
    return _dual_projector_sum(coeffs, N, d, shift=0)


def witness_U(coeffs, N: int, d: int) -> np.ndarray:
    """Dense matrix of the odd-family witness for coefficient vector t."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) != family_u_length(N, d):
        raise ValueError(
            f"expected {family_u_length(N, d)} coefficients, got {len(coeffs)}"
        )
    return _dual_projector_sum(coeffs, N, d, shift=1)


# Degree shift of each family's Hankel form: p_{k+l} for V, p_{k+l+1} for U.
_SHIFT = {"V": 0, "U": 1}


def _hankel_form(coeffs, p, shift: int) -> float:
    """sum_{k,l} conj(c_k) c_l p_{k+l+shift}."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return float((c.conj() @ hankel(p, len(c), shift) @ c).real)


def witness_value_fast(w: WitnessSpec, spec: StateSpec) -> float:
    """Expectation value of the witness against the state, evaluated as the
    Hankel quadratic form on the coefficient sequence (no dense matrices)."""
    if (w.N, w.d) != (spec.N, spec.d):
        raise ValueError(
            f"witness is for (N={w.N}, d={w.d}) but state has "
            f"(N={spec.N}, d={spec.d})"
        )
    return _hankel_form(w.coeffs, spec.p, _SHIFT[w.family])


def _unit_sign_fixed(vec: np.ndarray) -> np.ndarray:
    v = vec / np.linalg.norm(vec)
    for x in v:
        if abs(x) > 1e-14:
            if x.real < 0 or (x.real == 0 and x.imag < 0):
                v = -v
            break
    return v


def witness_from_check(spec: StateSpec, check: MomentCheck) -> WitnessSpec | None:
    """Witness from the lowest eigenvector of the more negative of the
    decisively non-PSD moment Hankels in `check` (the even one on a tie), or
    None when neither is decisively non-PSD."""
    candidates = [
        (chk.lam_min, family, chk.vec)
        for family, chk in (("V", check.even), ("U", check.odd))
        if chk.status == NOT_PSD
    ]
    if not candidates:
        return None
    _, family, vec = min(candidates, key=lambda c: c[0])
    coeffs = tuple(_unit_sign_fixed(vec.astype(np.complex128)))
    return WitnessSpec(
        family=family,
        coeffs=coeffs,
        N=spec.N,
        d=spec.d,
        witness_value=_hankel_form(coeffs, spec.p, _SHIFT[family]),
    )


def find_detecting_witness(
    spec: StateSpec, tol: float = DEFAULT_PSD_TOL
) -> WitnessSpec | None:
    """Witness detecting the state's entanglement, or None when the
    coefficient sequence is moment-feasible (or only marginally infeasible).

    The coefficients are the unit eigenvector of the most negative moment
    Hankel eigenvalue (sign fixed so the first nonzero component is
    positive); the witness value is the Hankel quadratic form of those
    coefficients, which equals that eigenvalue up to rounding.
    """
    return witness_from_check(spec, is_generalized_moment_solution(spec.p, tol))
