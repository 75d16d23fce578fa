"""Entanglement witnesses for digit-sum symmetric systems.

Two quadratic families built on the dual restricted Dicke projectors: the
"even" family with coefficient vector s (degree index k+l) and the "odd"
family with coefficient vector t (degree index k+l+1).  Their expectation
values against a diagonal state are exactly the Hankel quadratic forms
sum s_k conj(s_l) p_{k+l} and sum t_k conj(t_l) p_{k+l+1}, so a negative
Hankel eigenvector is a detecting witness certificate.  `moment` builds the
moment Hankels and picks the failing one; everything here works on that
matrix and the coefficients alone.  The dense witness matrix, for
verification, is ``oracle.witness_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ppt import DEFAULT_PSD_TOL, psd_checks
from .states import StateSpec


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


# Degree shift of each family's Hankel form: p_{k+l} for V, p_{k+l+1} for U.
FAMILY_SHIFT = {"V": 0, "U": 1}


def _unit_sign_fixed(vec: np.ndarray) -> np.ndarray:
    v = vec / np.linalg.norm(vec)
    for x in v:
        if abs(x) > 1e-14:
            if x.real < 0 or (x.real == 0 and x.imag < 0):
                v = -v
            break
    return v


def witness_from_hankel(spec: StateSpec, family: str, H: np.ndarray) -> WitnessSpec:
    """Witness of `family` ("V" or "U") from the lowest eigenvector of H, the
    family's moment Hankel of spec.p as `moment.moment_hankels` gives it.
    The feasibility check decided H from eigenvalues alone, so H is solved
    again, by `psd_checks` with vectors; its status there is not read."""
    vec = psd_checks(H[None], DEFAULT_PSD_TOL, vectors=True).vec[0]
    c = _unit_sign_fixed(vec.astype(np.complex128))
    # the Hankel form sum_{k,l} conj(c_k) c_l H[k, l], the witness's expectation value
    value = float((c.conj() @ H @ c).real)
    return WitnessSpec(family, tuple(c), spec.N, spec.d, value)
