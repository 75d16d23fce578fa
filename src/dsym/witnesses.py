"""Entanglement witnesses for digit-sum symmetric systems.

Two quadratic families built on the dual restricted Dicke projectors: the
"even" family with coefficient vector s (degree index k+l) and the "odd"
family with coefficient vector t (degree index k+l+1).  Their expectation
values against a diagonal state are exactly the Hankel quadratic forms
sum s_k conj(s_l) p_{k+l} and sum t_k conj(t_l) p_{k+l+1}, so a negative
Hankel eigenvector is a detecting witness certificate.  Everything here
works on the coefficients alone; the dense witness matrix, for verification,
is ``oracle.witness_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ppt import DEFAULT_PSD_TOL, NOT_PSD, hankel, psd_checks
from .states import StateSpec

if TYPE_CHECKING:  # moment imports this module, so the check type is annotation-only
    from .moment import MomentCheck


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


def _hankel_form(coeffs, p, shift: int) -> float:
    """sum_{k,l} conj(c_k) c_l p_{k+l+shift}."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return float((c.conj() @ hankel(p, len(c), shift) @ c).real)


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
    None when neither is decisively non-PSD.  `check` decided from
    eigenvalues alone, so that Hankel alone is solved again, by `psd_checks`
    with vectors; its status there is not read (the check's stands)."""
    candidates = [
        (chk.lam_min, family)
        for family, chk in (("V", check.even), ("U", check.odd))
        if chk.status == NOT_PSD
    ]
    if not candidates:
        return None
    _, family = min(candidates, key=lambda c: c[0])
    length = (family_v_length if family == "V" else family_u_length)(spec.N, spec.d)
    H = hankel(spec.p, length, FAMILY_SHIFT[family])
    vec = psd_checks(H[None], DEFAULT_PSD_TOL, vectors=True).vec[0]
    coeffs = tuple(_unit_sign_fixed(vec.astype(np.complex128)))
    return WitnessSpec(
        family=family,
        coeffs=coeffs,
        N=spec.N,
        d=spec.d,
        witness_value=_hankel_form(coeffs, spec.p, FAMILY_SHIFT[family]),
    )
