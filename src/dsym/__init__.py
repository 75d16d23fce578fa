"""Separability and PPT classification of diagonal restricted-Dicke states.

The names below decide and certify from the coefficient sequence alone.  The
dense d**N-dimensional builders, which only verify, are reached as
``dsym.states.*`` and ``dsym.oracle.*``.
"""

__version__ = "0.1.0"

from .decompose import (
    NotSeparableError,
    SeparableEnsemble,
    geometric_ensemble,
    separable_ensemble,
)
from .moment import (
    MeasureAtoms,
    RecoveryError,
    SeparabilityVerdict,
    is_generalized_moment_solution,
    is_separable,
    moment_hankels,
    recover_atomic_measure,
)
from .ppt import (
    PPTReport,
    is_m_ppt,
    is_psd,
)
from .states import (
    DenseCapExceeded,
    StateSpec,
)
from .witnesses import WitnessSpec

__all__ = [
    "StateSpec",
    "DenseCapExceeded",
    "PPTReport",
    "is_m_ppt",
    "is_psd",
    "MeasureAtoms",
    "RecoveryError",
    "SeparabilityVerdict",
    "moment_hankels",
    "is_generalized_moment_solution",
    "recover_atomic_measure",
    "is_separable",
    "WitnessSpec",
    "SeparableEnsemble",
    "NotSeparableError",
    "geometric_ensemble",
    "separable_ensemble",
]
