"""Separability and PPT classification of diagonal restricted-Dicke states.

The names below decide and certify from the coefficient sequence alone.  The
dense d**N-dimensional builders, which only verify, are reached as
``dsym.states.*`` and ``dsym.oracle.*``.
"""

__version__ = "0.1.0"

from .combinatorics import (
    count_compositions,
    enumerate_tuples,
    tuple_to_index,
)
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
    check_main_theorem,
    is_generalized_moment_solution,
    is_separable,
    moment_hankels,
    recover_atomic_measure,
)
from .ppt import (
    HankelBlock,
    PPTReport,
    hankel_block,
    is_m_ppt,
    is_psd,
)
from .states import (
    DenseCapExceeded,
    StateSpec,
)
from .witnesses import (
    WitnessSpec,
    find_detecting_witness,
    witness_value_fast,
)

__all__ = [
    "count_compositions",
    "enumerate_tuples",
    "tuple_to_index",
    "StateSpec",
    "DenseCapExceeded",
    "HankelBlock",
    "PPTReport",
    "hankel_block",
    "is_m_ppt",
    "is_psd",
    "MeasureAtoms",
    "RecoveryError",
    "SeparabilityVerdict",
    "moment_hankels",
    "is_generalized_moment_solution",
    "recover_atomic_measure",
    "is_separable",
    "check_main_theorem",
    "WitnessSpec",
    "witness_value_fast",
    "find_detecting_witness",
    "SeparableEnsemble",
    "NotSeparableError",
    "geometric_ensemble",
    "separable_ensemble",
]
