"""Separability and PPT classification of diagonal restricted-Dicke states."""

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
from .oracle import (
    check_d_symmetry,
    check_mask_equivalence,
    min_eigenvalue,
    partial_transpose,
    permutation_operator,
)
from .ppt import (
    HankelBlock,
    PPTReport,
    block_decomposition,
    hankel_block,
    is_m_ppt,
    is_psd,
)
from .states import (
    DenseCapExceeded,
    StateSpec,
    build_state,
    d_symmetrizer,
    dual_restricted_dicke,
    restricted_dicke_vector,
    sigma_z,
    symmetrizer,
)
from .witnesses import (
    WitnessSpec,
    find_detecting_witness,
    witness_U,
    witness_V,
    witness_value_fast,
)

__all__ = [
    "count_compositions",
    "enumerate_tuples",
    "tuple_to_index",
    "StateSpec",
    "DenseCapExceeded",
    "restricted_dicke_vector",
    "dual_restricted_dicke",
    "symmetrizer",
    "d_symmetrizer",
    "build_state",
    "sigma_z",
    "HankelBlock",
    "PPTReport",
    "hankel_block",
    "is_m_ppt",
    "is_psd",
    "block_decomposition",
    "MeasureAtoms",
    "RecoveryError",
    "SeparabilityVerdict",
    "moment_hankels",
    "is_generalized_moment_solution",
    "recover_atomic_measure",
    "is_separable",
    "check_main_theorem",
    "WitnessSpec",
    "witness_V",
    "witness_U",
    "witness_value_fast",
    "find_detecting_witness",
    "SeparableEnsemble",
    "NotSeparableError",
    "geometric_ensemble",
    "separable_ensemble",
    "partial_transpose",
    "permutation_operator",
    "check_mask_equivalence",
    "check_d_symmetry",
    "min_eigenvalue",
]
