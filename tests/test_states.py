"""Restricted Dicke vectors, symmetrizers, and dense state construction."""

import math

import numpy as np
import pytest

from dsym import oracle
from dsym.states import (
    DenseCapExceeded,
    StateSpec,
    build_state,
    composition_counts,
    digit_sum_core,
    digit_sum_operator,
    digit_sums,
)
from dsym.witnesses import WitnessSpec, family_u_length, family_v_length

from conftest import DENSE_VERIFY_MIX
from paper_objects import (
    d_symmetrizer,
    dual_restricted_dicke,
    permutation_operator,
    restricted_dicke_vector,
    sigma_z,
    symmetrizer,
    top_product_state,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(1, 2, (1.0, 1.0))
    with pytest.raises(ValueError):
        StateSpec(2, 1, (1.0,))
    with pytest.raises(ValueError):
        StateSpec(2, 2, (1.0, 1.0))  # wrong length
    with pytest.raises(ValueError):
        StateSpec(2, 2, (1.0, -0.1, 1.0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            StateSpec(2, 2, (1.0, bad, 1.0))


def test_restricted_dicke_examples():
    v = restricted_dicke_vector(2, 2, 1)
    assert v[1] == 1 and v[2] == 1 and v[0] == 0 and v[3] == 0

    assert np.vdot(restricted_dicke_vector(2, 3, 2), restricted_dicke_vector(2, 3, 2)).real == 3

    v0 = restricted_dicke_vector(3, 2, 0)
    assert v0[0] == 1 and np.count_nonzero(v0) == 1


def test_restricted_dicke_norm_is_count():
    for N, d in [(2, 3), (3, 3), (4, 2)]:
        for k in range(N * (d - 1) + 1):
            v = restricted_dicke_vector(N, d, k)
            assert np.vdot(v, v).real == composition_counts(N, d)[k]
            assert set(np.unique(v.real)) <= {0.0, 1.0}


def test_restricted_dicke_out_of_range():
    with pytest.raises(ValueError):
        restricted_dicke_vector(2, 2, 3)


def test_dual_basis_pairing():
    for N, d in [(2, 2), (2, 3), (3, 3)]:
        top = N * (d - 1)
        for k in range(top + 1):
            dual = dual_restricted_dicke(N, d, k)
            for l in range(top + 1):
                inner = np.vdot(dual, restricted_dicke_vector(N, d, l)).real
                assert inner == pytest.approx(1.0 if k == l else 0.0, abs=1e-14)


def test_dual_example_scaling():
    np.testing.assert_allclose(
        dual_restricted_dicke(2, 3, 2),
        restricted_dicke_vector(2, 3, 2) / 3.0,
    )


def test_symmetrizer_action_on_01():
    PS = symmetrizer(2, 2)
    e01 = np.zeros(4, dtype=complex)
    e01[0b01] = 1.0
    out = PS @ e01
    expected = np.zeros(4, dtype=complex)
    expected[1] = 0.5
    expected[2] = 0.5
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_symmetrizer_rank_is_symmetric_subspace_dim():
    # dim of the bosonic subspace is C(d+N-1, N)
    for N, d in [(2, 3), (3, 2), (3, 3)]:
        PS = symmetrizer(N, d)
        rank = int(round(np.trace(PS).real))
        assert rank == math.comb(d + N - 1, N)
    assert int(round(np.trace(symmetrizer(2, 3)).real)) == 6


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3)])
def test_projector_algebra(N, d):
    PS = symmetrizer(N, d)
    PD = d_symmetrizer(N, d)
    assert np.linalg.norm(PS @ PS - PS) < 1e-12
    assert np.linalg.norm(PD @ PD - PD) < 1e-12
    assert np.linalg.norm(PD @ PS - PD) < 1e-12
    assert np.linalg.norm(PS @ PD - PD) < 1e-12
    assert np.linalg.norm(PS - PS.conj().T) < 1e-14
    assert np.linalg.norm(PD - PD.conj().T) < 1e-14


def test_d_symmetrizer_rank():
    assert int(round(np.trace(d_symmetrizer(3, 3)).real)) == 7
    for N, d in [(2, 3), (4, 2)]:
        assert int(round(np.trace(d_symmetrizer(N, d)).real)) == N * (d - 1) + 1


@pytest.mark.parametrize("N", [2, 3])
def test_qubit_symmetrizers_coincide(N):
    np.testing.assert_allclose(d_symmetrizer(N, 2), symmetrizer(N, 2), atol=1e-14)


def test_dicke_vectors_span_projector_range():
    for N, d in [(2, 3), (3, 2), (3, 3)]:
        PD = d_symmetrizer(N, d)
        acc = np.zeros_like(PD)
        for k in range(N * (d - 1) + 1):
            rk = restricted_dicke_vector(N, d, k)
            assert np.linalg.norm(PD @ rk - rk) < 1e-12
            acc += np.outer(dual_restricted_dicke(N, d, k), rk.conj())
        np.testing.assert_allclose(acc, PD, atol=1e-12)


def test_build_state_examples():
    rho = build_state(StateSpec(2, 2, (1.0, 0.0, 0.0)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected)

    rho = build_state(StateSpec(2, 2, (1.0, 1.0, 1.0)))
    assert rho[0b01, 0b10] == 1.0


def test_build_state_trace():
    rng = np.random.default_rng(3)
    for N, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        p = rng.uniform(0, 1, N * (d - 1) + 1)
        rho = build_state(StateSpec(N, d, tuple(p)))
        expected = p @ composition_counts(N, d)
        assert np.trace(rho).real == pytest.approx(expected, rel=1e-13)


def test_build_state_is_psd_and_d_symmetric():
    rng = np.random.default_rng(4)
    for N, d in [(3, 2), (2, 3), (3, 3)]:
        rho = build_state(StateSpec(N, d, tuple(rng.uniform(0, 1, N * (d - 1) + 1))))
        ev = np.linalg.eigvalsh(rho)
        assert ev[0] >= -1e-10 * max(ev[-1], 1.0)
        PD = d_symmetrizer(N, d)
        assert np.linalg.norm(PD @ rho @ PD - rho) < 1e-12


def test_build_state_normalize():
    rho = build_state(StateSpec(2, 2, (1.0, 1.0, 1.0)), normalize=True)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_qubit_dicke_states_match_symmetrized_products():
    # |R_{N,2;k}| equals the symmetrizer applied to |0..0 1..1> scaled by C(N,k)
    for N in [2, 3, 4]:
        PS = symmetrizer(N, 2)
        for k in range(N + 1):
            product = np.zeros(2**N, dtype=complex)
            product[2**k - 1] = 1.0  # |0..0 1..1>
            np.testing.assert_allclose(
                math.comb(N, k) * (PS @ product),
                restricted_dicke_vector(N, 2, k),
                atol=1e-12,
            )


def test_sigma_z_examples():
    np.testing.assert_allclose(sigma_z(2, 2, 0.0), build_state(StateSpec(2, 2, (1, 0, 0))))
    np.testing.assert_allclose(sigma_z(2, 2, 1.0), np.full((4, 4), 0.25))


def test_sigma_z_properties():
    rng = np.random.default_rng(5)
    for N, d in [(2, 2), (3, 3), (2, 3)]:
        for _ in range(5):
            z = complex(rng.normal(), rng.normal())
            sig = sigma_z(N, d, z)
            assert np.trace(sig).real == pytest.approx(1.0, abs=1e-12)
            ev = np.linalg.eigvalsh(sig)
            assert np.sum(ev > 1e-10) == 1  # rank 1
            PD = d_symmetrizer(N, d)
            assert np.linalg.norm(PD @ sig @ PD - sig) < 1e-10


def test_sigma_z_d_symmetric_specific():
    sig = sigma_z(3, 3, 0.7 + 0.2j)
    PD = d_symmetrizer(3, 3)
    assert np.linalg.norm(PD @ sig @ PD - sig) < 1e-12


def test_top_product_state():
    top = top_product_state(2, 3)
    assert top[8, 8] == 1.0 and np.count_nonzero(top) == 1


def test_dense_cap(monkeypatch):
    monkeypatch.setenv("DSYM_DENSE_CAP", "8")
    with pytest.raises(DenseCapExceeded):
        build_state(StateSpec(2, 3, (1, 1, 1, 1, 1)))
    monkeypatch.setenv("DSYM_DENSE_CAP", "9")
    build_state(StateSpec(2, 3, (1, 1, 1, 1, 1)))


def test_digit_sum_core_checks_the_dense_cap(monkeypatch):
    # the core and its map stand for the d^N x d^N matrix, so its cap holds
    monkeypatch.setenv("DSYM_DENSE_CAP", "8")
    with pytest.raises(DenseCapExceeded):
        digit_sum_core(2, 3, (1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="one value per digit sum"):
        digit_sum_core(2, 2, (1, 1))


@pytest.mark.parametrize("value", ["abc", "", "4.5", "0", "-5"])
def test_dense_cap_rejects_a_value_that_is_not_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("DSYM_DENSE_CAP", value)
    with pytest.raises(ValueError, match="DSYM_DENSE_CAP") as raised:
        build_state(StateSpec(2, 2, (1, 1, 1)))
    assert not isinstance(raised.value, DenseCapExceeded)


def test_operators_diagonal_in_dicke_basis_are_real():
    # restricted Dicke vectors have 0/1 entries, so these operators are real
    # symmetric and their eigensolves run in real arithmetic
    from dsym.oracle import partial_transpose, witness_matrix

    N, d = 3, 3
    spec = StateSpec(N, d, tuple(np.linspace(0.2, 1.0, N * (d - 1) + 1)))
    complex_coeffs = [1.0 + 0.5j, -0.3j, 0.2, 0.7 - 0.1j]
    real = {
        "digit_sum_operator": digit_sum_operator(N, d, spec.p),
        "build_state": build_state(spec),
        "build_state_normalized": build_state(spec, normalize=True),
        "d_symmetrizer": d_symmetrizer(N, d),
        "top_product_state": top_product_state(N, d),
        "witness_V": witness_matrix(WitnessSpec("V", tuple(complex_coeffs), N, d)),
        "witness_U": witness_matrix(WitnessSpec("U", tuple(complex_coeffs[:3]), N, d)),
        "restricted_dicke_vector": restricted_dicke_vector(N, d, 2),
        "dual_restricted_dicke": dual_restricted_dicke(N, d, 2),
        "symmetrizer": symmetrizer(N, d),
        "permutation_operator": permutation_operator((1, 2, 0), d),
        # the offset blocks are its entries on `paper_objects.offset_supports`
        "partial_transpose": partial_transpose(build_state(spec), (1, 0, 0), d),
    }
    for name, op in real.items():
        assert op.dtype == np.float64, name


def test_product_states_stay_complex():
    from dsym.decompose import geometric_ensemble
    from dsym.oracle import ensemble_matrix
    from dsym.states import product_powers

    assert product_powers(2, 3, [[1.0, 0.5, 0.25]]).dtype == np.complex128
    assert sigma_z(2, 3, 0.4).dtype == np.complex128
    assert ensemble_matrix(geometric_ensemble(2, 3, 0.4)).dtype == np.complex128


def _broadcast_operator(N, d, values):
    """The full-matrix formula: a d**N x d**N compare times a broadcast column."""
    sums = digit_sums(N, d)
    return np.multiply(sums[:, None] == sums[None, :], np.asarray(values)[sums][:, None])


def _assert_equal_in_value(op, N, d, values):
    ref = _broadcast_operator(N, d, values)
    assert op.dtype == np.float64 and op.flags.writeable
    np.testing.assert_array_equal(op, ref)  # -0.0 == 0.0 here
    # off the class squares every entry is +0.0, whatever the class's sign
    sums = digit_sums(N, d)
    assert not np.signbit(op[sums[:, None] != sums[None, :]]).any()


@pytest.mark.parametrize("d,N", DENSE_VERIFY_MIX)
def test_digit_sum_operator_matches_the_broadcast_formula(monkeypatch, d, N):
    rng = np.random.default_rng(N * 10 + d)
    n = N * (d - 1)
    values = rng.uniform(0.0, 1.0, n + 1)
    with_zeros = values.copy()
    with_zeros[rng.choice(n + 1, size=(n + 1) // 3, replace=False)] = 0.0
    for v in (values, with_zeros, -values):
        _assert_equal_in_value(digit_sum_operator(N, d, v), N, d, v)
    _assert_equal_in_value(d_symmetrizer(N, d), N, d, 1 / composition_counts(N, d))
    # witness weights: the convolution of complex coefficients with their
    # conjugates has negative entries, whose rows held -0.0 off the class
    seen = []

    def spy(N, d, values):
        seen.append(np.array(values))
        return digit_sum_operator(N, d, values)

    monkeypatch.setattr(oracle, "digit_sum_operator", spy)
    for family, length in [("V", family_v_length(N, d)), ("U", family_u_length(N, d))]:
        # alternating signs make the degree-1 weight negative
        coeffs = np.resize([1.0, -1.0], length) + 0.1j * rng.normal(size=length)
        W = oracle.witness_matrix(WitnessSpec(family, tuple(coeffs), N, d))
        assert (seen[-1] < 0).any()
        _assert_equal_in_value(W, N, d, seen[-1])


@pytest.mark.parametrize("d,N", DENSE_VERIFY_MIX)
def test_digit_sum_rows_are_the_operators_distinct_rows(d, N):
    # the core is diag(values), read through the digit sums on both sides:
    # its row k, so read, is every row of digit sum k of the operator, bit
    # for bit (+0.0 off the class, also for a negative value)
    rng = np.random.default_rng(N * 10 + d + 1)
    values = rng.uniform(-1.0, 1.0, N * (d - 1) + 1)
    values[rng.choice(len(values), size=len(values) // 3, replace=False)] = 0.0
    values[0] = -0.0
    core, sums = digit_sum_core(N, d, values)
    assert core.shape == (N * (d - 1) + 1,) * 2 and core.dtype == np.float64
    assert core.flags.c_contiguous
    np.testing.assert_array_equal(core, np.diag(values))
    np.testing.assert_array_equal(np.signbit(core), np.signbit(np.diag(values)))
    np.testing.assert_array_equal(sums, digit_sums(N, d))
    rows = core[:, sums]
    op = digit_sum_operator(N, d, values)
    np.testing.assert_array_equal(rows[sums], op)
    np.testing.assert_array_equal(np.signbit(rows[sums]), np.signbit(op))
    _assert_equal_in_value(rows[sums], N, d, values)
