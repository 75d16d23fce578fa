"""Dense partial transposes, permutation operators, and symmetry checks."""

import itertools

import numpy as np
import pytest

from dsym.combinatorics import tuple_to_index
from dsym.oracle import (
    check_d_symmetry,
    check_mask_equivalence,
    dense_ppt_check,
    min_eigenvalue,
    partial_transpose,
    permutation_operator,
)
from dsym.ppt import block_decomposition, is_m_ppt
from dsym.states import StateSpec, build_state, sigma_z

from conftest import random_spec


def basis_matrix_unit(i, j, dim):
    E = np.zeros((dim, dim), dtype=complex)
    E[i, j] = 1.0
    return E


def test_partial_transpose_moves_digit_pairs():
    # |01><10| with the first party transposed becomes |11><00|
    rho = basis_matrix_unit(tuple_to_index((0, 1), 2), tuple_to_index((1, 0), 2), 4)
    pt = partial_transpose(rho, (1, 0), 2)
    expected = basis_matrix_unit(tuple_to_index((1, 1), 2), tuple_to_index((0, 0), 2), 4)
    np.testing.assert_array_equal(pt, expected)


def test_partial_transpose_identity_mask():
    rng = np.random.default_rng(51)
    rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    np.testing.assert_array_equal(partial_transpose(rho, (0, 0, 0), 2), rho)


def test_partial_transpose_involutive_and_trace_preserving():
    rng = np.random.default_rng(52)
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        rho = rng.normal(size=(d**N, d**N)) + 1j * rng.normal(size=(d**N, d**N))
        for mask in itertools.product((0, 1), repeat=N):
            pt = partial_transpose(rho, mask, d)
            np.testing.assert_array_equal(partial_transpose(pt, mask, d), rho)
            assert np.trace(pt) == pytest.approx(np.trace(rho))


def test_partial_transpose_full_mask_is_transpose():
    rng = np.random.default_rng(53)
    rho = rng.normal(size=(9, 9))
    np.testing.assert_array_equal(partial_transpose(rho, (1, 1), 3), rho.T)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6), (1, 0), 2)
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), (1, 0, 0), 2)


def test_counterexample_gamma1_is_psd(ppt_entangled_spec):
    rho = build_state(ppt_entangled_spec)
    status, lam_min, lam_max = dense_ppt_check(rho, (1, 0, 0), 3)
    assert status == "psd"
    assert lam_min >= -1e-10 * max(1.0, lam_max)


def test_permutation_operator_examples():
    np.testing.assert_array_equal(permutation_operator((0, 1), 2), np.eye(4))
    # swapping the two parties sends |01> to |10>
    F = permutation_operator((1, 0), 2)
    e01 = np.zeros(4)
    e01[tuple_to_index((0, 1), 2)] = 1.0
    out = F @ e01
    assert out[tuple_to_index((1, 0), 2)] == 1.0 and np.count_nonzero(out) == 1


def test_permutation_operator_is_unitary_representation():
    d = 2
    for sigma in itertools.permutations(range(3)):
        F = permutation_operator(sigma, d)
        assert np.linalg.norm(F @ F.conj().T - np.eye(8)) < 1e-14
    # composition: F_sigma F_tau = F_{sigma o tau}
    sigma, tau = (1, 2, 0), (2, 0, 1)
    composed = tuple(sigma[tau[r]] for r in range(3))
    lhs = permutation_operator(sigma, d) @ permutation_operator(tau, d)
    np.testing.assert_array_equal(lhs, permutation_operator(composed, d))


def test_permutation_operator_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1), 2)


def test_diagonal_states_are_permutation_invariant():
    rng = np.random.default_rng(54)
    rho = build_state(random_spec(rng, 3, 2))
    for sigma in itertools.permutations(range(3)):
        F = permutation_operator(sigma, 2)
        assert np.linalg.norm(F @ rho @ F.conj().T - rho) < 1e-12


def test_mask_equivalence_examples():
    rng = np.random.default_rng(55)
    for _ in range(50):
        spec = random_spec(rng, 3, 2)
        rec = check_mask_equivalence(spec, (1, 0, 0), (0, 0, 1))
        assert rec.agree
        assert rec.difference < 1e-12

    spec = random_spec(rng, 4, 2)
    rec = check_mask_equivalence(spec, (1, 1, 0, 0), (0, 1, 0, 1))
    assert rec.agree and rec.difference < 1e-12

    rec = check_mask_equivalence(spec, (1, 0, 0, 0), (1, 0, 0, 0))
    assert rec.agree and rec.difference == 0.0


def test_mask_equivalence_weight_mismatch():
    spec = StateSpec(3, 2, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        check_mask_equivalence(spec, (1, 0, 0), (1, 1, 0))


def test_check_d_symmetry():
    rng = np.random.default_rng(56)
    spec = random_spec(rng, 2, 2)
    assert check_d_symmetry(build_state(spec), 2, 2)
    assert check_d_symmetry(sigma_z(2, 2, 0.3 + 0.1j), 2, 2)
    # a bare |01><01| is permutation-asymmetric, hence not digit-sum symmetric
    e01 = np.zeros((4, 4), dtype=complex)
    e01[1, 1] = 1.0
    assert not check_d_symmetry(e01, 2, 2)
    # real and complex inputs are checked in their own dtype
    assert not check_d_symmetry(e01.real, 2, 2)
    assert check_d_symmetry(build_state(spec).astype(complex), 2, 2)


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
    flip = np.zeros((4, 4), dtype=complex)
    flip[1, 2] = 1.0
    flip[2, 1] = 1.0
    assert min_eigenvalue(flip) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenvalue_sign_matches_fast_path():
    rng = np.random.default_rng(57)
    for N, d in [(2, 2), (2, 3), (4, 2)]:
        for _ in range(50):
            spec = random_spec(rng, N, d)
            m = N // 2
            fast = is_m_ppt(spec, m)
            if fast.verdict == "marginal":
                continue
            mask = (1,) * m + (0,) * (N - m)
            pt = partial_transpose(build_state(spec), mask, d)
            ev = np.linalg.eigvalsh(pt)
            band = 1e-10 * max(1.0, float(ev[-1]))
            assert (fast.verdict == "ppt") == (float(ev[0]) >= -band)


def test_block_sum_matches_oracle_transpose():
    rng = np.random.default_rng(58)
    for N, d in [(3, 2), (4, 2), (2, 3), (3, 3)]:
        for _ in range(5):
            spec = random_spec(rng, N, d)
            for m in range(1, N):
                blocks = block_decomposition(spec, m)
                mask = (1,) * m + (0,) * (N - m)
                pt = partial_transpose(build_state(spec), mask, d)
                assert np.linalg.norm(sum(blocks) - pt) < 1e-12


def test_equal_weight_masks_agree_densely():
    rng = np.random.default_rng(59)
    for _ in range(10):
        spec = random_spec(rng, 4, 2)
        rho = build_state(spec)
        for weight in (1, 2):
            lam = None
            for mask in itertools.permutations((1,) * weight + (0,) * (4 - weight)):
                _, lam_min, _ = dense_ppt_check(rho, mask, 2)
                if lam is None:
                    lam = lam_min
                else:
                    assert abs(lam - lam_min) < 1e-12


def test_separable_ensembles_are_ppt_under_every_mask():
    # closing the loop: a decomposable state stays PSD under all masks
    from dsym.decompose import separable_ensemble

    spec = StateSpec(3, 2, tuple(0.6**k for k in range(4)))
    ens = separable_ensemble(spec)
    rho = ens.to_dense()
    for mask in itertools.product((0, 1), repeat=3):
        pt = partial_transpose(rho, mask, 2)
        ev = np.linalg.eigvalsh(pt)
        assert ev[0] >= -1e-10 * max(1.0, ev[-1])


def test_dense_ppt_check_eigensolves_real_states_in_real_arithmetic(
    monkeypatch, ppt_entangled_spec
):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rho = build_state(ppt_entangled_spec)
    dense_ppt_check(rho, (1, 0, 0), 3)
    dense_ppt_check(rho.astype(complex), (1, 0, 0), 3)
    assert seen == [np.dtype(np.float64), np.dtype(np.complex128)]


def _real_and_complex_agree(spec, mask):
    rho = build_state(spec)
    real = dense_ppt_check(rho, mask, spec.d)
    cplx = dense_ppt_check(rho.astype(complex), mask, spec.d)
    assert real[0] == cplx[0], (spec, mask)
    scale = max(1.0, abs(cplx[2]))
    assert abs(real[1] - cplx[1]) <= 1e-12 * scale, (spec, mask)
    assert abs(real[2] - cplx[2]) <= 1e-12 * scale, (spec, mask)


def test_dense_ppt_check_real_matches_complex_on_counterexample(ppt_entangled_spec):
    for mask in [(1, 0, 0), (0, 1, 1), (1, 1, 1)]:
        _real_and_complex_agree(ppt_entangled_spec, mask)


def test_dense_ppt_check_real_matches_complex_on_random_specs():
    rng = np.random.default_rng(77)
    # every d**N up to 512 among d = 2..4
    dims = [(2, 2), (3, 2), (5, 2), (7, 2), (9, 2), (2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (4, 4)]
    for N, d in dims:
        assert d**N <= 512
        spec = random_spec(rng, N, d)
        mask = tuple(int(b) for b in rng.integers(0, 2, N))
        _real_and_complex_agree(spec, mask)
