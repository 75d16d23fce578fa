"""Separable-ensemble construction and dense reconstruction."""

import functools

import numpy as np
import pytest

import dsym.decompose
import dsym.moment
import dsym.oracle
import dsym.states
from dsym.decompose import (
    TOP,
    NotSeparableError,
    SeparableEnsemble,
    ensemble_from_measure,
    ensemble_from_verdict,
    geometric_ensemble,
    reconstruction_error,
    separable_ensemble,
)
from dsym.moment import MeasureAtoms, RecoveryError, is_separable
from dsym.oracle import ensemble_matrix
from dsym.states import StateSpec, build_state

from conftest import far_atom_p, fourier_terms, geometric_p
from paper_objects import permutation_operator


def test_geometric_ensemble_t_zero():
    ens = geometric_ensemble(3, 2, 0.0)
    assert len(ens.terms) == 4
    for weight, phi in ens.terms:
        assert weight == pytest.approx(1 / 4)
        np.testing.assert_allclose(phi, [1.0, 0.0])
    rho0 = build_state(StateSpec(3, 2, (1.0, 0.0, 0.0, 0.0)))
    np.testing.assert_allclose(ensemble_matrix(ens), rho0, atol=1e-14)


def test_geometric_ensemble_negative_t_rejected():
    with pytest.raises(ValueError):
        geometric_ensemble(2, 2, -0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_geometric_ensemble_non_finite_t_rejected(t):
    with pytest.raises(ValueError, match="geometric ratio t must be finite and >= 0"):
        geometric_ensemble(2, 2, t)


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3), (3, 4), (5, 2)])
@pytest.mark.parametrize("t", [0.0, 0.4, 1.7])
def test_geometric_ensemble_is_bit_identical_to_per_vector_terms(N, d, t):
    terms = geometric_ensemble(N, d, t).terms
    reference = fourier_terms(N, d, t)
    assert len(terms) == len(reference)
    for (weight, phi), (ref_weight, ref_phi) in zip(terms, reference):
        assert weight == ref_weight
        assert phi.dtype == ref_phi.dtype and phi.tobytes() == ref_phi.tobytes()


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5])
def test_geometric_ensemble_reconstructs(N, d, t):
    ens = geometric_ensemble(N, d, t)
    assert len(ens.terms) == N * (d - 1) + 1
    rho = build_state(StateSpec(N, d, geometric_p(N, d, t)))
    assert np.linalg.norm(ensemble_matrix(ens) - rho) < 1e-10


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3), (3, 4)])
def test_to_dense_matches_kron_products(N, d):
    # random complex, non-geometric vectors: entries depend on digit multisets,
    # not only on digit sums
    rng = np.random.default_rng(7)
    phis = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    terms = [(float(w), phi) for w, phi in zip(rng.uniform(0.1, 1.0, 3), phis)]
    terms.append((0.4, TOP))
    expected = 0
    for weight, phi in terms:
        vec = np.eye(d)[d - 1] if isinstance(phi, str) else phi
        v = functools.reduce(np.kron, [vec] * N)
        expected = expected + weight * np.outer(v, v.conj())
    dense = ensemble_matrix(SeparableEnsemble(N, d, tuple(terms)))
    np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)


def test_ensemble_terms_permutation_symmetric():
    ens = geometric_ensemble(3, 2, 0.7)
    dense = ensemble_matrix(ens)
    for sigma in [(1, 0, 2), (2, 0, 1), (2, 1, 0)]:
        F = permutation_operator(sigma, 2)
        assert np.linalg.norm(F @ dense @ F.conj().T - dense) < 1e-12


def test_separable_ensemble_two_point_example():
    ens = separable_ensemble(StateSpec(2, 2, (1.0, 0.0, 1.0)))
    assert len(ens.terms) == 2
    weights = sorted(w for w, _ in ens.terms)
    assert weights == [pytest.approx(1.0), pytest.approx(1.0)]
    kinds = {phi if isinstance(phi, str) else "vector" for _, phi in ens.terms}
    assert kinds == {"top", "vector"}
    assert ens.reconstruction_error < 1e-12


def test_separable_ensemble_matches_geometric_for_single_atom():
    N, d, t = 3, 2, 0.6
    spec = StateSpec(N, d, geometric_p(N, d, t, w=2.0))
    ens = separable_ensemble(spec)
    geo = geometric_ensemble(N, d, t)
    assert len(ens.terms) == len(geo.terms)
    for (w_a, phi_a), (w_b, phi_b) in zip(ens.terms, geo.terms):
        assert w_a == pytest.approx(2.0 * w_b)
        np.testing.assert_allclose(phi_a, phi_b)
    assert ens.reconstruction_error < 1e-10


def test_separable_ensemble_rejects_entangled(ppt_entangled_spec):
    with pytest.raises(NotSeparableError):
        separable_ensemble(ppt_entangled_spec)


def test_separable_ensemble_raises_the_verdicts_recovery_error(monkeypatch):
    error = RecoveryError("no atomic measure met the residual bound")

    def fail(p, tol):
        raise error

    monkeypatch.setattr(dsym.moment, "recover_atomic_measure", fail)
    spec = StateSpec(3, 3, geometric_p(3, 3, 0.4))
    verdict = is_separable(spec)
    assert verdict.verdict == "separable"
    assert verdict.atoms is None and verdict.recovery_error is error
    with pytest.raises(RecoveryError) as raised:
        separable_ensemble(spec)
    assert raised.value is error


def test_reconstruction_on_random_feasible_sequences():
    rng = np.random.default_rng(41)
    for _ in range(20):
        N = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        nodes = rng.uniform(0.1, 2.0, r)
        weights = rng.uniform(0.1, 1.0, r)
        p = tuple(
            float(np.sum(weights * nodes**k)) for k in range(N * (d - 1) + 1)
        )
        ens = separable_ensemble(StateSpec(N, d, p))
        assert ens.reconstruction_error < 1e-8


def test_normalized_ensemble_is_convex_combination():
    ens = separable_ensemble(StateSpec(2, 2, (1.0, 0.0, 1.0))).normalized()
    total = sum(w for w, _ in ens.terms)
    assert total == pytest.approx(1.0)
    for _, phi in ens.terms:
        if not isinstance(phi, str):
            assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_normalized_preserves_state_up_to_trace():
    spec = StateSpec(2, 3, geometric_p(2, 3, 0.8))
    ens = separable_ensemble(spec)
    rho = build_state(spec)
    normalized = ens.normalized()
    np.testing.assert_allclose(
        ensemble_matrix(normalized),
        rho / np.trace(rho).real,
        atol=1e-12,
    )


def test_normalized_weights_of_a_far_atom_at_large_n():
    # weight * norm**(2N) = w * 6**400 overflows, although every normalized
    # weight is 1/401
    ens = separable_ensemble(StateSpec(400, 2, far_atom_p(400))).normalized()
    weights = [w for w, _ in ens.terms]
    assert len(weights) == 401
    np.testing.assert_allclose(weights, 1 / 401, rtol=1e-10)
    for _, phi in ens.terms:
        assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_fourier_phases_have_unit_modulus_and_equal_normalized_weights():
    # each phase is one rounding of exp(i theta), of unit modulus to an ulp;
    # complex powers of omega drift to 1 - 1.2e-14 at L = 401, and the
    # normalization raises each term's norm to 2N = 800
    eps = np.finfo(float).eps
    for N, d in [(400, 2), (50, 4), (7, 3)]:
        phases = np.array([phi for _, phi in geometric_ensemble(N, d, 1.0).terms])
        assert np.abs(np.abs(phases) - 1).max() <= eps
    # the far atom's 401 terms are equal up to 2N times a few ulps of their
    # norms (their spread was 8e-12 with complex powers)
    ens = separable_ensemble(StateSpec(400, 2, far_atom_p(400))).normalized()
    weights = np.array([w for w, _ in ens.terms])
    assert np.ptp(weights) <= 2 * 400 * 4 * eps * weights.mean()


def test_normalized_rejects_zero_and_negative_weights():
    vec = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="zero total weight"):
        SeparableEnsemble(2, 2, ((0.0, vec), (1.0, np.zeros(2)))).normalized()
    with pytest.raises(ValueError, match="weight -1"):
        SeparableEnsemble(2, 2, ((2.0, vec), (-1.0, "top"))).normalized()


@pytest.mark.parametrize(
    "N,d,atoms,top",
    [
        (400, 2, None, 0.0),  # far_atom_p(400): one atom near t = 5
        (6, 3, ((0.0, 0.7), (0.4, 1.3), (2.5, 0.2)), 0.6),
        (5, 4, ((0.9, 2.0), (1e-3, 0.5), (7.0, 1e-4)), 0.0),
    ],
)
def test_normalized_measure_ensemble_has_one_weight_per_atom(N, d, atoms, top):
    # each Fourier vector of an atom t has squared norm sum_{i<d} t^i, so
    # the atom's terms share one log-weight and get bitwise-equal weights
    if atoms is None:
        spec = StateSpec(N, d, far_atom_p(N))
        measure = is_separable(spec).atoms
    else:
        measure = MeasureAtoms(atoms, top, 0.0)
        spec = StateSpec(N, d, tuple(measure.reproduced(N * (d - 1))))
    ens = ensemble_from_measure(spec, measure, normalize=True)
    L = N * (d - 1) + 1
    start = 0
    for t, _ in measure.atoms:
        count = 1 if t == 0.0 else L
        weights = {w for w, _ in ens.terms[start : start + count]}
        assert len(weights) == 1, t
        start += count
    assert len(ens.terms) == start + (measure.top_mass > 0)
    total = np.array([w for w, _ in ens.terms])
    assert abs(total.sum() - 1) <= 4 * len(total) * np.finfo(float).eps
    for _, phi in ens.terms:
        if not isinstance(phi, str):
            assert abs(np.linalg.norm(phi) - 1) <= 4 * np.finfo(float).eps
    # the same convex combination as the term-by-term normalization
    unnormalized = ensemble_from_measure(spec, measure).normalized()
    np.testing.assert_allclose(total, [w for w, _ in unnormalized.terms], rtol=1e-12)
    if d**N <= 4096:
        rho = build_state(spec, normalize=True)
        np.testing.assert_allclose(ensemble_matrix(ens), rho, atol=1e-12 * np.abs(rho).max())


def _random_measure_spec(rng, N, d):
    r = int(rng.integers(1, 4))
    nodes = rng.uniform(0.0, 3.0, r)
    weights = rng.uniform(0.1, 2.0, r)
    p = [float(np.sum(weights * nodes**k)) for k in range(N * (d - 1) + 1)]
    p[-1] += float(rng.choice([0.0, rng.uniform(0.1, 1.0)]))
    return StateSpec(N, d, tuple(p))


@pytest.mark.parametrize("normalize", [False, True])
def test_closed_form_error_matches_dense_distance(normalize):
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(30):
        N, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        spec = _random_measure_spec(rng, N, d)
        verdict = is_separable(spec)
        if verdict.verdict != "separable" or verdict.atoms is None:
            continue
        ens = ensemble_from_verdict(spec, verdict, normalize)
        rho = build_state(spec, normalize=normalize)
        dense = np.linalg.norm(ensemble_matrix(ens) - rho)
        assert abs(ens.reconstruction_error - dense) <= 1e-12 * np.linalg.norm(rho), spec
        checked += 1
    assert checked >= 20


def test_normalized_error_is_measured_against_the_normalized_state():
    # trace ~4.7e4: the unnormalized error (~1e-11) is far above the
    # distance between the normalized ensemble and the normalized state
    N, d = 6, 2
    spec = StateSpec(N, d, tuple(0.5**k + 5.0**k for k in range(N + 1)))
    rho = build_state(spec, normalize=True)
    ens = ensemble_from_verdict(spec, is_separable(spec), normalize=True)
    assert sum(w for w, _ in ens.terms) == pytest.approx(1.0)
    dense = np.linalg.norm(ensemble_matrix(ens) - rho)
    assert abs(ens.reconstruction_error - dense) <= 1e-12 * np.linalg.norm(rho)


def test_ensemble_builds_no_dense_matrix_and_ignores_the_cap(monkeypatch):
    monkeypatch.setenv("DSYM_DENSE_CAP", "4")

    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(dsym.states, "digit_sum_operator", forbidden)
    monkeypatch.setattr(dsym.states, "product_powers", forbidden)
    monkeypatch.setattr(dsym.oracle, "product_powers", forbidden)
    spec = StateSpec(40, 3, geometric_p(40, 3, 0.7, w=2.0))
    # ||rho||_F by the same closed form against the zero state; a normalized
    # state has Frobenius norm at most 1
    norm = reconstruction_error(40, 3, np.zeros(81), spec.p)
    for normalize, bound in ((False, 1e-12 * norm), (True, 1e-12)):
        ens = ensemble_from_verdict(spec, is_separable(spec), normalize)
        assert 0.0 <= ens.reconstruction_error < bound


def test_closed_form_error_beyond_the_float_range_is_none():
    N, d = 1100, 2  # the central counts exceed 1e308
    p = np.ones(N + 1)
    assert reconstruction_error(N, d, p, p) is None
    assert reconstruction_error(N, d, p, p, normalize=True) is None
    assert reconstruction_error(40, 2, p[:41], p[:41]) == 0.0
