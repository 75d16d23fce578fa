"""Separable-ensemble construction and dense reconstruction."""

import functools

import numpy as np
import pytest

import dsym.moment
from dsym.decompose import (
    TOP,
    NotSeparableError,
    SeparableEnsemble,
    geometric_ensemble,
    separable_ensemble,
)
from dsym.moment import RecoveryError, is_separable
from dsym.oracle import permutation_operator
from dsym.states import StateSpec, build_state

from conftest import geometric_p


def test_geometric_ensemble_t_zero():
    ens = geometric_ensemble(3, 2, 0.0)
    assert len(ens.terms) == 4
    for weight, phi in ens.terms:
        assert weight == pytest.approx(1 / 4)
        np.testing.assert_allclose(phi, [1.0, 0.0])
    rho0 = build_state(StateSpec(3, 2, (1.0, 0.0, 0.0, 0.0)))
    np.testing.assert_allclose(ens.to_dense(), rho0, atol=1e-14)


def test_geometric_ensemble_negative_t_rejected():
    with pytest.raises(ValueError):
        geometric_ensemble(2, 2, -0.5)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5])
def test_geometric_ensemble_reconstructs(N, d, t):
    ens = geometric_ensemble(N, d, t)
    assert len(ens.terms) == N * (d - 1) + 1
    rho = build_state(StateSpec(N, d, geometric_p(N, d, t)))
    assert np.linalg.norm(ens.to_dense() - rho) < 1e-10


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
    dense = SeparableEnsemble(N, d, tuple(terms)).to_dense()
    np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)


def test_ensemble_terms_permutation_symmetric():
    ens = geometric_ensemble(3, 2, 0.7)
    dense = ens.to_dense()
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
        normalized.to_dense(),
        rho / np.trace(rho).real,
        atol=1e-12,
    )
