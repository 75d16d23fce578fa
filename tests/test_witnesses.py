"""Witness construction, closed-form expectation values, and detection."""

import json
from pathlib import Path

import numpy as np
import pytest

from dsym.moment import is_separable
from dsym.oracle import witness_matrix
from dsym.states import StateSpec, build_state
from dsym.witnesses import (
    WitnessSpec,
    family_u_length,
    family_v_length,
)

from conftest import geometric_p, random_spec
from paper_objects import d_symmetrizer, sigma_z, top_product_state


def dense_witness(family, coeffs, N, d):
    return witness_matrix(WitnessSpec(family, tuple(coeffs), N, d))


def dense_value(w, spec):
    """Expectation value of the witness against the state, from the dense
    matrices."""
    return np.trace(witness_matrix(w) @ build_state(spec)).real


def random_coeffs(rng, length):
    return rng.normal(size=length) + 1j * rng.normal(size=length)


def geometric_vector_normalizer_sq(z, d):
    return 1.0 / sum(abs(z) ** (2 * i) for i in range(d))


def test_witness_v_single_term():
    # coefficient vector (1, 0, ...) picks out the all-zeros projector
    N, d = 3, 2
    coeffs = np.zeros(family_v_length(N, d))
    coeffs[0] = 1.0
    V = dense_witness("V", coeffs, N, d)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(V, expected)

    spec = StateSpec(N, d, (0.3, 0.7, 0.2, 0.9))
    w = WitnessSpec("V", tuple(coeffs), N, d)
    assert dense_value(w, spec) == pytest.approx(0.3)


def test_witness_u_single_term():
    # coefficient vector (1, 0, ...) gives U = |dual_1><dual_1|, whose
    # expectation against a diagonal state is p_1 by dual-basis pairing
    N, d = 2, 3
    coeffs = np.zeros(family_u_length(N, d))
    coeffs[0] = 1.0
    U = dense_witness("U", coeffs, N, d)
    spec = StateSpec(N, d, (0.0, 0.5, 0.0, 0.0, 0.0))
    rho = build_state(spec)
    assert np.trace(U @ rho).real == pytest.approx(0.5)


def test_witness_wrong_length_rejected():
    with pytest.raises(ValueError):
        WitnessSpec("U", (1.0, 0.0, 0.0, 0.0), 3, 3)
    with pytest.raises(ValueError):
        WitnessSpec("V", (1.0,), 3, 3)
    with pytest.raises(ValueError):
        WitnessSpec("X", (1.0,), 2, 2)


def test_witnesses_are_d_symmetric_hermitian():
    rng = np.random.default_rng(31)
    for N, d in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        PD = d_symmetrizer(N, d)
        for _ in range(5):
            V = dense_witness("V", random_coeffs(rng, family_v_length(N, d)), N, d)
            U = dense_witness("U", random_coeffs(rng, family_u_length(N, d)), N, d)
            for W in (V, U):
                assert np.linalg.norm(W - W.conj().T) < 1e-12
                assert np.linalg.norm(PD @ W @ PD - W) < 1e-10


def test_nonnegative_on_pure_separable_states():
    rng = np.random.default_rng(32)
    for _ in range(100):
        N = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 2)
        V = dense_witness("V", random_coeffs(rng, family_v_length(N, d)), N, d)
        U = dense_witness("U", random_coeffs(rng, family_u_length(N, d)), N, d)
        sig = sigma_z(N, d, z)
        top = top_product_state(N, d)
        for W in (V, U):
            assert np.trace(W @ sig).real > -1e-10
            assert np.trace(W @ top).real > -1e-10


def test_closed_form_values_on_geometric_states():
    rng = np.random.default_rng(33)
    N, d = 3, 2
    for _ in range(25):
        s = random_coeffs(rng, family_v_length(N, d))
        z = complex(rng.normal(), rng.normal())
        c2 = geometric_vector_normalizer_sq(z, d)
        got = np.trace(dense_witness("V", s, N, d) @ sigma_z(N, d, z)).real
        expected = c2**N * abs(sum(s[k] * abs(z) ** (2 * k) for k in range(len(s)))) ** 2
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    N, d = 2, 3
    for _ in range(25):
        t = random_coeffs(rng, family_u_length(N, d))
        z = complex(rng.normal(), rng.normal())
        c2 = geometric_vector_normalizer_sq(z, d)
        got = np.trace(dense_witness("U", t, N, d) @ sigma_z(N, d, z)).real
        expected = (
            c2**N
            * abs(z) ** 2
            * abs(sum(t[k] * abs(z) ** (2 * k) for k in range(len(t)))) ** 2
        )
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_top_state_values():
    rng = np.random.default_rng(34)
    for N, d in [(2, 2), (2, 3), (3, 3), (4, 2), (3, 2)]:
        s = random_coeffs(rng, family_v_length(N, d))
        t = random_coeffs(rng, family_u_length(N, d))
        top = top_product_state(N, d)
        tv = np.trace(dense_witness("V", s, N, d) @ top).real
        tu = np.trace(dense_witness("U", t, N, d) @ top).real
        if (N * (d - 1)) % 2 == 0:
            assert tv == pytest.approx(abs(s[-1]) ** 2, rel=1e-12)
            assert tu == pytest.approx(0.0, abs=1e-14)
        else:
            assert tv == pytest.approx(0.0, abs=1e-14)
            assert tu == pytest.approx(abs(t[-1]) ** 2, rel=1e-12)


def test_fast_value_matches_dense_trace():
    # the reported witness value, a Hankel form on the coefficient sequence
    # alone, is the dense expectation value of the witness
    rng = np.random.default_rng(35)
    families = []
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        w = is_separable(spec).witness
        if w is not None:
            assert w.witness_value == pytest.approx(dense_value(w, spec), rel=1e-10, abs=1e-10)
            families.append(w.family)
    assert len(families) > 20 and set(families) == {"V", "U"}


def test_fast_value_quadratic_form_example():
    # 2x2 form with s = (1, -1) on an all-ones sequence sums to zero
    w = WitnessSpec("V", (1.0, -1.0), 2, 2)
    assert dense_value(w, StateSpec(2, 2, (1.0, 1.0, 1.0))) == pytest.approx(0.0, abs=1e-14)


def test_detecting_witness_on_entangled_state(ppt_entangled_spec):
    w = is_separable(ppt_entangled_spec).witness
    assert w is not None
    assert w.family == "V"
    assert w.witness_value < -1e-4
    # the reported value matches the dense expectation value
    assert dense_value(w, ppt_entangled_spec) == pytest.approx(w.witness_value, rel=1e-10)


def test_both_hankels_failing_give_the_even_witness():
    # both moment Hankels fail, the odd one (lam_min 1 - sqrt 5) further than
    # the even one ((3 - sqrt 17) / 2): the witness is still the even
    # Hankel's, family V, so the family does not hang on which minimum
    # eigenvalue is lower
    verdict = is_separable(StateSpec(3, 2, (1.0, 2.0, 2.0, 0.0)))
    assert verdict.basis == "both"
    assert verdict.odd.lam_min < verdict.even.lam_min < 0
    assert verdict.witness.family == "V"
    assert verdict.witness.witness_value == pytest.approx(verdict.even.lam_min)
    rng = np.random.default_rng(38)
    both = 0
    for _ in range(60):
        verdict = is_separable(random_spec(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4))))
        if verdict.basis == "both" and verdict.verdict == "entangled":
            both += 1
            assert verdict.witness.family == "V"
    assert both > 5


def _form_and_slack(w, p):
    """The witness's Hankel form sum_{k,l} conj(c_k) c_l p_{k+l+shift}, summed
    term by term, and its rounding scale 1e-12 * sum |c_k| |c_l| |p_{k+l+shift}|."""
    shift = {"V": 0, "U": 1}[w.family]
    pairs = [(ck, cl, p[k + l + shift]) for k, ck in enumerate(w.coeffs) for l, cl in enumerate(w.coeffs)]
    form = sum((ck.conjugate() * cl * pk).real for ck, cl, pk in pairs)
    return form, 1e-12 * sum(abs(ck) * abs(cl) * abs(pk) for ck, cl, pk in pairs)


def test_witness_value_is_the_form_of_its_coefficients(ppt_entangled_spec):
    # the reported value is the Hankel form of the emitted coefficients, not
    # the eigenvalue they approximate; on the N = 64 spec the two differ by
    # more than the form's rounding scale
    data = json.loads((Path(__file__).parent / "data" / "witness_rounding.json").read_text())
    rng = np.random.default_rng(37)
    specs = [StateSpec(**data), ppt_entangled_spec] + [
        random_spec(rng, int(rng.integers(2, 9)), int(rng.integers(2, 4))) for _ in range(60)
    ]
    witnesses = [(spec, is_separable(spec).witness) for spec in specs]
    witnesses = [(spec, w) for spec, w in witnesses if w is not None]
    assert len(witnesses) > 20
    for spec, w in witnesses:
        form, slack = _form_and_slack(w, spec.p)
        assert abs(w.witness_value - form) <= slack


def test_detecting_witness_sign_convention(ppt_entangled_spec):
    w = is_separable(ppt_entangled_spec).witness
    first_nonzero = next(c for c in w.coeffs if abs(c) > 1e-14)
    assert first_nonzero.real > 0
    assert np.linalg.norm(w.coeffs) == pytest.approx(1.0)


def test_no_witness_for_separable_states():
    assert is_separable(StateSpec(3, 3, geometric_p(3, 3, 0.5))).witness is None
    assert is_separable(StateSpec(2, 2, (1.0, 0.0, 1.0))).witness is None


def test_witness_presence_matches_separability():
    rng = np.random.default_rng(36)
    for _ in range(60):
        spec = random_spec(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        verdict = is_separable(spec)
        w = verdict.witness
        if verdict.verdict == "entangled":
            assert w is not None and w.witness_value < 0
        elif verdict.verdict == "separable":
            assert w is None
