"""Witness construction, closed-form expectation values, and detection."""

import json
from pathlib import Path

import numpy as np
import pytest

from dsym.moment import is_separable
from dsym.oracle import witness_matrix
from dsym.states import (
    StateSpec,
    build_state,
    d_symmetrizer,
    sigma_z,
    top_product_state,
)
from dsym.witnesses import (
    WitnessSpec,
    family_u_length,
    family_v_length,
    find_detecting_witness,
    witness_value_fast,
)

from conftest import geometric_p, random_spec


def dense_witness(family, coeffs, N, d):
    return witness_matrix(WitnessSpec(family, tuple(coeffs), N, d))


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
    assert witness_value_fast(w, spec) == pytest.approx(0.3)


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
    w = WitnessSpec("U", tuple(coeffs), N, d)
    assert witness_value_fast(w, spec) == pytest.approx(0.5)


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
    rng = np.random.default_rng(35)
    for _ in range(40):
        N = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        spec = random_spec(rng, N, d)
        rho = build_state(spec)
        family = "V" if rng.random() < 0.5 else "U"
        length = family_v_length(N, d) if family == "V" else family_u_length(N, d)
        coeffs = random_coeffs(rng, length)
        w = WitnessSpec(family, tuple(coeffs), N, d)
        dense_val = np.trace(witness_matrix(w) @ rho).real
        assert witness_value_fast(w, spec) == pytest.approx(
            dense_val, rel=1e-10, abs=1e-10
        )


def test_fast_value_quadratic_form_example():
    # 2x2 form with s = (1, -1) on an all-ones sequence sums to zero
    N, d = 2, 2
    spec = StateSpec(N, d, (1.0, 1.0, 1.0))
    w = WitnessSpec("V", (1.0, -1.0), N, d)
    assert witness_value_fast(w, spec) == pytest.approx(0.0, abs=1e-14)


def test_fast_value_dimension_mismatch():
    w = WitnessSpec("V", (1.0, 0.0), 2, 2)
    with pytest.raises(ValueError):
        witness_value_fast(w, StateSpec(2, 3, (1.0,) * 5))


def test_detecting_witness_on_entangled_state(ppt_entangled_spec):
    w = find_detecting_witness(ppt_entangled_spec)
    assert w is not None
    assert w.family == "V"
    assert w.witness_value < -1e-4
    # the reported value is the Hankel quadratic form at the coefficients
    assert witness_value_fast(w, ppt_entangled_spec) == pytest.approx(
        w.witness_value, rel=1e-10
    )
    # and matches the dense expectation value
    dense = witness_matrix(w)
    rho = build_state(ppt_entangled_spec)
    assert np.trace(dense @ rho).real == pytest.approx(w.witness_value, rel=1e-10)


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
    witnesses = [(spec, find_detecting_witness(spec)) for spec in specs]
    witnesses = [(spec, w) for spec, w in witnesses if w is not None]
    assert len(witnesses) > 20
    for spec, w in witnesses:
        form, slack = _form_and_slack(w, spec.p)
        assert abs(w.witness_value - form) <= slack
        assert w.witness_value == witness_value_fast(w, spec)


def test_detecting_witness_sign_convention(ppt_entangled_spec):
    w = find_detecting_witness(ppt_entangled_spec)
    first_nonzero = next(c for c in w.coeffs if abs(c) > 1e-14)
    assert first_nonzero.real > 0
    assert np.linalg.norm(w.coeffs) == pytest.approx(1.0)


def test_no_witness_for_separable_states():
    assert find_detecting_witness(StateSpec(3, 3, geometric_p(3, 3, 0.5))) is None
    assert find_detecting_witness(StateSpec(2, 2, (1.0, 0.0, 1.0))) is None


def test_witness_presence_matches_separability():
    rng = np.random.default_rng(36)
    for _ in range(60):
        spec = random_spec(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        verdict = is_separable(spec)
        w = find_detecting_witness(spec)
        if verdict.verdict == "entangled":
            assert w is not None and w.witness_value < 0
        elif verdict.verdict == "separable":
            assert w is None
