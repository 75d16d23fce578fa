"""Moment-problem feasibility, measure recovery, and the separability verdict."""

import numpy as np
import pytest

from dsym.moment import (
    MeasureAtoms,
    RecoveryError,
    check_main_theorem,
    is_generalized_moment_solution,
    is_separable,
    moment_hankels,
    recover_atomic_measure,
)
from dsym.ppt import is_m_ppt
from dsym.states import StateSpec

from conftest import PPT_ENTANGLED_P, geometric_p, random_spec


def atoms_moments(nodes, weights, n, top_mass=0.0):
    p = np.zeros(n + 1)
    for t, w in zip(nodes, weights):
        p += w * np.asarray(t, dtype=float) ** np.arange(n + 1)
    p[n] += top_mass
    return p


def test_moment_hankels_shapes_and_entries():
    h_even, h_odd = moment_hankels((1.0, 0.0, 1.0))
    np.testing.assert_array_equal(h_even, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(h_odd, [[0.0]])

    p = PPT_ENTANGLED_P
    h_even, h_odd = moment_hankels(p)
    assert h_even.shape == (4, 4)
    np.testing.assert_array_equal(
        h_even, [[p[i + j] for j in range(4)] for i in range(4)]
    )
    assert h_odd.shape == (3, 3)


def test_moment_hankels_geometric_rank_one():
    p = tuple(0.7**k for k in range(7))
    h_even, h_odd = moment_hankels(p)
    assert np.linalg.matrix_rank(h_even, tol=1e-12) == 1
    assert np.linalg.matrix_rank(h_odd, tol=1e-12) == 1


def test_moment_hankels_rejects_empty():
    with pytest.raises(ValueError):
        moment_hankels(())


def test_feasibility_examples():
    assert is_generalized_moment_solution(PPT_ENTANGLED_P).verdict == "no"
    assert is_generalized_moment_solution((1.0, 0.0, 1.0)).verdict == "yes"
    assert is_generalized_moment_solution((2.0, 1.0, 1.0)).verdict == "yes"


def test_feasibility_marginal_band():
    p = (1.0, 0.5, 0.25 - 3e-11)
    assert is_generalized_moment_solution(p).verdict == "marginal"
    assert is_separable(StateSpec(2, 2, p)).verdict == "marginal"


def test_strict_flag():
    # two well-separated atoms make both Hankels strictly positive definite
    p = atoms_moments([0.5, 2.0], [1.0, 1.0], 3)
    check = is_generalized_moment_solution(p)
    assert check.verdict == "yes" and check.strict

    check = is_generalized_moment_solution(geometric_p(3, 2, 0.5))
    assert check.verdict == "yes" and not check.strict  # rank-1 boundary


def test_recover_examples():
    rec = recover_atomic_measure((1.0, 0.5, 0.25, 0.125))
    assert rec.atoms == ((0.5, 1.0),)
    assert rec.top_mass == 0.0

    rec = recover_atomic_measure((1.0, 0.0, 1.0))
    assert rec.atoms == ((0.0, 1.0),)
    assert rec.top_mass == pytest.approx(1.0)

    rec = recover_atomic_measure((2.0, 1.0, 1.0))
    assert len(rec.atoms) == 2
    np.testing.assert_allclose(rec.atoms, [(0.0, 1.0), (1.0, 1.0)], atol=1e-12)
    assert rec.top_mass == 0.0


def test_recover_reproduces_input_moments():
    rng = np.random.default_rng(21)
    for _ in range(60):
        r = int(rng.integers(0, 5))
        nodes = rng.uniform(0.0, 3.0, r)
        while r > 1 and np.min(np.diff(np.sort(nodes))) < 0.15:
            nodes = rng.uniform(0.0, 3.0, r)
        weights = rng.uniform(0.05, 2.0, r)
        top = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        n = 2 * r + 1 + int(rng.integers(0, 3))
        p = atoms_moments(nodes, weights, n, top)
        rec = recover_atomic_measure(p)
        np.testing.assert_allclose(rec.reproduced(n), p, atol=1e-8 * max(p.max(), 1))
        assert len(rec.atoms) <= r
        assert all(w > 0 for _, w in rec.atoms)
        assert all(t >= 0 for t, _ in rec.atoms)
        assert rec.top_mass >= 0


def test_recover_clips_rounding_noise_off_top_mass():
    # decimal geometric data leaves ~1e-19 of surplus on the top moment,
    # which must not surface as a spurious mass term
    p = tuple(0.4**k for k in range(7))
    rec = recover_atomic_measure(p)
    assert rec.top_mass == 0.0
    assert len(rec.atoms) == 1


def test_recover_zero_sequence():
    rec = recover_atomic_measure((0.0, 0.0, 0.0))
    assert rec.atoms == () and rec.top_mass == 0.0


def test_recover_mass_only_sequence():
    rec = recover_atomic_measure((0.0, 0.0, 0.0, 0.0, 2.5))
    assert rec.atoms == ()
    assert rec.top_mass == pytest.approx(2.5)


def test_recover_fails_on_infeasible():
    with pytest.raises(RecoveryError):
        recover_atomic_measure(PPT_ENTANGLED_P)


def test_recovery_error_names_each_rejected_rule():
    with pytest.raises(RecoveryError) as raised:
        recover_atomic_measure(PPT_ENTANGLED_P)
    message = str(raised.value)
    assert message.startswith("no atomic measure met the residual bound 1.000e-09: ")
    assert "radau rule, 4 atoms: negative weight at 0" in message
    assert "gauss rule, 3 atoms: negative top mass" in message


@pytest.mark.parametrize("length", [33, 49])
@pytest.mark.parametrize("r", [2, 3])
def test_recover_atom_mixtures_at_length(r, length):
    # moments of atoms up to 3 span many orders of magnitude at these lengths
    rng = np.random.default_rng(100 * r + length)
    for _ in range(40):
        nodes = rng.uniform(0.2, 3.0, r)
        weights = rng.uniform(0.1, 1.0, r)
        p = atoms_moments(nodes, weights, length - 1)
        rec = recover_atomic_measure(p)
        assert np.max(np.abs(rec.reproduced(length - 1) - p)) <= 1e-9 * p.max()


def test_recovery_builds_at_most_two_recurrences(count_calls):
    import dsym.moment

    counts = count_calls(dsym.moment, "_recurrence_from_moments")
    sequences = (
        [2.0**k for k in range(49)],  # the rule pinned at 0 is accepted
        atoms_moments([0.5, 2.0], [1.0, 1.0], 8, top_mass=0.3),  # then Gauss
        PPT_ENTANGLED_P,  # both rules rejected
    )
    for p in sequences:
        counts["_recurrence_from_moments"] = 0
        try:
            recover_atomic_measure(p)
        except RecoveryError:
            pass
        assert counts["_recurrence_from_moments"] <= 2


def test_separability_examples(ppt_entangled_spec):
    verdict = is_separable(ppt_entangled_spec)
    assert verdict.verdict == "entangled"
    assert verdict.witness is not None
    assert verdict.witness.witness_value < 0

    geo = StateSpec(3, 3, geometric_p(3, 3, 0.4))
    verdict = is_separable(geo)
    assert verdict.verdict == "separable"
    assert verdict.atoms is not None
    np.testing.assert_allclose(verdict.atoms.atoms, [(0.4, 1.0)], atol=1e-12)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_zero_middle_sequence_is_separable(N, d):
    p = [0.0] * (N * (d - 1) + 1)
    p[0] = 1.0
    p[-1] = 1.0
    verdict = is_separable(StateSpec(N, d, tuple(p)))
    assert verdict.verdict == "separable"
    assert verdict.atoms.atoms == ((0.0, 1.0),)
    assert verdict.atoms.top_mass == pytest.approx(1.0)


def test_separability_scale_invariant():
    rng = np.random.default_rng(22)
    for _ in range(30):
        spec = random_spec(rng, 3, 2)
        base = is_separable(spec).verdict
        for c in (0.01, 7.3, 4000.0):
            scaled = StateSpec(spec.N, spec.d, tuple(c * x for x in spec.p))
            assert is_separable(scaled).verdict == base


def test_even_ppt_equals_moment_feasibility():
    # for N = 2m the checked Hankel blocks are exactly the moment Hankels
    rng = np.random.default_rng(23)
    for N, d in [(2, 2), (2, 3), (4, 2), (4, 3)]:
        for _ in range(40):
            spec = random_spec(rng, N, d)
            fast = is_m_ppt(spec, N // 2)
            moment = is_generalized_moment_solution(spec.p)
            if "marginal" in (fast.verdict, moment.verdict):
                continue
            assert (fast.verdict == "ppt") == (moment.verdict == "yes")


def test_main_theorem_consistency():
    rng = np.random.default_rng(24)
    for _ in range(100):
        spec = random_spec(rng, 2, 3)
        record = check_main_theorem(spec)
        assert record.agree, spec

    record = check_main_theorem(StateSpec(4, 2, (1.0,) * 5))
    assert record.separable == "separable"
    assert record.ppt == "ppt"
    assert record.moment == "yes"


def test_entangled_verdict_decomposes_each_hankel_once(ppt_entangled_spec, count_calls):
    # the verdict and its witness share one eigendecomposition per Hankel
    counts = count_calls(np.linalg, "eigh", "eigvalsh")
    verdict = is_separable(ppt_entangled_spec)
    assert verdict.verdict == "entangled" and verdict.witness is not None
    assert counts["eigh"] + counts["eigvalsh"] == 2


def test_main_theorem_checks_moments_once(count_calls):
    import dsym.moment

    counts = count_calls(dsym.moment, "is_generalized_moment_solution")
    check_main_theorem(StateSpec(4, 2, (1.0,) * 5))
    assert counts["is_generalized_moment_solution"] == 1


def test_main_theorem_odd_qubits_uses_half_split():
    record = check_main_theorem(StateSpec(3, 2, (1.0, 0.5, 0.25, 0.125)))
    assert record.m == 1 and record.agree


def test_main_theorem_rejects_odd_qudits(ppt_entangled_spec):
    with pytest.raises(ValueError):
        check_main_theorem(ppt_entangled_spec)


def test_measure_atoms_reproduced_includes_mass():
    measure = MeasureAtoms(((0.5, 2.0),), 0.75, 0.0)
    rep = measure.reproduced(3)
    np.testing.assert_allclose(rep, [2.0, 1.0, 0.5, 0.25 + 0.75])
