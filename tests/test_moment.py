"""Moment-problem feasibility, measure recovery, and the separability verdict."""

import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dsym.moment
from dsym.moment import (
    MeasureAtoms,
    RecoveryError,
    is_generalized_moment_solution,
    is_separable,
    moment_hankels,
    recover_atomic_measure,
)
from dsym.oracle import dense_ppt_check
from dsym.ppt import DEFAULT_PSD_TOL, is_m_ppt, is_psd, psd_checks
from dsym.states import StateSpec, build_state, composition_counts

from conftest import PPT_ENTANGLED_P, SYMMETRIZER_P, geometric_p, random_spec


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sequence_is_refused(bad):
    # a non-finite coefficient has no verdict: it used to read as "no" with
    # finite eigenvalues, as a measure with a NaN residual, or as LinAlgError
    for p in ([bad, 1.0, 1.0], [1.0, bad, 1.0, 1.0, 1.0], [1.0, 1.0, bad]):
        for f in (moment_hankels, is_generalized_moment_solution, recover_atomic_measure):
            with pytest.raises(ValueError, match="non-finite"):
                f(p)


def _bits(check):
    """Everything of a PsdCheck that a report or witness reads, bit for bit."""
    floats = (check.lam_min, check.lam_max, check.band)
    vec = None if check.vec is None else check.vec.tobytes()
    return check.status, *(None if x is None else x.hex() for x in floats), vec


def test_feasibility_checks_are_is_psd_bit_for_bit():
    # the moment Hankels are decided by the kernel without vectors, as an
    # m-PPT block is: is_psd's rule, without its validation or its vector
    rng = np.random.default_rng(5)
    sequences = [
        (0.7,),  # the odd Hankel is empty
        (1.0, 0.5),
        PPT_ENTANGLED_P,
        tuple(float(Fraction(x)) for x in SYMMETRIZER_P),
        (1.0, 0.5, 0.25 - 3e-11),  # marginal
        geometric_p(6, 2, 1.3),
        *(tuple(rng.uniform(0, 1, n)) for n in (4, 9, 17)),
    ]
    for p in sequences:
        check = is_generalized_moment_solution(p)
        even, odd = (psd_checks(h[None], DEFAULT_PSD_TOL).check(0) for h in moment_hankels(p))
        assert _bits(check.even) == _bits(even) and _bits(check.odd) == _bits(odd)
        assert check.even.vec is None and check.odd.vec is None
        assert (check.even.status, check.odd.status) == tuple(
            is_psd(h).status for h in moment_hankels(p)
        )


def test_symmetrizer_blocks_and_moment_hankel_exactly():
    # in exact arithmetic: the three 1-PPT blocks are positive definite
    # (every leading principal minor > 0), the even moment Hankel is not PSD
    p = [Fraction(x) for x in SYMMETRIZER_P]

    def det(M):  # Laplace expansion along the first row
        if len(M) == 1:
            return M[0][0]
        minors = (det([r[:j] + r[j + 1 :] for r in M[1:]]) for j in range(len(M)))
        return sum((-1) ** j * M[0][j] * minor for j, minor in enumerate(minors))

    minors = [
        det([[p[k + l + s] for l in range(j)] for k in range(j)])
        for s in range(3)
        for j in (1, 2, 3)
    ]
    assert all(m > 0 for m in minors) and min(minors) == Fraction(1, 10584)
    assert det([[p[k + l] for l in range(4)] for k in range(4)]) == Fraction(-793, 1037232)


def exact_psd(A) -> bool:
    """Whether a symmetric matrix of Fractions is PSD, by symmetric
    elimination on its largest diagonal entry: a negative pivot, or a zero
    pivot whose row is not zero, leaves a vector x with x^T A x < 0."""
    while A:
        i = max(range(len(A)), key=lambda k: A[k][k])
        pivot, row = A[i][i], A[i]
        if pivot < 0 or (pivot == 0 and any(row)):
            return False
        # the Schur complement of the pivot; a zero row is only dropped
        A = [
            [x - r[i] * row[j] / pivot if pivot else x for j, x in enumerate(r) if j != i]
            for k, r in enumerate(A)
            if k != i
        ]
    return True


# The D-symmetrizer projector p_k = 1/c_k, c_k the composition counts: the
# first m at which it is not m-PPT, None where it is m-PPT at every m.  The
# qubit ones are separable, the others entangled.
SYMMETRIZER_FIRST_NPT = {
    **{(N, 2): None for N in range(2, 9)},
    # even N: not PPT at m = N/2
    (4, 3): 2, (6, 3): 2, (8, 3): 3, (4, 4): 1, (6, 4): 2,
    # odd N: 1-PPT but not 2-PPT, or not even 1-PPT
    (5, 3): 2, (7, 3): 2, (3, 4): 1, (3, 5): 1,
}


@pytest.mark.parametrize("N, d", SYMMETRIZER_FIRST_NPT)
def test_symmetrizer_projectors_decided_exactly(N, d):
    # every sufficient m-PPT block and both moment Hankels, decided in exact
    # arithmetic, give the float verdicts, and so does the dense oracle where
    # d^N <= 4096
    counts = composition_counts(N, d)
    exact = [Fraction(1, int(c)) for c in counts]
    spec = StateSpec(N, d, tuple(1 / counts))
    rho = build_state(spec) if d**N <= 4096 else None

    def hankel(size, shift):
        return [[exact[k + l + shift] for l in range(size)] for k in range(size)]

    first = SYMMETRIZER_FIRST_NPT[N, d]
    for m in range(1, N // 2 + 1):
        a, b = m * (d - 1), (N - m) * (d - 1)
        offsets = (0, 1) if N == 2 * m else range(b - a + 1)
        ppt = all(exact_psd(hankel(min(a, b - s) + 1, s)) for s in offsets)
        assert ppt == (first is None or m < first), m
        assert is_m_ppt(spec, m).verdict == ("ppt" if ppt else "not-ppt")
        if rho is not None:
            status, _, _ = dense_ppt_check(rho, (1,) * m + (0,) * (N - m), d)
            assert status == ("psd" if ppt else "not-psd")
    L = N * (d - 1)
    separable = exact_psd(hankel(L // 2 + 1, 0)) and exact_psd(hankel((L - 1) // 2 + 1, 1))
    assert separable == (d == 2)
    assert is_separable(spec).verdict == ("separable" if separable else "entangled")


def test_feasibility_examples():
    assert is_generalized_moment_solution(PPT_ENTANGLED_P).verdict == "no"
    assert is_generalized_moment_solution((1.0, 0.0, 1.0)).verdict == "yes"
    assert is_generalized_moment_solution((2.0, 1.0, 1.0)).verdict == "yes"


def test_feasibility_marginal_band():
    p = (1.0, 0.5, 0.25 - 3e-11)
    assert is_generalized_moment_solution(p).verdict == "marginal"
    assert is_separable(StateSpec(2, 2, p)).verdict == "marginal"


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


def test_recover_keeps_a_top_mass_below_the_absolute_bound():
    # p_128 ~ 4.9e-128 lies far below the bound 1e-9 * max|p|, yet its
    # surplus over the single atom's moment (2/7 of p_128) is real and kept
    p = 3.5 * 0.1 ** np.arange(129)
    p[128] *= 1.4
    rec = recover_atomic_measure(p)
    assert rec.top_mass > 0
    assert rec.reproduced(128)[128] == pytest.approx(p[128], rel=1e-9)


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
    # the 3-qutrit counterexample (n = 6), and p_0 p_2 < p_1^2 at odd n = 3
    cases = [
        (PPT_ENTANGLED_P, "1.000e-09", ("radau rule, 4 atoms: negative weight at 0",
                                        "gauss rule, 3 atoms: negative top mass")),
        ((1.0, 2.0, 1.0, 2.0), "2.000e-09", ("radau rule, 2 atoms: negative weight at 0",
                                             "gauss rule, 1 atom: negative top mass")),
    ]
    for p, bound, reasons in cases:
        with pytest.raises(RecoveryError) as raised:
            recover_atomic_measure(p)
        message = str(raised.value)
        assert message.startswith(f"no atomic measure met the residual bound {bound}: ")
        for reason in reasons:
            assert reason in message


def test_recovery_drops_an_empty_far_atom():
    # a separable spec of length 161 whose rule pinned at 0 has an atom of
    # weight exactly 0 far out (node ~1.2e3): its largest moment 0 * inf is
    # NaN, so the atom must be dropped by the cut-off, not kept to poison the
    # rule's moments; each rule is then judged on its residual
    spec = json.loads((Path(__file__).parent / "data" / "empty_far_atom.json").read_text())
    with pytest.raises(RecoveryError) as raised:
        recover_atomic_measure(spec["p"])
    message = str(raised.value)
    assert "radau rule, 6 atoms: residual 4.9" in message
    assert "gauss rule, 6 atoms: residual" in message
    assert "overflow" not in message


def test_rule_with_overflowing_moments_is_rejected():
    # the far atom's moment 1e-100 * (1e3)**160 = 1e380 is out of the float range
    p = atoms_moments([0.5], [1.0], 160)
    with pytest.raises(dsym.moment._Rejected) as raised:
        dsym.moment._evaluate_candidate([(0.5, 1.0), (1e3, 1e-100)], p, 1e-8)
    assert raised.value.args == (2, "moments overflow")


def test_times_power_keeps_numpys_bits_and_the_exact_value_elsewhere():
    # x * t**k and x / t**k are numpy's results wherever t**k is a normal
    # float; where numpy's t**k over- or underflows, results in the normal
    # range are still within 1e-13 of the exact rational value
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    far = 0
    cases = [(1.0, 0.7), (2.5, 3.0), (1e-300, 1e150), (1e300, 1e-100), (1e-250, 1e3), (1e250, 0.02)]
    for x, t in cases:
        for divide in (False, True):
            exact, step = [Fraction(x)], 1 / Fraction(t) if divide else Fraction(t)
            while len(exact) < 400:
                exact.append(exact[-1] * step)
            k = np.array([i for i, e in enumerate(exact) if tiny <= e <= big])
            got = dsym.moment._times_power(x, t, k, divide)
            with np.errstate(over="ignore", under="ignore"):
                tk = t**k
                numpy = x / tk if divide else x * tk
            normal = (tiny <= tk) & (tk <= big)
            far += (~normal).sum()
            assert [v.hex() for v in got[normal]] == [v.hex() for v in numpy[normal]]
            for i, v in zip(k[~normal], got[~normal]):
                assert abs(Fraction(v) - exact[i]) <= Fraction(1e-13) * exact[i]
    assert far > 100


@pytest.mark.parametrize(
    "p",
    [
        (1e-300, 1e-150, 1.0, 1e150, 1e300),
        (1e-200, 1e-100, 1.0, 1e100, 1e200),
        (1e-300, 1e-200, 1e-100, 1.0, 1e100),
        (1e300, 1e200, 1e100, 1.0, 1e-100),
    ],
)
def test_wide_range_geometric_sequence_is_reproduced_entry_by_entry(p):
    # one atom w * t**k whose ratio p_3 / p_0, rescaling c**k or powers t**k
    # leave the float range although every p_k and q_k = p_k / c**k is in it:
    # the measure is the atom itself, with no top mass standing in for a
    # lost moment, and every p_k is reproduced, not only the largest
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = recover_atomic_measure(p)
        reproduced = rec.reproduced(4)
        assert is_separable(StateSpec(4, 2, p)).atoms == rec
    assert len(rec.atoms) == 1 and rec.top_mass == 0.0
    assert np.all(np.abs(reproduced - p) <= 1e-12 * np.abs(p))


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


@pytest.mark.parametrize("n", [7, 9, 11])
def test_recover_odd_length_mixture_with_top_mass(n):
    # 5-6 atoms and a raised p_n: at odd n the Gauss rule fits p_n too, with
    # at most (n + 1) / 2 nodes that may leave [0, inf); the rule pinned at 0
    # on p_0..p_{n-1} is their lower principal representation, so the surplus
    # of p_n over it is a nonnegative top mass
    rng = np.random.default_rng(n)
    for _ in range(24):
        r = int(rng.integers(5, 7))
        p = atoms_moments(rng.uniform(0.0, 1.5, r), rng.uniform(0.1, 1.0, r), n)
        p[n] *= 1.0 + rng.uniform(0.1, 1.0)
        rec = recover_atomic_measure(p)
        assert np.max(np.abs(rec.reproduced(n) - p)) <= 1e-9 * p.max()
        assert rec.top_mass > 0
        assert all(t >= 0 and w > 0 for t, w in rec.atoms)


CLUSTERED = "ROADMAP item 2: both recurrence rules miss six clustered atoms at length 61"


@pytest.mark.xfail(strict=True, raises=RecoveryError, reason=CLUSTERED)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recover_six_clustered_atoms_at_length_61(seed):
    rng = np.random.default_rng(seed)
    p = atoms_moments(rng.uniform(0.5, 1.5, 6), rng.uniform(0.1, 1.0, 6), 60)
    rec = recover_atomic_measure(p)
    assert np.max(np.abs(rec.reproduced(60) - p)) <= 1e-9 * p.max()


def test_recovery_builds_at_most_two_recurrences(count_calls):
    import dsym.moment

    counts = count_calls(dsym.moment, "_recurrence_from_moments")
    sequences = (
        [2.0**k for k in range(49)],  # the rule pinned at 0 is accepted
        atoms_moments([0.5, 2.0], [1.0, 1.0], 8, top_mass=0.3),  # then Gauss
        atoms_moments([1e-4, 2.0], [1.0, 1.0], 5, top_mass=0.3),  # then Gauss, odd n
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
    # for N = 2m, and for qubits with odd N at m = (N-1)/2, the checked Hankel
    # blocks are exactly the moment Hankels
    rng = np.random.default_rng(23)
    for N, d in [(2, 2), (2, 3), (4, 2), (4, 3), (3, 2), (5, 2)]:
        for _ in range(40):
            spec = random_spec(rng, N, d)
            fast = is_m_ppt(spec, N // 2)
            moment = is_generalized_moment_solution(spec.p)
            if "marginal" in (fast.verdict, moment.verdict):
                continue
            assert (fast.verdict == "ppt") == (moment.verdict == "yes")


def test_main_theorem_consistency():
    # the separability verdict against the dense partial transpose at the
    # half split, the one vote that does not read the moment Hankels
    rng = np.random.default_rng(24)
    for N, d, count in [(2, 3, 100), (4, 2, 40), (3, 2, 40), (5, 2, 20)]:
        mask = (1,) * (N // 2) + (0,) * (N - N // 2)
        n = N * (d - 1)
        # random sequences are nearly all entangled; atomic-measure moments
        # with a top mass are separable
        specs = [random_spec(rng, N, d) for _ in range(count)]
        for r in rng.integers(1, 4, count // 2):
            nodes, weights = rng.uniform(0.0, 1.5, r), rng.uniform(0.1, 1.0, r)
            p = atoms_moments(nodes, weights, n, rng.uniform(0.0, 0.5))
            specs.append(StateSpec(N, d, tuple(p)))
        for spec in specs:
            verdict = is_separable(spec).verdict
            if verdict == "marginal":
                continue
            status, _, _ = dense_ppt_check(build_state(spec), mask, d)
            assert (verdict == "separable") == (status == "psd"), spec

    assert is_separable(StateSpec(4, 2, (1.0,) * 5)).verdict == "separable"


def test_main_theorem_odd_qubits_uses_half_split():
    # for qubits with odd N the equivalence holds at m = (N - 1) / 2
    spec = StateSpec(3, 2, (1.0, 0.5, 0.25, 0.125))
    report = is_m_ppt(spec, (spec.N - 1) // 2)
    assert report.verdict == "ppt"
    assert is_generalized_moment_solution(spec.p).verdict == "yes"
    assert is_separable(spec).verdict == "separable"


def test_entangled_verdict_decomposes_each_hankel_once(ppt_entangled_spec, eigensolves):
    # the verdict takes each moment Hankel's eigenvalues once; only the
    # witness Hankel is solved again, for its eigenvector
    verdict = is_separable(ppt_entangled_spec)
    assert verdict.verdict == "entangled" and verdict.witness is not None
    assert [name for name, _ in eigensolves] == ["eigvalsh", "eigvalsh", "eigh"]
    witness = moment_hankels(ppt_entangled_spec.p)[verdict.witness.family == "U"]
    np.testing.assert_array_equal(eigensolves[2][1], witness[None], strict=True)


@pytest.mark.parametrize(
    "p",
    [
        geometric_p(3, 3, 0.4),
        tuple(atoms_moments((0.0, 0.4, 1.7), (0.2, 0.3, 0.1), 6, top_mass=0.05)),
        tuple(atoms_moments((0.3, 0.8, 1.02), (0.5, 0.3, 0.2), 12)),
        (1.0, 0.5, 0.25 - 3e-11),  # marginal
    ],
)
def test_separable_verdict_solves_no_moment_hankel_for_a_vector(p, eigensolves):
    # a verdict without a witness needs no eigenvector of a moment Hankel;
    # eigh runs only on the Jacobi matrices of measure recovery
    n = len(p) - 1
    verdict = is_separable(StateSpec(n, 2, p))
    assert verdict.verdict in ("separable", "marginal") and verdict.witness is None
    assert [name for name, _ in eigensolves[:2]] == ["eigvalsh", "eigvalsh"]
    hankels = moment_hankels(p)
    for name, a in eigensolves[2:]:
        assert name == "eigh"
        assert not any(np.array_equal(a, h) or np.array_equal(a, h[None]) for h in hankels)
    assert (len(eigensolves) > 2) == (verdict.verdict == "separable")


def test_measure_atoms_reproduced_includes_mass():
    measure = MeasureAtoms(((0.5, 2.0),), 0.75, 0.0)
    rep = measure.reproduced(3)
    np.testing.assert_allclose(rep, [2.0, 1.0, 0.5, 0.25 + 0.75])
