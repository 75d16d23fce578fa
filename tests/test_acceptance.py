"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np

from dsym.decompose import geometric_ensemble, separable_ensemble
from dsym.moment import is_generalized_moment_solution, recover_atomic_measure
from dsym.oracle import (
    dense_ppt_check,
    ensemble_matrix,
    partial_transpose,
    witness_matrix,
)
from dsym.ppt import is_m_ppt, is_psd
from dsym.states import StateSpec, build_state
from dsym.witnesses import WitnessSpec, family_u_length, family_v_length

from conftest import PPT_ENTANGLED_P, geometric_p, group_sums, random_spec
from paper_objects import offset_supports, sigma_z, top_product_state


def _verdict_bool(verdict: str):
    if verdict in ("ppt", "psd", "yes", "separable"):
        return True
    if verdict in ("not-ppt", "not-psd", "no", "entangled"):
        return False
    return None  # marginal


def test_criterion_1_ppt_entangled_boundary_state():
    started = time.perf_counter()
    spec = StateSpec(3, 3, PPT_ENTANGLED_P)

    # (a) all three Hankel blocks PSD, so the half-split test passes
    report = is_m_ppt(spec, 1)
    assert report.verdict == "ppt"
    for block in report.blocks:
        assert block.lam_min >= -1e-12

    # (b) the 4x4 moment Hankel is decisively indefinite
    idx = np.arange(4)
    moment_matrix = np.asarray(spec.p)[idx[:, None] + idx[None, :]]
    assert np.linalg.det(moment_matrix) < 0
    chk = is_psd(moment_matrix)
    assert chk.status == "not-psd"
    assert chk.lam_min < -1e-4
    from dsym.moment import is_separable

    assert is_separable(spec).verdict == "entangled"

    # (c) the dense partial transpose really is PSD
    status, lam_min, lam_max = dense_ppt_check(build_state(spec), (1, 0, 0), 3)
    assert lam_min >= -1e-10 * max(1.0, lam_max)
    assert status == "psd"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (1-PPT entangled boundary state, {elapsed:.3f}s)")


def _boundary_sequence(rng, N, d):
    """Single-atom moment sequence (exactly on the PSD-feasible boundary),
    half the time nudged by +-1e-6 on one coefficient."""
    t = rng.uniform(0.5, 1.5)
    w = rng.uniform(0.2, 1.0)
    p = np.array(geometric_p(N, d, t, w))
    if rng.random() < 0.5:
        j = int(rng.integers(0, len(p)))
        p[j] = max(0.0, p[j] + rng.choice((-1e-6, 1e-6)))
    return StateSpec(N, d, tuple(p))


def test_criterion_2_even_split_equivalence_at_desk_scale():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    total = comparisons = marginal = 0
    for N, d in [(2, 2), (2, 3), (4, 2), (4, 3)]:
        m = N // 2
        mask = (1,) * m + (0,) * (N - m)
        specs = [random_spec(rng, N, d) for _ in range(500)]
        specs += [_boundary_sequence(rng, N, d) for _ in range(100)]
        for spec in specs:
            total += 1
            dense_status, _, _ = dense_ppt_check(build_state(spec), mask, d)
            fast = is_m_ppt(spec, m).verdict
            moment = is_generalized_moment_solution(spec.p).verdict
            votes = [
                v
                for v in (
                    _verdict_bool(dense_status),
                    _verdict_bool(fast),
                    _verdict_bool(moment),
                )
                if v is not None
            ]
            marginal += 3 - len(votes)
            if len(votes) >= 2:
                comparisons += 1
                assert len(set(votes)) == 1, (spec, dense_status, fast, moment)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"criterion 2: PASS ({total} states, {comparisons} cross-checks, "
        f"{marginal} marginal verdicts excluded, {elapsed:.1f}s)"
    )


def test_criterion_3_odd_qubit_case():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    N, d, m = 3, 2, 1
    separable_count = 0
    for _ in range(300):
        spec = random_spec(rng, N, d)
        fast = is_m_ppt(spec, m).verdict
        moment = is_generalized_moment_solution(spec.p).verdict
        fb, mb = _verdict_bool(fast), _verdict_bool(moment)
        if fb is not None and mb is not None:
            assert fb == mb, spec
        if mb:
            ensemble = separable_ensemble(spec)
            assert ensemble.reconstruction_error < 1e-8, spec
            separable_count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 3: PASS (300 three-qubit states, {separable_count} "
        f"decomposed, {elapsed:.1f}s)"
    )


def test_criterion_4_transpose_block_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    pool = [
        (N, d)
        for N in range(2, 11)
        for d in range(2, 8)
        if d**N <= 1024 and N * (d - 1) >= 2
    ]
    checked_blocks = 0
    for _ in range(100):
        N, d = pool[rng.integers(0, len(pool))]
        m = int(rng.integers(1, N))
        spec = random_spec(rng, N, d)
        supports = offset_supports(N, d, m)
        mask = (1,) * m + (0,) * (N - m)
        pt = partial_transpose(build_state(spec), mask, d)

        # the supports partition the basis, so blocks on them are orthogonal
        np.testing.assert_array_equal(np.sort(np.concatenate(supports)), np.arange(d**N))
        # pt vanishes outside the blocks; block s is hermitian with entries
        # p[a_i + b_j]
        a, b = group_sums(N, d, m)
        p = np.asarray(spec.p)
        outside = np.ones(pt.shape, dtype=bool)
        for idx in supports:
            block = pt[np.ix_(idx, idx)]
            np.testing.assert_array_equal(block, p[a[idx][:, None] + b[idx][None, :]])
            assert np.linalg.norm(block - block.conj().T) < 1e-12
            outside[np.ix_(idx, idx)] = False
            checked_blocks += 1
        assert not pt[outside].any()
    elapsed = time.perf_counter() - started
    print(f"criterion 4: PASS (100 specs, {checked_blocks} blocks checked, {elapsed:.1f}s)")


def test_criterion_5_mask_position_irrelevance():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    masks = [
        mask
        for mask in itertools.product((0, 1), repeat=4)
        if sum(mask) == 2
    ]
    assert len(masks) == 6
    for _ in range(100):
        spec = random_spec(rng, 4, 2)
        rho = build_state(spec)
        results = [dense_ppt_check(rho, mask, 2) for mask in masks]
        statuses = {status for status, _, _ in results}
        assert len(statuses) == 1, (spec, results)
        lam_mins = [lam for _, lam, _ in results]
        assert max(lam_mins) - min(lam_mins) < 1e-12
    elapsed = time.perf_counter() - started
    print(f"criterion 5: PASS (100 four-qubit states x 6 masks, {elapsed:.1f}s)")


def test_criterion_6_witness_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(1000):
        N = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        family = "V" if rng.random() < 0.5 else "U"
        length = family_v_length(N, d) if family == "V" else family_u_length(N, d)
        coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0.0, 1.4)
        W = witness_matrix(WitnessSpec(family, tuple(coeffs), N, d))
        value = np.trace(W @ sigma_z(N, d, z)).real
        assert value >= -1e-10

        c2 = 1.0 / sum(abs(z) ** (2 * i) for i in range(d))
        poly = abs(sum(coeffs[k] * abs(z) ** (2 * k) for k in range(length))) ** 2
        closed = c2**N * poly if family == "V" else c2**N * abs(z) ** 2 * poly
        assert abs(value - closed) <= 1e-9 * max(1.0, abs(closed))

        top_value = np.trace(W @ top_product_state(N, d)).real
        assert top_value >= -1e-10
    elapsed = time.perf_counter() - started
    print(f"criterion 6: PASS (1000 witness evaluations, {elapsed:.1f}s)")


def test_criterion_7_geometric_reconstruction():
    started = time.perf_counter()
    for N, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for t in (0.0, 0.3, 1.0, 2.5):
            ensemble = geometric_ensemble(N, d, t)
            rho = build_state(StateSpec(N, d, geometric_p(N, d, t)))
            err = np.linalg.norm(ensemble_matrix(ensemble) - rho)
            assert err < 1e-10, (N, d, t, err)
    elapsed = time.perf_counter() - started
    print(f"criterion 7: PASS (16 geometric reconstructions, {elapsed:.1f}s)")


def test_criterion_8_moment_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(500):
        r = int(rng.integers(0, 5))
        nodes = np.sort(rng.uniform(0.0, 3.0, r))
        while r > 1 and np.min(np.diff(nodes)) < 0.15:
            nodes = np.sort(rng.uniform(0.0, 3.0, r))
        weights = rng.uniform(0.05, 2.0, r)
        top = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        # the clean moments p_0..p_{n-1} must determine the measure, so the
        # sequence is kept long enough to identify all r atoms
        n = 2 * r + 1 + int(rng.integers(0, 3))
        p = np.zeros(n + 1)
        for t, w in zip(nodes, weights):
            p += w * t ** np.arange(n + 1)
        p[n] += top
        recovered = recover_atomic_measure(p)
        scale = max(float(np.max(p)), 1.0)
        np.testing.assert_allclose(recovered.reproduced(n), p, atol=1e-8 * scale)
        assert len(recovered.atoms) <= r
    elapsed = time.perf_counter() - started
    print(f"criterion 8: PASS (500 measure round trips, {elapsed:.1f}s)")
