"""Hankel-block PPT decisions against the dense partial-transpose oracle."""

import numpy as np
import pytest

from dsym.oracle import dense_ppt_check, partial_transpose
from dsym.ppt import (
    block_decomposition,
    hankel,
    hankel_block,
    hankel_congruence_scales,
    is_m_ppt,
    is_psd,
    worst_status,
)
from dsym.states import StateSpec, build_state

from conftest import PPT_ENTANGLED_P, random_spec


def test_hankel_block_counterexample_matrices(ppt_entangled_spec):
    p = ppt_entangled_spec.p
    b0 = hankel_block(p, 3, 3, 1, 0)
    np.testing.assert_array_equal(
        b0.matrix,
        [[p[0], p[1], p[2]], [p[1], p[2], p[3]], [p[2], p[3], p[4]]],
    )
    b2 = hankel_block(p, 3, 3, 1, 2)
    np.testing.assert_array_equal(
        b2.matrix,
        [[p[2], p[3], p[4]], [p[3], p[4], p[5]], [p[4], p[5], p[6]]],
    )


def test_hankel_block_all_ones():
    p = (1.0,) * 7
    for m in (1, 2):
        for s in range(-m, (3 - m) * 2 + 1):
            block = hankel_block(p, 3, 3, m, s)
            if block.size:
                assert np.all(block.matrix == 1.0)


def test_hankel_block_entries_exact():
    rng = np.random.default_rng(11)
    p = rng.uniform(0, 1, 9)
    for m in (1, 2, 3):
        for s in range(-m * 2, (4 - m) * 2 + 1):
            block = hankel_block(p, 4, 3, m, s)
            for a in range(block.size):
                for b in range(block.size):
                    k, l = block.lo + a, block.lo + b
                    assert block.matrix[a, b] == p[k + l + s]


def test_hankel_block_range_errors():
    with pytest.raises(ValueError):
        hankel_block((1.0,) * 5, 2, 3, 1, 3)
    with pytest.raises(ValueError):
        hankel_block((1.0,) * 5, 2, 3, 2, 0)  # m must be <= N-1


def test_is_psd_examples():
    chk = is_psd(np.eye(3))
    assert chk.status == "psd" and chk.lam_min == pytest.approx(1.0)

    chk = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert chk.status == "not-psd" and chk.lam_min == pytest.approx(-1.0)

    p = PPT_ENTANGLED_P
    h4 = np.array([[p[i + j] for j in range(4)] for i in range(4)])
    assert is_psd(h4).status == "not-psd"


def test_is_psd_vector_margin_strict():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    chk = is_psd(M, vector=True)
    assert chk.vec is not None and is_psd(M).vec is None
    np.testing.assert_allclose(M @ chk.vec, chk.lam_min * chk.vec, atol=1e-14)
    assert np.linalg.norm(chk.vec) == pytest.approx(1.0)
    assert chk == is_psd(M)  # the eigenvector is left out of ==
    assert chk.margin == chk.lam_min + chk.band and chk.strict
    assert not is_psd(np.diag([1.0, 0.0])).strict
    assert is_psd(np.zeros((0, 0)), vector=True).margin is None


def test_hankel_windows():
    p = np.arange(7.0)
    np.testing.assert_array_equal(hankel(p, 3, 1), [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert hankel(p, 0, 0).shape == (0, 0)


def test_worst_status():
    assert worst_status([]) == "psd"
    assert worst_status(["psd", "marginal", "psd"]) == "marginal"
    assert worst_status(["marginal", "not-psd"]) == "not-psd"


def test_is_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_is_psd_empty_matrix():
    chk = is_psd(np.zeros((0, 0)))
    assert chk.status == "psd" and chk.lam_min is None


def test_is_psd_marginal_band():
    # decisively inside the tolerance band but too negative to be rounding
    M = np.diag([1.0, -3e-11])
    assert is_psd(M, tol_rel=1e-10).status == "marginal"
    assert is_psd(np.diag([1.0, -1e-13]), tol_rel=1e-10).status == "psd"
    assert is_psd(np.diag([1.0, -1e-9]), tol_rel=1e-10).status == "not-psd"


def test_counterexample_is_1_ppt(ppt_entangled_spec):
    report = is_m_ppt(ppt_entangled_spec, 1)
    assert report.verdict == "ppt"
    assert report.checked == (0, 1, 2)
    assert all(b.lam_min > 0 for b in report.blocks)


def test_is_m_ppt_simple_example():
    report = is_m_ppt(StateSpec(2, 2, (1.0, 0.0, 1.0)), 1)
    assert report.verdict == "ppt"
    # blocks are [[1,0],[0,1]] and [0]
    assert report.blocks[0].lam_min == pytest.approx(1.0)
    assert report.blocks[1].lam_min == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3)])
def test_geometric_sequences_are_ppt(N, d):
    p = tuple(0.5**k for k in range(N * (d - 1) + 1))
    report = is_m_ppt(StateSpec(N, d, p), N // 2)
    assert report.verdict == "ppt"


def test_is_m_ppt_marginal_verdict():
    # boundary geometric state nudged just inside the tolerance band
    p = [1.0, 0.5, 0.25]
    p[2] -= 3e-11
    report = is_m_ppt(StateSpec(2, 2, tuple(p)), 1)
    assert report.verdict == "marginal"
    assert report.blocks[0].status == "marginal"


def test_is_m_ppt_m_out_of_range():
    spec = StateSpec(3, 2, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        is_m_ppt(spec, 0)
    with pytest.raises(ValueError):
        is_m_ppt(spec, 2)


def test_block_decomposition_hand_expanded():
    spec = StateSpec(2, 2, (1.0, 1.0, 1.0))
    blocks = block_decomposition(spec, 1)
    # s runs over -1, 0, 1; the s=-1 block is the single term |10><10|
    a_minus = blocks[0]
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0
    np.testing.assert_allclose(a_minus, expected)


def test_block_sum_equals_partial_transpose():
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = random_spec(rng, 2, 3)
        blocks = block_decomposition(spec, 1)
        pt = partial_transpose(build_state(spec), (1, 0), 3)
        assert np.linalg.norm(sum(blocks) - pt) < 1e-12


def test_blocks_mutually_orthogonal():
    spec = StateSpec(3, 2, (1.0, 1.0, 1.0, 1.0))
    blocks = block_decomposition(spec, 1)
    for i, a in enumerate(blocks):
        assert np.linalg.norm(a - a.conj().T) < 1e-14  # hermitian
        for j, b in enumerate(blocks):
            if i != j:
                assert np.abs(a @ b).max() == 0.0


def test_block_eigenvalue_signs_match_hankel():
    # the dense block is a positive congruence of the Hankel block
    rng = np.random.default_rng(13)
    spec = random_spec(rng, 3, 3)
    blocks = block_decomposition(spec, 1)
    for s, dense in zip(range(-2, 5), blocks):
        hb = hankel_block(spec.p, 3, 3, 1, s)
        scales = hankel_congruence_scales(3, 3, 1, s)
        D = np.diag(np.sqrt(scales))
        expected = D @ hb.matrix @ D
        ev_dense = np.linalg.eigvalsh(dense)
        nonzero = ev_dense[np.abs(ev_dense) > 1e-12]
        ev_small = np.sort(np.linalg.eigvalsh(expected))
        ev_small = ev_small[np.abs(ev_small) > 1e-12]
        np.testing.assert_allclose(np.sort(nonzero), ev_small, atol=1e-10)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (5, 3)])
def test_fast_verdict_matches_dense_oracle(N, d):
    if d**N > 4096:
        pytest.skip("over dense cap")
    rng = np.random.default_rng(20 + N + d)
    for _ in range(40):
        spec = random_spec(rng, N, d)
        for m in range(1, N // 2 + 1):
            fast = is_m_ppt(spec, m)
            if fast.verdict == "marginal":
                continue
            mask = (1,) * m + (0,) * (N - m)
            status, _, _ = dense_ppt_check(build_state(spec), mask, d)
            assert (fast.verdict == "ppt") == (status == "psd"), (spec, m)


def test_submatrix_monotonicity_for_even_split():
    # when the s=0 and s=1 blocks are PSD, every other block is too;
    # atomic-measure moments are PSD-feasible by construction
    rng = np.random.default_rng(14)
    N, d, m = 4, 3, 2
    for _ in range(25):
        r = int(rng.integers(1, 4))
        nodes = rng.uniform(0.0, 1.5, r)
        weights = rng.uniform(0.1, 1.0, r)
        p = tuple(
            float(np.sum(weights * nodes**k)) for k in range(N * (d - 1) + 1)
        )
        spec = StateSpec(N, d, p)
        assert is_m_ppt(spec, m).verdict == "ppt"
        for s in range(-m * (d - 1), (N - m) * (d - 1) + 1):
            block = hankel_block(spec.p, N, d, m, s)
            assert is_psd(block.matrix).status == "psd"
