"""Dense partial transposes, permutation operators, and symmetry checks."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsym import oracle
from dsym.oracle import (
    _extreme_eigenvalues,
    dense_ppt_check,
    ensemble_matrix,
    partial_transpose,
)
from dsym.ppt import DEFAULT_PSD_TOL, PsdCheck, is_m_ppt
from dsym.states import StateSpec, build_state, digit_sum_rows

from conftest import DENSE_VERIFY_MIX, group_sums, random_spec
from paper_objects import check_d_symmetry, offset_supports, permutation_operator, sigma_z


def basis_matrix_unit(i, j, dim):
    E = np.zeros((dim, dim), dtype=complex)
    E[i, j] = 1.0
    return E


def test_partial_transpose_moves_digit_pairs():
    # |01><10| with the first party transposed becomes |11><00|
    rho = basis_matrix_unit(0b01, 0b10, 4)
    pt = partial_transpose(rho, (1, 0), 2)
    expected = basis_matrix_unit(0b11, 0b00, 4)
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
    out = F @ np.eye(4)[0b01]
    assert out[0b10] == 1.0 and np.count_nonzero(out) == 1


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
    # only the number of transposed parties matters, so masks of equal
    # weight give one verdict and one minimum eigenvalue
    rng = np.random.default_rng(55)
    cases = [(random_spec(rng, 3, 2), (1, 0, 0), (0, 0, 1)) for _ in range(50)]
    spec = random_spec(rng, 4, 2)
    cases += [(spec, (1, 1, 0, 0), (0, 1, 0, 1)), (spec, (1, 0, 0, 0), (1, 0, 0, 0))]
    for spec, mask_a, mask_b in cases:
        rho = build_state(spec)
        status_a, lam_a, _ = dense_ppt_check(rho, mask_a, spec.d)
        status_b, lam_b, _ = dense_ppt_check(rho, mask_b, spec.d)
        assert status_a == status_b and abs(lam_a - lam_b) < 1e-12
    assert lam_a == lam_b  # the last case is one mask twice


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
    assert _extreme_eigenvalues(np.eye(3))[0] == pytest.approx(1.0)
    flip = np.zeros((4, 4), dtype=complex)
    flip[1, 2] = 1.0
    flip[2, 1] = 1.0
    assert _extreme_eigenvalues(flip)[0] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        _extreme_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
                # the offset blocks p[a_i + b_j] on their supports sum to pt
                a, b = group_sums(N, d, m)
                blocks = np.zeros((d**N, d**N))
                for idx in offset_supports(N, d, m):
                    blocks[np.ix_(idx, idx)] = np.asarray(spec.p)[a[idx][:, None] + b[idx][None, :]]
                mask = (1,) * m + (0,) * (N - m)
                pt = partial_transpose(build_state(spec), mask, d)
                assert np.linalg.norm(blocks - pt) < 1e-12


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
    rho = ensemble_matrix(ens)
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
        seen.append((np.asarray(a).dtype, np.shape(a)[-1]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rho = build_state(ppt_entangled_spec)
    dense_ppt_check(rho, (1, 0, 0), 3)
    real, seen[:] = seen[:], []
    dense_ppt_check(rho.astype(complex), (1, 0, 0), 3)
    assert real and seen
    assert {dtype for dtype, _ in real} == {np.dtype(np.float64)}
    assert {dtype for dtype, _ in seen} == {np.dtype(np.complex128)}
    # one eigensolve per check, on the quotient by equal rows: row i
    # depends only on its digit sums (a_i, b_i), so (w(d - 1) + 1)
    # ((N - w)(d - 1) + 1) = 3 * 5 = 15 rows, never the 27 x 27 matrix
    assert min(ppt_entangled_spec.p) > 0
    assert [rows for _, rows in real] == [rows for _, rows in seen] == [15]


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


def test_complex_rows_hash_into_the_real_rows_classes(monkeypatch):
    # a complex row is hashed as its float view, so the complex copy of a
    # state splits into the same classes: the one eigensolve gets the same
    # quotient, in complex arithmetic, and the extremes agree to rounding
    rng = np.random.default_rng(86)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for d, N in DENSE_VERIFY_MIX:
        p = rng.uniform(0.0, 1.0, N * (d - 1) + 1)
        p[rng.choice(len(p), size=len(p) // 3, replace=False)] = 0.0
        rho = build_state(StateSpec(N, d, tuple(p)))
        mask = tuple(int(b) for b in rng.integers(0, 2, N))
        for extremes in (_extreme_eigenvalues, lambda M: dense_ppt_check(M, mask, d)[1:]):
            seen.clear()
            real, cplx = extremes(rho), extremes(rho.astype(complex))
            quotient, complex_quotient = seen
            assert quotient.dtype == np.float64 and complex_quotient.dtype == np.complex128
            np.testing.assert_array_equal(complex_quotient, quotient)
            scale = max(1.0, abs(real[1]))
            assert abs(real[0] - cplx[0]) <= 1e-12 * scale
            assert abs(real[1] - cplx[1]) <= 1e-12 * scale


def _planted(rng, sizes, dtype):
    """A Hermitian matrix that is the direct sum of random blocks of the given
    sizes under a random permutation, with the blocks' index sets.  A block
    of size 0 stands for an all-zero row; a negative size -k is a connected
    but sparse (tridiagonal) block of k rows."""
    n = sum(max(1, abs(k)) for k in sizes)
    perm = rng.permutation(n)
    M = np.zeros((n, n), dtype=dtype)
    planted = set()
    start = 0
    for k in sizes:
        rows = perm[start : start + max(1, abs(k))]
        start += len(rows)
        planted.add(frozenset(rows.tolist()))
        if k == 0:
            continue
        B = rng.normal(size=(len(rows),) * 2)
        if dtype == complex:
            B = B + 1j * rng.normal(size=B.shape)
        if k < 0:
            B = np.triu(np.tril(B, 1), -1)
        M[np.ix_(rows, rows)] = (B + B.conj().T) / 2
    return M, planted


def _assert_extremes_match(ev, lam_min, lam_max):
    """The ends of a full ascending spectrum, to 1e-12 * max(1, |lam_max|)."""
    scale = max(1.0, abs(float(ev[-1])))
    assert abs(lam_min - ev[0]) <= 1e-12 * scale
    assert abs(lam_max - ev[-1]) <= 1e-12 * scale


@pytest.mark.parametrize("dtype", [float, complex])
def test_split_spectrum_matches_full_eigvalsh_on_planted_blocks(dtype):
    rng = np.random.default_rng(80)
    for _ in range(40):
        sizes = rng.choice([0, 1, 1, 2, 3, 5, 8, -4, -9], size=int(rng.integers(1, 9)))
        M, _ = _planted(rng, sizes, dtype)
        _assert_extremes_match(np.linalg.eigvalsh(M), *_extreme_eigenvalues(M))


def test_split_spectrum_edge_cases():
    for M in ([[2.5]], [[0.0]], [[-1.0 + 0j]], np.zeros((5, 5)), np.diag([3.0, -1.0, 0.0])):
        M = np.asarray(M)
        _assert_extremes_match(np.linalg.eigvalsh(M), *_extreme_eigenvalues(M))
    assert _extreme_eigenvalues(np.zeros((5, 5))) == (0.0, 0.0)
    with pytest.raises(ValueError):
        _extreme_eigenvalues(np.ones((2, 3)))
    for M in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex)):
        with pytest.raises(ValueError, match="matrix is empty"):
            _extreme_eigenvalues(M)


def test_dense_ppt_check_rejects_non_hermitian_input(ppt_entangled_spec):
    rho = build_state(ppt_entangled_spec)
    # |000><222| has no partner in the state, and its mirror stays zero
    # under every partial transpose; the lower triangle alone hides it
    assert rho[0, 26] == rho[26, 0] == 0.0
    for i, j in [(0, 26), (26, 0)]:
        bad = rho.copy()
        bad[i, j] = 1e-6
        for mask in [(1, 0, 0), (0, 1, 1)]:
            with pytest.raises(ValueError, match="Hermitian"):
                dense_ppt_check(bad, mask, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            _extreme_eigenvalues(bad)
    bad = rho.astype(complex)
    bad[5, 5] += 1e-6j
    with pytest.raises(ValueError, match="Hermitian"):
        dense_ppt_check(bad, (1, 0, 0), 3)
    # the test is relative to the largest entry: asymmetric by 1.0 of it,
    # though under 1e-12 in absolute terms, fails; rounding passes at any scale
    with pytest.raises(ValueError, match="Hermitian"):
        _extreme_eigenvalues(np.array([[1e-20, 1e-15], [0.0, 1e-20]]))
    for scale in (1.0, 1e6, 1e-20):
        near = scale * rho
        near[0, 26] = 1e-14 * scale
        assert dense_ppt_check(near, (1, 0, 0), 3)[0] == "psd"


def test_one_sided_entry_joins_its_two_indices():
    for i, j in [(2, 0), (0, 2)]:
        M = np.diag([1.0, 2.0, 3.0])
        M[i, j] = 1e-14
        assert _extreme_eigenvalues(M) == pytest.approx((1.0, 3.0), abs=1e-12)


def test_dense_ppt_check_matches_full_spectrum_on_dense_verify_mix():
    rng = np.random.default_rng(81)
    for d, N in DENSE_VERIFY_MIX:
        p = rng.uniform(0.0, 1.0, N * (d - 1) + 1)
        with_zeros = p.copy()
        with_zeros[rng.choice(len(p), size=len(p) // 3, replace=False)] = 0.0
        w = int(rng.integers(1, N // 2 + 1))
        prefix = (1,) * w + (0,) * (N - w)
        shuffled = tuple(int(b) for b in rng.permutation(prefix))
        for q in (p, with_zeros):
            rho = build_state(StateSpec(N, d, tuple(q)))
            for mask in (prefix, shuffled):
                ev = np.linalg.eigvalsh(partial_transpose(rho, mask, d))
                status, lam_min, lam_max = dense_ppt_check(rho, mask, d)
                full = PsdCheck.from_extremes(float(ev[0]), float(ev[-1]), 1e-10)
                assert status == full.status, (d, N, q, mask)
                _assert_extremes_match(ev, lam_min, lam_max)


def _spy_eigvalsh_rows(monkeypatch):
    """Record the row count of every eigvalsh call from now on."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        rows.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return rows


def test_dense_ppt_check_eigensolves_quotients_on_dense_verify_mix(monkeypatch):
    # row i of the partial transpose depends only on the digit sums
    # (a_i, b_i) of the transposed and the kept parties, so the one
    # eigensolve has at most (w(d - 1) + 1)((N - w)(d - 1) + 1) rows; with
    # every p_k > 0 (and p random) the distinct pairs give distinct rows
    rng = np.random.default_rng(83)
    rows = _spy_eigvalsh_rows(monkeypatch)
    for d, N in DENSE_VERIFY_MIX:
        p = rng.uniform(0.0, 1.0, N * (d - 1) + 1)
        with_zeros = p.copy()
        with_zeros[rng.choice(len(p), size=len(p) // 3, replace=False)] = 0.0
        for q in (p, with_zeros):
            rho = build_state(StateSpec(N, d, tuple(q)))
            for w in range(1, N // 2 + 1):
                prefix = (1,) * w + (0,) * (N - w)
                for mask in (prefix, tuple(int(b) for b in rng.permutation(prefix))):
                    rows.clear()
                    dense_ppt_check(rho, mask, d)
                    pairs = (w * (d - 1) + 1) * ((N - w) * (d - 1) + 1)
                    assert len(rows) == 1 and rows[0] <= pairs, (d, N, mask)
                    if q is p:
                        assert rows == [pairs], (d, N, mask)


def _quotient_planted(rng, classes, dtype):
    """A Hermitian matrix that is the direct sum, under a random permutation,
    of blocks S^T A S: A is a random Hermitian matrix with one row per
    class, some of its entries zero, and S repeats row c of A classes[i][c]
    times.  The first class of each block is a zero row and column of A, so
    its copies are zero rows of the whole matrix.  The last copy of each
    repeated class gets -0.0 where its classmates have 0.0: equal in value,
    unequal in bits."""
    blocks = []
    for sizes in classes:
        A = rng.normal(size=(len(sizes),) * 2)
        if dtype == complex:
            A = A + 1j * rng.normal(size=A.shape)
        A[rng.random(A.shape) < 0.3] = 0.0
        A = np.triu(A, 1) + np.triu(A, 1).conj().T + np.diag(A.diagonal().real)
        A[0, :] = A[:, 0] = 0.0
        member = np.repeat(np.arange(len(sizes)), sizes)
        B = A[np.ix_(member, member)].astype(dtype)
        for c in np.flatnonzero(np.asarray(sizes) > 1):
            i = np.flatnonzero(member == c)[-1]
            B[i, B[i] == 0] = -0.0
        blocks.append(B)
    n = sum(map(len, blocks))
    M = np.zeros((n, n), dtype=dtype)
    start = 0
    for B in blocks:
        M[start : start + len(B), start : start + len(B)] = B
        start += len(B)
    perm = rng.permutation(n)
    return M[np.ix_(perm, perm)]


@pytest.mark.parametrize("dtype", [float, complex])
def test_quotient_spectrum_matches_full_eigvalsh_on_planted_classes(monkeypatch, dtype):
    rng = np.random.default_rng(84)
    rows = _spy_eigvalsh_rows(monkeypatch)
    for _ in range(40):
        classes = [
            [int(k) for k in rng.choice([1, 1, 2, 3, 6], size=int(rng.integers(1, 7)))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        # and one block with no duplicated row
        classes.append([1] * int(rng.integers(1, 5)))
        M = _quotient_planted(rng, classes, dtype)
        assert abs(M - M.conj().T).max() == 0
        ev = np.linalg.eigvalsh(M)
        rows.clear()
        _assert_extremes_match(ev, *_extreme_eigenvalues(M))
        # one eigensolve with one row per distinct row value: the -0.0
        # copies join their classes, and the zero rows of every block merge
        distinct = {tuple(row) for row in M.tolist()}
        assert rows == [len(distinct)]
        assert len(distinct) <= sum(map(len, classes))


def test_quotient_spectrum_gains_the_null_vectors_zero():
    # rows 0 and 1 are equal: e_0 - e_1 is a null vector of a matrix whose
    # quotient [[4, 2 sqrt 2], [2 sqrt 2, 3]] has no zero eigenvalue
    M = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 3.0]])
    lam_min, lam_max = _extreme_eigenvalues(M)
    assert lam_min == 0.0
    _assert_extremes_match(np.linalg.eigvalsh(M), lam_min, lam_max)
    assert _extreme_eigenvalues(-M) == (-lam_max, 0.0)
    assert _extreme_eigenvalues(np.ones((4, 4))) == pytest.approx((0.0, 4.0), abs=1e-12)


def test_equal_rows_with_unequal_columns_are_not_hermitian(ppt_entangled_spec):
    # the quotient by equal rows is Hermitian in both cases; only the
    # columns of the distinct rows, split within a class, show the asymmetry
    with pytest.raises(ValueError, match="not Hermitian"):
        _extreme_eigenvalues(np.array([[1.0, 2.0], [1.0, 2.0]]))
    pt = partial_transpose(build_state(ppt_entangled_spec), (1, 0, 0), 3)
    assert (pt[0] != pt[1]).any()
    pt[1] = pt[0]
    with pytest.raises(ValueError, match="not Hermitian"):
        _extreme_eigenvalues(pt)


@pytest.fixture
def one_hash(monkeypatch):
    """A zero probe: every finite row hashes to 0, so every row has row 0 as
    its candidate, and a row unlike it stays a class of its own."""
    monkeypatch.setattr(oracle, "_probe", lambda n: np.zeros(n))


@pytest.mark.parametrize("dtype", [float, complex])
def test_colliding_hashes_keep_the_quotient_exact(one_hash, monkeypatch, dtype):
    rng = np.random.default_rng(85)
    rows = _spy_eigvalsh_rows(monkeypatch)
    matrices = [
        _quotient_planted(rng, [[int(k) for k in rng.choice([1, 2, 3, 6], size=4)]] * 3, dtype)
        for _ in range(10)
    ]
    for d, N in DENSE_VERIFY_MIX:
        if d**N <= 256:
            spec = random_spec(rng, N, d)
            pt = partial_transpose(build_state(spec), (1,) * (N // 2) + (0,) * (N - N // 2), d)
            matrices.append(pt.astype(dtype))
    for M in matrices:
        ev = np.linalg.eigvalsh(M)
        rows.clear()
        _assert_extremes_match(ev, *_extreme_eigenvalues(M))
        # the copies of row 0 (in value) merge, every other row stays apart
        assert rows == [len(M) - int((M == M[0]).all(axis=1).sum()) + 1]


def test_colliding_hashes_still_reject_bad_input(one_hash, ppt_entangled_spec):
    rho = build_state(ppt_entangled_spec)
    for bad in (np.nan, np.inf):
        bad_rho = rho.copy()
        bad_rho[4, 12] = bad_rho[12, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dense_ppt_check(bad_rho, (1, 0, 0), 3)
    with pytest.raises(ValueError, match="not Hermitian"):
        _extreme_eigenvalues(np.array([[1.0, 2.0], [1.0, 2.0]]))
    bad_rho = rho.copy()
    bad_rho[0, 26] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_ppt_check(bad_rho, (0, 1, 1), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad, ppt_entangled_spec):
    # in the last two, the largest finite entry comes before the bad one
    later = [[1e3, 1, 0, 0, 0], [1, 1e3, 0, 0, 0], [0, 0, 1, bad, 0], [0, 0, bad, 1, 1], [0, 0, 0, 1, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (
            [[1.0, bad], [bad, 1.0]],
            [[bad]],
            [[1.0, 0.0], [0.0, bad]],
            [[1.0, complex(0.0, bad)], [complex(0.0, -bad), 1.0]],
            later,
            np.array(later, dtype=complex),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                _extreme_eigenvalues(np.array(M))
        rho = build_state(ppt_entangled_spec)
        for i, j in [(0, 0), (4, 12), (0, 26)]:
            bad_rho = rho.copy()
            bad_rho[i, j] = bad_rho[j, i] = bad
            for mask in [(1, 0, 0), (0, 1, 1)]:
                with pytest.raises(ValueError, match="non-finite"):
                    dense_ppt_check(bad_rho, mask, 3)
            bad_rho = rho.astype(complex)
            bad_rho[i, j] = complex(bad, 0.0)
            with pytest.raises(ValueError, match="non-finite"):
                dense_ppt_check(bad_rho, (1, 0, 0), 3)


def test_extreme_eigenvalues_of_non_contiguous_matrices():
    # the row hash is taken on a C-contiguous copy of a non-contiguous M, so
    # every layout of one matrix gives the same extremes
    rng = np.random.default_rng(84)
    rho = build_state(random_spec(rng, 5, 3))
    pt = partial_transpose(rho, (1, 0, 1, 0, 0), 3)
    planted, _ = _planted(rng, [3, 0, 5, -6, 2, 1], complex)
    for M in (pt, planted):
        expected = _extreme_eigenvalues(M)
        for layout in (np.asfortranarray(M), np.kron(M, np.ones((2, 2)))[::2, ::2]):
            assert not layout.flags.c_contiguous
            np.testing.assert_array_equal(layout, M)
            assert _extreme_eigenvalues(layout) == expected
        # M.T is the transpose itself: real symmetric, or the conjugate
        # matrix, whose spectrum is the same
        transpose = _extreme_eigenvalues(M.T)
        assert transpose == _extreme_eigenvalues(np.ascontiguousarray(M.T))
        _assert_extremes_match(np.linalg.eigvalsh(M), *transpose)
    assert _extreme_eigenvalues(pt.T) == _extreme_eigenvalues(pt)


def test_integer_and_single_precision_inputs_are_solved_in_double():
    # the quotient, scaled by the class sizes in place, has the dtype of a
    # float64 scaling, as the same matrix cast to double precision gives
    rng = np.random.default_rng(90)
    real = _quotient_planted(rng, [[1, 2, 3, 1], [1, 6, 2]], float)
    cplx = _quotient_planted(rng, [[1, 3, 2], [1, 1, 6, 2]], complex)
    integer = np.rint(real * 8).astype(np.int64)
    for M in (integer, real.astype(np.float32), cplx.astype(np.complex64)):
        double = M.astype(np.result_type(M, np.float64))
        assert _extreme_eigenvalues(M) == _extreme_eigenvalues(double)
        assert dense_ppt_check(M, (1, 0, 1, 0), 2) == dense_ppt_check(double, (1, 0, 1, 0), 2)


@pytest.mark.parametrize("d,N", [(2, 10), (4, 5)])
def test_dense_ppt_check_allocates_less_than_half_the_state(d, N):
    # the partial transpose is read off the state through the mask and
    # never built: no d^N x d^N array, and no slice of one past 2^16 entries
    rho = build_state(random_spec(np.random.default_rng(87), N, d))
    prefix = (1,) * (N // 2) + (0,) * (N - N // 2)
    interleaved = tuple(k % 2 for k in range(1, N + 1))
    for mask in (prefix, interleaved):
        tracemalloc.start()
        try:
            dense_ppt_check(rho, mask, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rho.nbytes / 2, (d, N, mask, peak)


@pytest.mark.parametrize("dtype, bound", [(float, 2.5), (complex, 2.0)])
def test_matrices_without_equal_rows_allocate_little_beside_them(dtype, bound):
    # every row is its own class, so the quotient is the whole matrix or its
    # partial transpose: one gather through one flat index, scaled in place,
    # with the Hermitian test in small slices (a gather through two index
    # arrays and a scaled copy peaked at 3.2x real and 4.1x complex)
    rng = np.random.default_rng(88)
    V = rng.standard_normal((256, 8)).astype(dtype)
    if dtype is complex:
        V += 1j * rng.standard_normal((256, 8))
    M = V @ V.conj().T
    interleaved = (1, 0) * 4
    assert len(np.unique(M, axis=0)) == len(M)
    checks = [
        (lambda: _extreme_eigenvalues(M), M),
        (lambda: dense_ppt_check(M, interleaved, 2)[1:], partial_transpose(M, interleaved, 2)),
    ]
    for extremes, reference in checks:
        _assert_extremes_match(np.linalg.eigvalsh(reference), *extremes())
        tracemalloc.start()
        try:
            extremes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * M.nbytes, (dtype, peak / M.nbytes)


def test_dense_ppt_check_rejects_a_malformed_row_map(ppt_entangled_spec):
    rows, sums = digit_sum_rows(3, 3, ppt_entangled_spec.p)
    mask = (1, 0, 0)
    expected = dense_ppt_check(build_state(ppt_entangled_spec), mask, 3)
    assert dense_ppt_check(rows, mask, 3, DEFAULT_PSD_TOL, sums) == expected
    assert dense_ppt_check(rows, mask, 3, DEFAULT_PSD_TOL, sums.tolist()) == expected
    malformed = {
        "short": sums[:-1],
        "long": np.append(sums, 0),
        "past the rows": np.where(sums == 6, 7, sums),
        "negative": np.where(sums == 0, -1, sums),
        "float": sums.astype(float),
        "bool": sums > 2,
        "2-d": sums[None, :],
    }
    for name, row_of in malformed.items():
        with pytest.raises(ValueError):
            dense_ppt_check(rows, mask, 3, DEFAULT_PSD_TOL, row_of)
            pytest.fail(name)
    with pytest.raises(ValueError, match="not \\(d\\*\\*N, d\\*\\*N\\)"):
        dense_ppt_check(rows[:, :9], mask, 3, DEFAULT_PSD_TOL, sums)


# Metamorphic relations of the partial transpose, on small D-symmetric states
# (zeros in p included) and on planted quotient matrices.

SMALL = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 5), (2, 6), (3, 4), (4, 3)]
ORACLE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def small_specs(draw):
    """A D-symmetric state with d^N <= 81, some of whose p_k may be zero."""
    d, N = draw(st.sampled_from(SMALL))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e6))
    p = draw(st.lists(entry, min_size=N * (d - 1) + 1, max_size=N * (d - 1) + 1))
    return StateSpec(N, d, tuple(p))


@st.composite
def states_and_masks(draw):
    """A dense D-symmetric state, some of whose p_k may be zero, with d and a
    0/1 mask of its N parties."""
    spec = draw(small_specs())
    mask = draw(st.lists(st.integers(0, 1), min_size=spec.N, max_size=spec.N))
    return build_state(spec), spec.d, tuple(mask)


@ORACLE_SETTINGS
@given(small_specs(), st.data())
def test_distinct_rows_and_row_map_check_as_the_dense_state(spec, data):
    # the state given as its distinct rows and digit sums is the same
    # matrix, so the same classes, quotient and extremes, bit for bit
    N, d = spec.N, spec.d
    w = data.draw(st.integers(0, N))
    start = data.draw(st.integers(0, 1))
    mask = data.draw(
        st.sampled_from([(1,) * w + (0,) * (N - w), tuple((k + start) % 2 for k in range(N))])
    )
    tol = data.draw(st.sampled_from([DEFAULT_PSD_TOL, 1e-6]))
    rows, sums = digit_sum_rows(N, d, spec.p)
    factored = dense_ppt_check(rows, mask, d, tol, sums)
    assert repr(factored) == repr(dense_ppt_check(build_state(spec), mask, d, tol))


@ORACLE_SETTINGS
@given(states_and_masks())
def test_complement_mask_gives_identical_extremes(case):
    # PT_notA(rho) = PT_A(rho)^T, and a real symmetric PT_A(rho) is its own
    # transpose: one matrix, so one quotient and bit-identical extremes
    rho, d, mask = case
    complement = tuple(1 - b for b in mask)
    assert dense_ppt_check(rho, complement, d) == dense_ppt_check(rho, mask, d)


@ORACLE_SETTINGS
@given(states_and_masks(), st.randoms(use_true_random=False))
def test_party_permuted_mask_gives_the_same_extremes(case, random):
    # a D-symmetric state commutes with every party permutation, so the
    # permuted mask's partial transpose is a conjugate of the first one
    rho, d, mask = case
    permuted = tuple(random.sample(mask, len(mask)))
    _, lam_min, lam_max = dense_ppt_check(rho, mask, d)
    _, perm_min, perm_max = dense_ppt_check(rho, permuted, d)
    scale = max(1.0, abs(lam_max))
    assert abs(perm_min - lam_min) <= 1e-12 * scale
    assert abs(perm_max - lam_max) <= 1e-12 * scale


@ORACLE_SETTINGS
@given(states_and_masks())
def test_extremes_match_the_full_spectrum_of_the_built_transpose(case):
    rho, d, mask = case
    ev = np.linalg.eigvalsh(partial_transpose(rho, mask, d))
    _assert_extremes_match(ev, *dense_ppt_check(rho, mask, d)[1:])


@st.composite
def planted_and_masks(draw):
    """A planted S^T A S matrix of d^N rows (``_quotient_planted``: zero rows,
    -0.0 copies), real or complex, with d and a 0/1 mask."""
    d, N = draw(st.sampled_from(SMALL))
    dtype = draw(st.sampled_from([float, complex]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # class sizes summing to d^N, four classes to a block
    sizes = rng.choice([1, 1, 2, 3, 6], size=d**N)
    cut = int(np.searchsorted(sizes.cumsum(), d**N))
    sizes = sizes[: cut + 1]
    sizes[-1] -= sizes.sum() - d**N
    classes = [sizes[i : i + 4].tolist() for i in range(0, len(sizes), 4)]
    mask = draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    return _quotient_planted(rng, classes, dtype), d, tuple(mask)


@ORACLE_SETTINGS
@given(planted_and_masks())
def test_planted_quotients_match_the_full_spectrum_under_every_mask(case):
    M, d, mask = case
    ev = np.linalg.eigvalsh(partial_transpose(M, mask, d))
    _assert_extremes_match(ev, *dense_ppt_check(M, mask, d)[1:])


@ORACLE_SETTINGS
@given(planted_and_masks())
def test_planted_matrices_given_by_distinct_rows_check_as_built(case):
    # any order of the distinct rows and any row map that rebuilds the
    # matrix: the classes are named by their first index, not by a row.
    # np.unique takes -0.0 for 0.0, so the rebuilt matrix, not M, is the
    # bitwise reference (the eigensolver sees the signs of zeros)
    M, d, mask = case
    rows, row_of = np.unique(M, axis=0, return_inverse=True)
    np.testing.assert_array_equal(rows[row_of], M)
    factored = dense_ppt_check(rows[::-1], mask, d, DEFAULT_PSD_TOL, len(rows) - 1 - row_of)
    assert repr(factored) == repr(dense_ppt_check(rows[row_of], mask, d))


@ORACLE_SETTINGS
@given(states_and_masks(), st.integers(0, 2**32 - 1))
def test_hermitian_only_inside_the_band_is_accepted_past_it_rejected(case, seed):
    # one entry without its mirror: off by 1e-14 of the largest entry the
    # input is Hermitian inside the 1e-12 band and checked as it stands,
    # off by 1e-9 of it the input is rejected
    rho, d, mask = case
    scale = abs(rho).max()
    if scale == 0.0:
        return
    rng = np.random.default_rng(seed)
    i, j = (int(k) for k in rng.integers(0, len(rho), 2))
    if i == j:
        j = (i + 1) % len(rho)
    near = rho.copy()
    near[i, j] += 1e-14 * scale
    ev = np.linalg.eigvalsh(partial_transpose(near, mask, d))
    _assert_extremes_match(ev, *dense_ppt_check(near, mask, d)[1:])
    far = rho.copy()
    far[i, j] += 1e-9 * scale
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_ppt_check(far, mask, d)
