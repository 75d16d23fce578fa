"""Hankel-block PPT decisions against the dense partial-transpose oracle."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from dsym import ppt
from dsym.oracle import dense_ppt_check, partial_transpose
from dsym.ppt import (
    STACK_BYTES,
    PsdCheck,
    hankel,
    is_m_ppt,
    is_psd,
    worst_status,
)
from dsym.states import StateSpec, build_state, composition_counts

from conftest import PPT_ENTANGLED_P, block_checks, group_sums, random_spec
from paper_objects import offset_supports


def hankel_block(p, N, d, m, s):
    """Reference Hankel block P_s = (p[k + l + s]) over the rows k of block s,
    built alone so that it stays independent of `is_m_ppt`'s stacking."""
    lo, hi = max(0, -s), min(m * (d - 1), (N - m) * (d - 1) - s)
    idx = np.arange(lo, hi + 1)
    return np.asarray(p, dtype=float)[idx[:, None] + idx[None, :] + s]


def test_hankel_block_counterexample_matrices(ppt_entangled_spec):
    # the three blocks of the 1-PPT check, written out by hand
    p = ppt_entangled_spec.p
    blocks = [[[p[i + j + s] for j in range(3)] for i in range(3)] for s in range(3)]
    report = is_m_ppt(ppt_entangled_spec, 1)
    assert report.size == (3, 3, 3)
    for lam_min, lam_max, block in zip(report.lam_min, report.lam_max, blocks):
        ev = np.linalg.eigvalsh(block)
        assert (lam_min, lam_max) == (ev[0], ev[-1])


def test_hankel_block_all_ones():
    # every block of the all-ones sequence is the all-ones matrix: rank one
    # with eigenvalues 0 and its size
    for N, d in [(3, 3), (4, 3), (5, 2)]:
        for m in range(1, N // 2 + 1):
            report = is_m_ppt(StateSpec(N, d, (1.0,) * (N * (d - 1) + 1)), m)
            for size, check in zip(report.size, block_checks(report)):
                assert check.status == "psd"
                assert check.lam_max == pytest.approx(size)
                assert check.lam_min == pytest.approx(0.0, abs=1e-12 * size)


def test_hankel_block_entries_exact(monkeypatch):
    # the matrices is_m_ppt decides are the reference blocks, entry for entry;
    # a failing check decides the blocks up to its first failing stack and
    # skips the rest, a PSD one decides every block
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        stacks.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    rng = np.random.default_rng(11)
    for p in (rng.uniform(0, 1, 9), 0.7 ** np.arange(9) + 0.2 * 1.3 ** np.arange(9)):
        for m in (1, 2):
            stacks.clear()
            report = is_m_ppt(StateSpec(4, 3, tuple(p)), m)
            decided = [matrix for stack in stacks for matrix in stack]
            kept = [st for st in report.status if st != "skipped"]
            assert report.status[: len(kept)] == tuple(kept)
            assert len(decided) == len(kept)
            assert len(kept) == len(report.s) or kept[-1] == "not-psd"
            for s, matrix in zip(report.s, decided):
                np.testing.assert_array_equal(matrix, hankel_block(p, 4, 3, m, s))
    assert report.verdict == "ppt"  # the geometric mixture
def test_is_psd_examples():
    chk = is_psd(np.eye(3))
    assert chk.status == "psd" and chk.lam_min == pytest.approx(1.0)

    chk = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert chk.status == "not-psd" and chk.lam_min == pytest.approx(-1.0)

    p = PPT_ENTANGLED_P
    h4 = np.array([[p[i + j] for j in range(4)] for i in range(4)])
    assert is_psd(h4).status == "not-psd"


def test_is_psd_vector_and_margin(eigensolves):
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    chk = is_psd(M)
    np.testing.assert_allclose(M @ chk.vec, chk.lam_min * chk.vec, atol=1e-14)
    assert np.linalg.norm(chk.vec) == pytest.approx(1.0)
    assert chk == is_psd(M)  # the eigenvector is left out of ==
    assert chk.margin == chk.lam_min + chk.band
    empty = is_psd(np.zeros((0, 0)))
    assert empty.vec is None and empty.margin is None
    # the m-PPT blocks are decided from eigenvalues alone
    eigensolves.clear()
    is_m_ppt(StateSpec(2, 2, (1.0, 0.5, 1.0)), 1)
    assert {name for name, _ in eigensolves} == {"eigvalsh"}


def test_hankel_windows():
    p = np.arange(7.0)
    np.testing.assert_array_equal(hankel(p, 3, 1), [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert hankel(p, 0, 0).shape == (0, 0)
    stack = hankel(p, 2, np.array([0, 2, 4]))
    assert stack.shape == (3, 2, 2)
    for k, shift in enumerate((0, 2, 4)):
        np.testing.assert_array_equal(stack[k], hankel(p, 2, shift))


def test_hankel_views_are_exactly_symmetric_and_read_only():
    # the windows are views of p: symmetric bit for bit, and not writable
    p = np.random.default_rng(7).uniform(-1, 1, 41)
    for H in (hankel(p, 12, 5), hankel(p, 8, np.arange(3, 20)), hankel(p, 5, np.array([1, 4, 7]))):
        assert H.tobytes() == H.swapaxes(-1, -2).copy().tobytes()
        assert not H.flags.writeable and np.shares_memory(H, p)
        with pytest.raises(ValueError):
            H[..., 0, 0] = 1.0
    idx = np.arange(10)
    np.testing.assert_array_equal(hankel(tuple(p), 10, 21), p[idx[:, None] + idx + 21])
    # windows past the end of p, negative and uneven shifts are refused
    for size, shift in [(21, 1), (1, 41), (2, -1), (3, np.array([0, 1, 3])), (3, np.array([2, 1]))]:
        with pytest.raises(ValueError):
            hankel(p, size, shift)
    # matrices from callers are still tested for symmetry
    with pytest.raises(ValueError, match="symmetric"):
        is_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_worst_status():
    assert worst_status([]) == "psd"
    assert worst_status(["psd", "marginal", "psd"]) == "marginal"
    assert worst_status(["marginal", "not-psd"]) == "not-psd"


def test_is_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    # the test is relative to the largest entry: asymmetric by 1.0 of it,
    # though under 1e-12 in absolute terms, fails; rounding passes at any scale
    with pytest.raises(ValueError, match="symmetric"):
        is_psd(np.array([[1e-20, 1e-15], [0.0, 1e-20]]))
    near = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
    for scale in (1.0, 1e-20):
        assert is_psd(scale * near).status == "psd"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_psd_rejects_non_finite(bad):
    # refused before the symmetry test, whose inf - inf would warn, and
    # before the eigensolve, which would blame an overflowed spectrum
    for M in ([[bad]], [[1.0, bad], [bad, 1.0]], np.diag([1.0, bad])):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            is_psd(np.array(M))


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
    assert report.s == (0, 1, 2)
    assert all(lam_min > 0 for lam_min in report.lam_min)


def test_is_m_ppt_simple_example():
    report = is_m_ppt(StateSpec(2, 2, (1.0, 0.0, 1.0)), 1)
    assert report.verdict == "ppt"
    # blocks are [[1,0],[0,1]] and [0]
    assert report.lam_min[0] == pytest.approx(1.0)
    assert report.lam_min[1] == pytest.approx(0.0, abs=1e-15)


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
    assert report.status[0] == "marginal"


def test_is_m_ppt_m_out_of_range():
    spec = StateSpec(3, 2, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        is_m_ppt(spec, 0)
    with pytest.raises(ValueError):
        is_m_ppt(spec, 2)


def test_block_decomposition_hand_expanded():
    # s runs over -1, 0, 1; the s=-1 block is the single term |10><10|
    supports = offset_supports(2, 2, 1)
    assert [idx.tolist() for idx in supports] == [[2], [0, 3], [1]]
    pt = partial_transpose(build_state(StateSpec(2, 2, (1.0, 1.0, 1.0))), (1, 0), 2)
    np.testing.assert_array_equal(pt[np.ix_([2], [2])], [[1.0]])


def test_block_sum_equals_partial_transpose():
    # pt is zero outside the blocks, and block s holds p[a_i + b_j]
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = random_spec(rng, 2, 3)
        supports = offset_supports(2, 3, 1)
        pt = partial_transpose(build_state(spec), (1, 0), 3)
        a, b = group_sums(2, 3, 1)
        outside = np.ones(pt.shape, dtype=bool)
        for idx in supports:
            outside[np.ix_(idx, idx)] = False
            np.testing.assert_array_equal(
                pt[np.ix_(idx, idx)], np.asarray(spec.p)[a[idx][:, None] + b[idx][None, :]]
            )
        assert not pt[outside].any()


def test_blocks_mutually_orthogonal():
    # disjoint supports that cover every index: blocks on them multiply to zero
    spec = StateSpec(3, 2, (1.0, 1.0, 1.0, 1.0))
    supports = offset_supports(3, 2, 1)
    np.testing.assert_array_equal(np.sort(np.concatenate(supports)), np.arange(8))
    pt = partial_transpose(build_state(spec), (1, 0, 0), 2)
    for idx in supports:
        block = pt[np.ix_(idx, idx)]
        assert np.linalg.norm(block - block.conj().T) < 1e-14  # hermitian


def test_block_eigenvalue_signs_match_hankel():
    # the block on support s is a positive congruence D P_s D of the Hankel
    # block, D^2 counting the support's indices with each first-group sum
    rng = np.random.default_rng(13)
    N, d, m = 3, 3, 1
    spec = random_spec(rng, N, d)
    pt = partial_transpose(build_state(spec), (1, 0, 0), d)
    a, _ = group_sums(N, d, m)
    for s, idx in zip(range(-2, 5), offset_supports(N, d, m)):
        hb = hankel_block(spec.p, N, d, m, s)
        lo = max(0, -s)
        hi = lo + len(hb) - 1
        counts = np.bincount(a[idx], minlength=hi + 1)
        assert len(counts) == hi + 1 and not counts[:lo].any()
        scales = counts[lo:]
        assert scales.tolist() == [
            composition_counts(m, d)[k] * composition_counts(N - m, d)[k + s]
            for k in range(lo, hi + 1)
        ]
        D = np.diag(np.sqrt(scales))
        expected = D @ hb @ D
        ev_dense = np.linalg.eigvalsh(pt[np.ix_(idx, idx)])
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
            assert is_psd(hankel_block(spec.p, N, d, m, s)).status == "psd"


# (N, d, m) whose block counts fall below, at, just above and well above the
# number of blocks one stack holds (STACK_BYTES // (8 * size**2), 3 at these
# sizes), and blocks larger than the stack cap (decided one per call)
STRADDLING = [
    (399, 2, 199), (400, 2, 199), (401, 2, 199), (402, 2, 199), (206, 3, 100), (134, 4, 66),
    (802, 2, 400),
]
SMALL = [(N, d, m) for d in (2, 3, 4) for N in range(2, 8) for m in range(1, N // 2 + 1)]
# many stacks decided concurrently: 201 blocks of size 101 (~16 MiB in 17
# stacks) and 161 blocks of size 81 (~8 MiB in 9 stacks)
POOLED = [(400, 2, 100), (160, 3, 40)]


def atomic_spec(N):
    """The qubit state whose p are the moments of three atoms: every m-PPT
    block is PSD, so every stack is decided."""
    nodes, weights = np.array([0.3, 0.8, 1.02]), np.array([0.5, 0.3, 0.2])
    return StateSpec(N, 2, tuple(weights @ nodes[:, None] ** np.arange(N + 1)))


def stack_end(N, d, m, i):
    """Index one past the last block of the stack that holds block i of
    is_m_ppt's blocks: stacks are runs of equally sized blocks, cut every
    STACK_BYTES // (8 * size**2) blocks (at least one), except that block 0
    is a stack of its own when the blocks fill more than one stack."""
    sizes = [len(hankel_block(np.zeros(N * (d - 1) + 1), N, d, m, s)) for s in ppt_offsets(N, d, m)]
    group = sizes.index(sizes[i])
    step = max(1, STACK_BYTES // (8 * sizes[i] ** 2))
    end = min(group + ((i - group) // step + 1) * step, group + sizes.count(sizes[i]))
    return 1 if i == 0 and end < len(sizes) else end


def ppt_offsets(N, d, m):
    return (0, 1) if N == 2 * m else tuple(range((N - 2 * m) * (d - 1) + 1))


@pytest.mark.parametrize("N, d, m", SMALL + STRADDLING + POOLED)
def test_stacked_blocks_equal_per_block_decisions(monkeypatch, two_cpus, N, d, m):
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        stacks.append(a.shape)
        return eigvalsh(a)

    rng = np.random.default_rng([N, d, m])
    specs = [random_spec(rng, N, d)]
    # an atomic-measure sequence, whose blocks are all PSD
    nodes, weights = rng.uniform(0.1, 1.5, 3), rng.uniform(0.1, 1.0, 3)
    specs.append(StateSpec(N, d, tuple(weights @ nodes[:, None] ** np.arange(N * (d - 1) + 1))))
    block_0_passed = 0
    for atomic, spec in enumerate(specs):
        # every block of the sufficient set, decided alone
        reference = []
        for s in ppt_offsets(N, d, m):
            block = hankel_block(spec.p, N, d, m, s)
            reference.append((len(block), np.linalg.eigvalsh(block)))
        for tol in (1e-10, 1e-3):
            monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
            report = is_m_ppt(spec, m, tol)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert report.s == ppt_offsets(N, d, m)
            refs = [PsdCheck.from_extremes(ev[0], ev[-1], tol) for _, ev in reference]
            block_0_passed += refs[0].status != "not-psd"
            assert report.verdict == ppt.PPT_WORDS[worst_status(r.status for r in refs)]
            statuses = [r.status for r in refs]
            # decided up to the end of the stack that holds the first failing
            # block, skipped after it
            first = statuses.index("not-psd") if "not-psd" in statuses else None
            end = len(refs) if first is None else stack_end(N, d, m, first)
            assert report.stopped_at == (None if first is None else report.s[first])
            if atomic:
                assert end == len(refs)  # every block decided
            records = zip(report.size, block_checks(report), refs, reference)
            for i, (record_size, record, ref, (size, _)) in enumerate(records):
                assert record_size == size
                if i >= end:
                    assert record.status == "skipped"
                    assert (record.lam_min, record.lam_max, record.band, record.margin) == (None,) * 4
                    continue
                assert (record.status, record.band, record.margin) == (ref.status, ref.band, ref.margin)
                assert record.lam_min.hex() == ref.lam_min.hex()
                assert record.lam_max.hex() == ref.lam_max.hex()
    # the cap bounds the work of one eigvalsh call, one stack per thread
    assert STACK_BYTES <= 1 << 20
    assert stacks
    for shape in stacks:
        k, n, _ = shape
        assert k == 1 or k * n * n * 8 <= STACK_BYTES, shape
    # work of at most one stack, and a block over the cap, stay on the
    # calling thread
    if (N, d, m) in SMALL or 8 * (m * (d - 1) + 1) ** 2 > STACK_BYTES:
        assert not two_cpus
    if (N, d, m) in POOLED:
        # two workers per call whose block 0 passes, at least the atomic spec's
        assert block_0_passed >= 2
        assert two_cpus == ["dsym-ppt_0", "dsym-ppt_1"] * block_0_passed


def test_more_threads_than_cpus_decide_every_stack_once(monkeypatch, two_cpus):
    # with 16 KiB stacks, eight workers share one queue of 121 one-block
    # stacks and switch as often as they can: on a PSD state, whose every
    # stack is decided, a stack taken twice or never would change or break
    # the records
    monkeypatch.setattr(ppt, "STACK_BYTES", 1 << 14)
    spec = atomic_spec(200)
    monkeypatch.setattr(ppt, "_cpus", lambda: 1)
    serial = is_m_ppt(spec, 40)
    assert serial.verdict == "ppt"
    monkeypatch.setattr(ppt, "_cpus", lambda: 8)
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = is_m_ppt(spec, 40)
    finally:
        sys.setswitchinterval(interval)
    assert two_cpus == [f"dsym-ppt_{i}" for i in range(len(two_cpus))]
    assert 1 <= len(two_cpus) <= 8
    assert calls == [1] * 121
    assert pooled.s == tuple(range(121))
    assert pooled == serial


def test_pooled_stop_equals_serial_stop(monkeypatch, two_cpus):
    # the all-ones sequence with p[110] halved: the one-block stacks s = 30..110
    # hold p[110] and fail, the others pass.  Eight threads that switch as
    # often as they can decide stacks past s = 30 too, but the report is the
    # serial one: decided up to s = 30, skipped after it
    monkeypatch.setattr(ppt, "STACK_BYTES", 1 << 14)
    p = np.ones(201)
    p[110] = 0.5
    spec = StateSpec(200, 2, tuple(p))
    failing = [s for s in range(121) if is_psd(hankel_block(p, 200, 2, 40, s)).status == "not-psd"]
    assert failing == list(range(30, 111))
    monkeypatch.setattr(ppt, "_cpus", lambda: 1)
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    serial = is_m_ppt(spec, 40)
    assert calls == [1] * 31 and not two_cpus
    assert serial.verdict == "not-ppt" and serial.stopped_at == 30
    assert serial.status == ("psd",) * 30 + ("not-psd",) + ("skipped",) * 90
    monkeypatch.setattr(ppt, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            assert is_m_ppt(spec, 40) == serial
            assert 31 <= len(calls) <= 121
    finally:
        sys.setswitchinterval(interval)
    assert two_cpus


def test_early_reject_decides_block_0_alone_on_the_calling_thread(monkeypatch, two_cpus):
    # one atom at 0.9 with p_2 halved: block 0 of the 201 blocks fails, so the
    # check ends with one eigvalsh call on block 0, before any pool starts
    p = 0.9 ** np.arange(401)
    p[2] /= 2
    calls, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a):
        calls.append((a.shape, threading.current_thread()))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    report = is_m_ppt(StateSpec(400, 2, tuple(p)), 100)
    assert calls == [((1, 101, 101), threading.current_thread())]
    assert not two_cpus
    assert report.verdict == "not-ppt" and report.stopped_at == 0
    assert report.status == ("not-psd",) + ("skipped",) * 200


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(ppt, "_cpus", lambda: 1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def start(thread):
        raise AssertionError(f"started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", start)
    report = is_m_ppt(atomic_spec(400), 100)
    assert report.status == ("psd",) * 201


def test_threads_leave_room_for_blas(monkeypatch):
    # one thread per CPU, divided by the threads each BLAS call takes; with no
    # setting BLAS takes every CPU, so stacks are decided one at a time
    monkeypatch.setattr(ppt, "_cpus", lambda: 4)
    for var in ppt.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert ppt._threads() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert ppt._threads() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert ppt._threads() == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert ppt._threads() == 0


@pytest.mark.parametrize("fails_on", [None, "helper"])
def test_pooled_call_leaves_no_thread_behind(monkeypatch, two_cpus, fails_on):
    # only block 0 of a pooled call is decided on the calling thread, every
    # later stack on a worker; the workers are joined before is_m_ppt returns
    # or raises, and an eigvalsh failure on a worker reaches the caller
    caller, on_caller, eigvalsh = threading.current_thread(), [], np.linalg.eigvalsh

    def failing(a):
        if threading.current_thread() is caller:
            on_caller.append(a.shape)
        elif fails_on:
            raise np.linalg.LinAlgError(f"planted on the {fails_on}")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    if fails_on is None:
        assert is_m_ppt(atomic_spec(400), 100).verdict == "ppt"
    else:
        with pytest.raises(np.linalg.LinAlgError, match=f"planted on the {fails_on}"):
            is_m_ppt(atomic_spec(400), 100)
    assert on_caller == [(1, 101, 101)]
    assert not [t for t in threading.enumerate() if t.name.startswith("dsym-ppt")]
    assert two_cpus == ["dsym-ppt_0", "dsym-ppt_1"]


def test_worker_failure_cancels_the_stacks_not_started(monkeypatch, two_cpus):
    # a PSD check of 18 stacks, block 0 alone first, whose first pooled stack
    # raises on a worker: the caller, reading the stacks in order, gets the
    # error, and the stacks no worker has started are cancelled.  Every other
    # decision is held back for a while, so that none ends before the
    # cancellation; only block 0, the stack the other worker holds, and at
    # most one more that the failing worker takes before the caller wakes,
    # are decided
    p = atomic_spec(400).p
    stacks = 1 + -(-201 // (STACK_BYTES // (8 * 101**2)))
    assert stacks == 18
    calls, eigvalsh = [], np.linalg.eigvalsh

    def failing(a):
        calls.append(len(a))
        if a[0, 0, 0] == p[1] and threading.current_thread().name.startswith("dsym-ppt"):
            raise np.linalg.LinAlgError("planted on a worker")
        time.sleep(0.5)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError, match="planted on a worker"):
        is_m_ppt(StateSpec(400, 2, p), 100)
    assert not [t for t in threading.enumerate() if t.name.startswith("dsym-ppt")]
    assert two_cpus == ["dsym-ppt_0", "dsym-ppt_1"]
    assert 3 <= len(calls) <= 4 < stacks


def test_interrupted_caller_cancels_the_stacks_not_started(monkeypatch, two_cpus):
    # the caller gives up while it waits for the first pooled stack (an error
    # of its own, not of a decision): the stacks no worker has started are
    # cancelled, and the workers finish the one each holds and are joined
    class Interrupted(Exception):
        pass

    caller, result = threading.current_thread(), Future.result

    def interrupted(future, timeout=None):
        if threading.current_thread() is caller:
            raise Interrupted
        return result(future, timeout)

    calls, eigvalsh = [], np.linalg.eigvalsh

    def held_back(a):
        calls.append(len(a))
        time.sleep(0.2)
        return eigvalsh(a)

    monkeypatch.setattr(Future, "result", interrupted)
    monkeypatch.setattr(np.linalg, "eigvalsh", held_back)
    with pytest.raises(Interrupted):
        is_m_ppt(atomic_spec(400), 100)
    assert not [t for t in threading.enumerate() if t.name.startswith("dsym-ppt")]
    assert two_cpus == ["dsym-ppt_0", "dsym-ppt_1"]
    assert 2 <= len(calls) <= 3  # block 0, then at most one stack per worker


def test_overflowed_spectrum_raises():
    # lam_max overflows to inf; an infinite band would call block 0 psd,
    # although its lam_min is -7.65e307
    spec = StateSpec(20, 2, tuple(1.7e308 * np.random.default_rng(0).uniform(0.5, 1, 21)))
    with pytest.raises(ValueError, match="float range"):
        is_m_ppt(spec, 5)
    for lam_min, lam_max in [(-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="float range"):
            PsdCheck.from_extremes(lam_min, lam_max, 1e-10)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pooled_call_in_forked_child(two_cpus):
    # the child of a process that has run a pooled call decides pooled too
    spec = atomic_spec(400)
    expected = is_m_ppt(spec, 100)
    assert two_cpus == ["dsym-ppt_0", "dsym-ppt_1"]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)  # a hung child is killed by SIGALRM
            same = is_m_ppt(spec, 100) == expected and two_cpus[2:] == ["dsym-ppt_0", "dsym-ppt_1"]
            code = 0 if same else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
