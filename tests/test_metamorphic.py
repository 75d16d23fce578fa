"""Metamorphic relations of the production path: properties that need no
dense oracle and no size cap, checked on seeded sequences of every small
(d, N).

R1, reversal: p_k -> p_{n-k} relabels each party's digits i <-> d-1-i, a
local unitary, so it keeps every separability and m-PPT verdict.  R2,
convexity: a convex mixture of two separable states is separable, and so
m-PPT at every m.  R3, top mass: raising p_n adds weight on the product
state |d-1>^N, so it keeps a separable state separable and an m-PPT state
m-PPT.  R4, scale covariance: p_k -> a b^k p_k (a, b > 0) is the local
map diag(b^(i/2)) on each party times a, so it keeps every verdict.  R5,
nesting: an m-PPT state is m'-PPT for every m' < m.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsym.moment import is_separable
from dsym.ppt import is_m_ppt
from dsym.states import StateSpec

METAMORPHIC_SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)

# largest N per d: moment Hankels of at most 13 rows
MAX_N = {2: 24, 3: 12, 4: 8}


@st.composite
def specs(draw, d=None, N=None):
    """A state of d in 2..4 and 2 <= N <= MAX_N[d] parties (or the given d
    and N) whose p is the moments of 1-6 atoms on [0, 2] (an atom at 0 and a
    top mass each in some), the same with p_{2r} lowered by 10-90% for r
    atoms (entangled when 2r <= n), or uniform on [0, 1]."""
    d = draw(st.integers(2, 4)) if d is None else d
    N = draw(st.integers(2, MAX_N[d])) if N is None else N
    n = N * (d - 1)
    kind = draw(st.sampled_from(["measure", "dip", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return StateSpec(N, d, tuple(rng.uniform(0.0, 1.0, n + 1).tolist()))
    r = draw(st.integers(1, 6))
    nodes = rng.uniform(0.0, 2.0, r)
    if draw(st.booleans()):
        nodes[0] = 0.0
    p = rng.uniform(0.1, 1.0, r) @ nodes[:, None] ** np.arange(n + 1)
    if draw(st.booleans()):
        p[n] += rng.uniform(0.0, 1.0) * p[n]
    if kind == "dip" and 2 * r <= n:
        p[2 * r] *= 1.0 - rng.uniform(0.1, 0.9)
    return StateSpec(N, d, tuple(p.tolist()))


def _verdicts(spec):
    """The separability verdict and the m-PPT verdict at every m."""
    ppt = tuple(is_m_ppt(spec, m).verdict for m in range(1, spec.N // 2 + 1))
    return is_separable(spec).verdict, ppt


@METAMORPHIC_SETTINGS
@given(specs())
def test_reversal_keeps_every_verdict(spec):
    # R1: the moment Hankels become J H J (even and odd swap for odd n) and
    # the m-PPT blocks P_s become J P_s' J with s' = (N - 2m)(d - 1) - s
    reversed_spec = StateSpec(spec.N, spec.d, spec.p[::-1])
    assert _verdicts(reversed_spec) == _verdicts(spec)


@METAMORPHIC_SETTINGS
@given(specs(), st.floats(1e-3, 10.0))
def test_raising_the_top_moment_keeps_separable_and_ppt(spec, factor):
    # R3: p_n is the last diagonal entry of one moment Hankel and of the last
    # m-PPT block, and no other entry of either
    p = list(spec.p)
    p[-1] += factor * max(p)
    separable, ppt = _verdicts(spec)
    raised_separable, raised_ppt = _verdicts(StateSpec(spec.N, spec.d, tuple(p)))
    if separable == "separable":
        assert raised_separable == "separable"
    for before, after in zip(ppt, raised_ppt):
        if before == "ppt":
            assert after == "ppt"


@METAMORPHIC_SETTINGS
@given(st.data(), st.floats(0.0, 1.0))
def test_mixing_separable_states_keeps_separable_and_ppt(data, weight):
    # R2: the mixture's p is the same mixture of the two sequences, whose
    # moment Hankels, and m-PPT blocks, are sums of PSD matrices
    first = data.draw(specs())
    second = data.draw(specs(first.d, first.N))
    assume(is_separable(first).verdict == is_separable(second).verdict == "separable")
    p = weight * np.array(first.p) + (1.0 - weight) * np.array(second.p)
    separable, ppt = _verdicts(StateSpec(first.N, first.d, tuple(p.tolist())))
    assert separable == "separable"
    assert set(ppt) == {"ppt"}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="item 1b: the band tol * max(1, lam_max) is not scale invariant",
)
@METAMORPHIC_SETTINGS
@given(specs(), st.integers(-8, 8), st.sampled_from([-6, 6, 10]))
def test_rescaling_keeps_every_verdict(spec, a_exp, b_exp):
    # R4: every Hankel (p_{k+l+s}) becomes a b^s D H D with D = diag(b^k), a
    # congruence; a and b are powers of two, so the rescaled p is exact
    k = np.arange(len(spec.p))
    p = np.ldexp(np.array(spec.p), a_exp + b_exp * k)
    assert _verdicts(StateSpec(spec.N, spec.d, tuple(p.tolist()))) == _verdicts(spec)


@METAMORPHIC_SETTINGS
@given(specs())
def test_ppt_at_m_implies_ppt_below_m(spec):
    # R5: the verdicts at m = 1..N/2 read ppt up to some m, then never again
    _, ppt = _verdicts(spec)
    if "ppt" in ppt:
        last = len(ppt) - ppt[::-1].index("ppt")
        assert ppt[:last] == ("ppt",) * last
