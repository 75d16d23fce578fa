"""Metamorphic relations of the production path: properties that need no
dense oracle and no size cap, checked on seeded sequences of every small
(d, N).

R1, reversal: p_k -> p_{n-k} relabels each party's digits i <-> d-1-i, a
local unitary, so it keeps every separability and m-PPT verdict.  R3, top
mass: raising p_n adds weight on the product state |d-1>^N, so it keeps a
separable state separable and an m-PPT state m-PPT.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsym.moment import is_separable
from dsym.ppt import is_m_ppt
from dsym.states import StateSpec

METAMORPHIC_SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)

# largest N per d: moment Hankels of at most 13 rows
MAX_N = {2: 24, 3: 12, 4: 8}


@st.composite
def specs(draw):
    """A state of d in 2..4 and 2 <= N <= MAX_N[d] parties whose p is the moments
    of 1-6 atoms on [0, 2] (an atom at 0 and a top mass each in some), the
    same with p_{2r} lowered by 10-90% for r atoms (entangled when 2r <= n),
    or uniform on [0, 1]."""
    d = draw(st.integers(2, 4))
    N = draw(st.integers(2, MAX_N[d]))
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
