import threading
from fractions import Fraction

import numpy as np
import pytest

from dsym import StateSpec, oracle, ppt
from dsym.states import digit_table

# Three-qutrit sequence that is 1-PPT but entangled: the boundary case
# separating the even-N equivalence from the odd-N failure.
PPT_ENTANGLED_P = tuple(
    float(Fraction(x)) for x in ("1", "1/4", "1/8", "1/9", "1/8", "1/4", "1")
)

# d_symmetrizer(3, 3) / 7 as a 3-qutrit sequence: strictly 1-PPT (every
# block positive definite) and entangled, with no search behind it.
SYMMETRIZER_P = ("1", "1/3", "1/6", "1/7", "1/6", "1/3", "1")

# (d, N) of the dense-verify benchmark mix, d^N from 64 to 1024
DENSE_VERIFY_MIX = [
    (2, 6), (4, 3), (3, 4), (2, 7), (3, 5), (2, 8), (4, 4), (2, 9), (2, 10), (4, 5)
]


@pytest.fixture
def ppt_entangled_spec() -> StateSpec:
    return StateSpec(N=3, d=3, p=PPT_ENTANGLED_P)


def random_spec(rng: np.random.Generator, N: int, d: int) -> StateSpec:
    return StateSpec(N=N, d=d, p=tuple(rng.uniform(0.0, 1.0, N * (d - 1) + 1)))


def group_sums(N: int, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit sums a over the first m parties and b over the other N - m, per
    basis index: the partial transpose over the first m parties has entries
    p[a_i + b_j] on its offset blocks."""
    digits = digit_table(N, d)
    return digits[:, :m].sum(axis=1), digits[:, m:].sum(axis=1)


def extreme_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix, from the
    oracle's one eigensolve of its quotient by equal rows: the zero-mask
    case, whose map is the identity and whose index table is one row,
    0..n-1, so the matrix is its own partial transpose and any n is
    allowed."""
    M = np.ascontiguousarray(M)  # one layout, so one row hash for every layout
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not len(M):
        raise ValueError("matrix is empty")
    return oracle._transposed_extremes(M, None, np.arange(len(M))[None, :])


def block_checks(report: ppt.PPTReport) -> list[ppt.PsdCheck]:
    """The blocks of an m-PPT report as `PsdCheck`s, zipped from its columns."""
    columns = zip(report.status, report.lam_min, report.lam_max, report.band)
    return [ppt.PsdCheck(*column) for column in columns]


def geometric_p(N: int, d: int, t: float, w: float = 1.0) -> tuple[float, ...]:
    return tuple(w * t**k for k in range(N * (d - 1) + 1))


def far_atom_p(N: int) -> tuple[float, ...]:
    """Qubit p_k = (5^k + 2^k) / (2 * 5^N), each rounded once: at large N
    recovery keeps one atom, at t ~ 5, whose N + 1 Fourier terms each carry
    1/(N + 1) of the normalized trace."""
    return tuple(float(Fraction(5**k + 2**k, 2 * 5**N)) for k in range(N + 1))


def fourier_terms(N: int, d: int, t: float) -> list[tuple[float, np.ndarray]]:
    """The Fourier ensemble of ratio t built one vector at a time: the
    reference for the array-built ``geometric_ensemble``."""
    L = N * (d - 1) + 1
    amps = np.array([float(t) ** (i / 2) for i in range(d)])
    return [(1.0 / L, amps * np.exp(2j * np.pi * ((a * np.arange(d)) % L) / L)) for a in range(L)]


@pytest.fixture
def count_calls(monkeypatch):
    """Replace attributes of a module with call-counting wrappers; returns a
    function `install(owner, *names)` whose result maps each name to the
    number of calls made so far."""
    counts: dict[str, int] = {}

    def install(owner, *names):
        for name in names:
            original = getattr(owner, name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return counts

    return install


@pytest.fixture
def eigensolves(monkeypatch):
    """Record every np.linalg.eigh and eigvalsh call: returns the list of
    (name, copy of the argument) that grows as they are made."""
    calls: list[tuple[str, np.ndarray]] = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


@pytest.fixture
def two_cpus(monkeypatch):
    """Decide m-PPT stacks as on two CPUs with one BLAS thread; yields the
    names of the threads started meanwhile."""
    monkeypatch.setattr(ppt, "_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    yield started
