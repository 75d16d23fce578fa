"""Seeded spec generation for the four workloads, with labels fixed here.

Labels come from how a spec was built, never from dsym:

* separable: raw moments of a random 1-6-atom measure on [0, 1.5], plus a
  top mass M >= 0 on p_n in half the specs.  The largest node is kept high
  enough that no moment falls below MIN_MOMENT.  Every state of this form is
  fully separable and therefore PPT under every transpose.
* entangled: moments of an r-atom measure with p_{2r} lowered by a share
  beta of itself, 0.1 <= beta / p_{2r} <= 0.9.  The monic node polynomial
  q(t) = prod (t - t_a) has coefficient vector c with c^T H c = -beta on the
  leading (r+1) x (r+1) moment Hankel H, so the sequence is not a moment
  sequence (entangled), and the m-PPT block P_0, whose leading principal
  part is that H whenever r <= m(d-1), is not PSD.  For r > m(d-1) the m-PPT
  verdict is left unlabelled.
* random: p_k uniform on [0, 1]; no label.  Kept out of label accuracy.
* counterexample: the paper's three-qutrit state (1, 1/4, 1/8, 1/9, 1/8,
  1/4, 1), written as exact rational strings: 1-PPT and entangled.

A workload is a repeating *round*: a fixed mix of kinds and sizes, drawn
afresh from the seed in every round and shuffled.  Runs stop on round
boundaries, so every run measures the same mix and its quantiles do not
drift with the seed.  Round sizes are chosen so that p50 and p90 fall well
inside a group of similar specs rather than on a jump between groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NODE_MAX = 1.5
MAX_ATOMS = 6
WEIGHT_RANGE = (0.1, 1.0)
DIP_RANGE = (0.1, 0.9)
# Smallest coefficient a measure may produce.  Underflowed moments would make
# the labels false (a moment sequence of positive nodes has no exact zeros),
# and subnormal products slow LAPACK down several-fold at random.
MIN_MOMENT = 1e-150

COUNTEREXAMPLE_P = ("1", "1/4", "1/8", "1/9", "1/8", "1/4", "1")

@dataclass(frozen=True)
class Command:
    """One CLI call on a spec: ``dsym <name> <spec file> <*args>``."""

    name: str
    args: tuple[str, ...]
    label: str | None  # expected verdict, in the command's own vocabulary
    m: int | None = None  # transposed parties (check-ppt) or mask weight


@dataclass(frozen=True)
class Spec:
    kind: str  # "separable" | "entangled" | "random" | "counterexample"
    N: int
    d: int
    p: tuple[float, ...]  # the coefficients dsym parses from the file
    file_p: tuple  # what the spec file holds (floats or rational strings)
    atoms: int | None
    commands: tuple[Command, ...]

    @property
    def n(self) -> int:
        return self.N * (self.d - 1)

    @property
    def labelled(self) -> bool:
        return any(c.label is not None for c in self.commands)

    def file_json(self) -> dict:
        return {"N": self.N, "d": self.d, "p": list(self.file_p)}


class Draws:
    """Quasi-random draws: one Kronecker sequence per spec kind and length,
    each from a seeded start.  The k-th spec of a cell gets
    frac(start + k * STEP), a point in [0, 1)^16, and each coordinate is one
    random choice of the spec.  The continuous choices get irrational
    steps, so each spreads evenly over [0, 1) within a few specs; the
    largest node, which decides most hard cases, gets the golden-ratio step.
    The two discrete choices that set most of a spec's cost, the atom count
    and whether a top mass is added, cycle instead: step 1/6 runs through
    all MAX_ATOMS counts in six specs, and step 1/12 adds the top mass to
    six consecutive specs and not to the next six.  The share of hard and
    costly cases in a run then varies little with the seed.
    """

    # Golden ratio for the largest node, the two cycles, then frac(sqrt(p))
    # for the primes 7, 11, 13, 19, 23, 29, 31, 41, 43, 47, 53, 59, 61 (17
    # and 37 are left out: their steps are small and would spread slowly).
    STEP = np.concatenate(
        [[(5**0.5 - 1) / 2, 1 / MAX_ATOMS, 1 / (2 * MAX_ATOMS)],
         np.sqrt([7, 11, 13, 19, 23, 29, 31, 41, 43, 47, 53, 59, 61]) % 1.0]
    )

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.start: dict[tuple, np.ndarray] = {}
        self.count: dict[tuple, int] = {}

    def next(self, key: tuple) -> np.ndarray:
        if key not in self.start:
            self.start[key] = self.rng.random(len(self.STEP))
            self.count[key] = 0
        self.count[key] += 1
        return (self.start[key] + self.count[key] * self.STEP) % 1.0


def atomic_moments(n: int, top: float, lower: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Raw moments p_0..p_n of atoms at `top` and at `lower` * top, with the
    given weights (top first)."""
    nodes = np.append(top, top * lower)
    return (weights[:, None] * nodes[:, None] ** np.arange(n + 1)).sum(axis=0)


def make_coefficients(rng: np.random.Generator, draws: Draws, kind: str, n: int):
    """(p, atom count) for a separable, entangled or random spec of length n+1.

    Coordinates of the draw: 0 largest node, 1 atom count, 2 top mass or
    not, 3 its size, 4 dip share, 5-9 lower nodes, 10-15 weights."""
    if kind == "random":
        return rng.uniform(0.0, 1.0, n + 1), None
    u = draws.next((kind, n))
    max_atoms = MAX_ATOMS if kind == "separable" else min(MAX_ATOMS, n // 2)
    r = 1 + int(u[1] * max_atoms)
    lowest_top = (MIN_MOMENT / WEIGHT_RANGE[0]) ** (1.0 / n)
    top = lowest_top + (NODE_MAX - lowest_top) * u[0]
    lo, hi = WEIGHT_RANGE
    p = atomic_moments(n, top, u[5 : 5 + r - 1], lo + (hi - lo) * u[10 : 10 + r])
    if kind == "separable":
        if u[2] < 0.5:
            p[n] += u[3] * p[n]
    elif kind == "entangled":
        lo, hi = DIP_RANGE
        p[2 * r] -= (lo + (hi - lo) * u[4]) * p[2 * r]
    else:
        raise ValueError(f"unknown spec kind {kind!r}")
    return p, r


def ppt_label(kind: str, atoms: int | None, m: int, N: int, d: int) -> str | None:
    """Expected verdict of the m-PPT question (m <= N/2), in check-ppt words."""
    if kind == "separable":
        return "ppt"
    if kind == "entangled" and atoms <= m * (d - 1):
        return "not-ppt"
    if kind == "counterexample" and (N, d, m) == (3, 3, 1):
        return "ppt"
    return None


def separability_label(kind: str) -> str | None:
    return {"separable": "separable", "entangled": "entangled", "counterexample": "entangled"}.get(kind)


def mask_label(kind: str, atoms: int | None, mask: str, d: int) -> str | None:
    """Transposing w parties has the spectrum of transposing N - w of them."""
    N, w = len(mask), mask.count("1")
    label = ppt_label(kind, atoms, min(w, N - w), N, d)
    return None if label is None else {"ppt": "psd", "not-ppt": "not-psd"}[label]


def _spec(kind, N, d, p, atoms, commands, file_p=None) -> Spec:
    p = tuple(float(x) for x in p)
    return Spec(kind, N, d, p, p if file_p is None else tuple(file_p), atoms, tuple(commands))


def counterexample() -> Spec:
    p = [float(Fraction(x)) for x in COUNTEREXAMPLE_P]
    commands = [Command("check-ppt", ("--m", "1"), "ppt", 1)]
    commands.append(Command("check-separable", ("--certificate",), "entangled"))
    return _spec("counterexample", 3, 3, p, None, commands, COUNTEREXAMPLE_P)


# --- workloads ------------------------------------------------------------


def small_mixed_round(rng: np.random.Generator, draws: Draws, index: int) -> list[Spec]:
    """Every (d, N) with n <= 12, d <= 4 and d^N <= 256, once per kind, plus
    the counterexample: check-ppt at every m, check-separable --certificate,
    and decompose for separable specs."""
    specs = [counterexample()]
    for d, N in SMALL_COMBOS:
        for kind in ("separable", "entangled", "random"):
            p, atoms = make_coefficients(rng, draws, kind, N * (d - 1))
            commands = [
                Command("check-ppt", ("--m", str(m)), ppt_label(kind, atoms, m, N, d), m)
                for m in range(1, N // 2 + 1)
            ]
            commands.append(Command("check-separable", ("--certificate",), separability_label(kind)))
            if kind == "separable":
                commands.append(Command("decompose", (), "separable"))
            specs.append(_spec(kind, N, d, p, atoms, commands))
    return specs


SMALL_COMBOS = tuple(
    (d, N)
    for d in (2, 3, 4)
    for N in range(2, 13)
    if N * (d - 1) <= 12 and d**N <= 256
)

# (n, specs per round).  Sized so that the median falls inside the n=250
# group and p90 inside the n=400 group, while n=600 and n=1000 keep the
# large-block cost in the throughput; one round takes ~7 s on a 2-core box.
LARGE_PPT_SIZES = ((200, 10), (250, 20), (300, 8), (400, 10), (600, 1), (1000, 1))


def large_ppt_round(rng: np.random.Generator, draws: Draws, index: int) -> list[Spec]:
    """check-ppt on qubits and qutrits at m = 1, N/4 and N/2; half the specs
    PPT (separable), half not (entangled), so early-accept and
    stop-at-first-failure each have a case that uses them."""
    specs = []
    for n, count in LARGE_PPT_SIZES:
        for j in range(count):
            # both kinds in equal numbers in every round; d alternates in pairs
            kind = ("separable", "entangled")[(j + index) % 2]
            d = (2, 3)[(j // 2 + index // 2) % 2]
            N = n // (d - 1)
            p, atoms = make_coefficients(rng, draws, kind, n)
            ms = sorted({1, max(1, N // 4), N // 2})
            commands = [
                Command("check-ppt", ("--m", str(m)), ppt_label(kind, atoms, m, N, d), m)
                for m in ms
            ]
            specs.append(_spec(kind, N, d, p, atoms, commands))
    return specs


CERTIFY_SIZES = (16, 24, 32, 48, 64, 96, 128, 160)
DENSE_CAP = 4096  # dsym's default dense cap; the runner unsets any override


def certify_dims(n: int) -> list[int]:
    """Local dimensions for which n = N(d-1) puts d^N above the dense cap."""
    return [d for d in (2, 3, 4) if n % (d - 1) == 0 and d ** (n // (d - 1)) > DENSE_CAP]


def certify_round(rng: np.random.Generator, draws: Draws, index: int) -> list[Spec]:
    """check-separable --certificate and decompose at n in [16, 160] with
    d^N above the dense cap: the moment cascade, witnesses and ensemble
    building, and never the PPT blocks or a dense check."""
    specs = []
    for n in CERTIFY_SIZES:
        dims = certify_dims(n)
        for j in range(4):
            d = dims[(j + index) % len(dims)]
            kind = ("separable", "entangled")[j % 2]
            p, atoms = make_coefficients(rng, draws, kind, n)
            label = separability_label(kind)
            commands = [
                Command("check-separable", ("--certificate",), label),
                Command("decompose", (), label),
            ]
            specs.append(_spec(kind, n // (d - 1), d, p, atoms, commands))
    return specs


# ((d, N), specs per round), d^N from 64 to 512, in latency order: p50 falls
# inside the d^N = 243..256 group and p90 inside the 512 group.  One spec per
# round at d^N = 1024 cycles through 2^10 and 4^5, separable and entangled.
DENSE_COMBOS = (
    ((2, 6), 6),
    ((4, 3), 4),
    ((3, 4), 4),
    ((2, 7), 4),
    ((3, 5), 6),
    ((2, 8), 6),
    ((4, 4), 5),
    ((2, 9), 14),
)
DENSE_TOP = ((2, 10), (4, 5))


def random_mask(rng: np.random.Generator, N: int) -> str:
    """A weight-w mask (1 <= w < N) that is not the prefix 1^w 0^(N-w)."""
    w = int(rng.integers(1, N))
    bits = ["0"] * N
    for i in rng.choice(N, size=w, replace=False):
        bits[i] = "1"
    mask = "".join(bits)
    return mask[::-1] if mask == "1" * w + "0" * (N - w) else mask


def dense_verify_round(rng: np.random.Generator, draws: Draws, index: int) -> list[Spec]:
    """oracle-verify under a prefix mask and a non-prefix mask, and
    decompose, with d^N from 64 to 1024: dense state building, partial
    transposes, dense eigensolves and the dense reconstruction check."""
    slots = [(dN, j % 2) for dN, count in DENSE_COMBOS for j in range(count)]
    slots.append((DENSE_TOP[index % 2], index // 2 % 2))
    specs = []
    for (d, N), parity in slots:
        kind = ("separable", "entangled")[(parity + index) % 2]
        p, atoms = make_coefficients(rng, draws, kind, N * (d - 1))
        prefix_w = int(rng.integers(1, N // 2 + 1))
        prefix = "1" * prefix_w + "0" * (N - prefix_w)
        other = random_mask(rng, N)
        commands = [
            Command("oracle-verify", ("--mask", prefix), mask_label(kind, atoms, prefix, d), prefix_w),
            Command("oracle-verify", ("--mask", other), mask_label(kind, atoms, other, d), other.count("1")),
            Command("decompose", (), separability_label(kind)),
        ]
        specs.append(_spec(kind, N, d, p, atoms, commands))
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (rng, draws, round index) -> list[Spec]
    # Rounds generated in set-up, enough for a 25 s run on a 2-core box; a
    # longer or faster run cycles through them again.
    pool_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-mixed", small_mixed_round, 48),
        Workload("large-ppt", large_ppt_round, 6),
        Workload("certify", certify_round, 32),
        Workload("dense-verify", dense_verify_round, 10),
    )
}


def generate_rounds(workload: Workload, seed: int) -> list[list[Spec]]:
    """The workload's rounds for this seed, each shuffled."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    draws = Draws(rng)
    rounds = []
    for index in range(workload.pool_rounds):
        specs = workload.make_round(rng, draws, index)
        rounds.append([specs[i] for i in rng.permutation(len(specs))])
    return rounds
