"""Checks on every CLI report, written with plain numpy and no dsym code.

A report is first checked for form: it parses, echoes its input, names a
known verdict and exits with the code that verdict maps to.  A form failure
makes the whole run incorrect.  Verdicts are then compared with the
generation-time label, and certificates are re-verified independently:

* witness: the Hankel quadratic form of the reported coefficients must be
  negative beyond its own rounding scale and match ``witness_value``;
* ensemble: sampled entries (i, j) of sum_w w |phi><phi|^(x N), including
  pairs with different digit sums, must match the state;
* PPT blocks: the reported offsets must be the sufficient set, the statuses
  must give the verdict, and one block (the most negative for a not-ppt
  verdict) is rebuilt and its extreme eigenvalues recomputed.

Wrong verdicts and failed certificates are counted, never filtered: they
are the known defects the benchmark must show.  ``decompose`` exits 3 when
the state is separable but no atomic measure can be recovered (ROADMAP open
item 3); that refusal is the known defect, so it counts as a missing
certificate rather than as a failed command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

EXIT_ERROR = 3
VERDICT_EXIT = {
    "ppt": 0, "separable": 0, "psd": 0,
    "not-ppt": 1, "entangled": 1, "not-psd": 1,
    "marginal": 2,
}
VERDICTS = {
    "check-ppt": ("ppt", "not-ppt", "marginal"),
    "check-separable": ("separable", "entangled", "marginal"),
    "decompose": ("separable", "entangled", "marginal"),
    "oracle-verify": ("psd", "not-psd", "marginal"),
}

# Share of the absolute-value form |c|^T |H| |c| that float64 evaluation of
# c^H H c can be off by; n * eps stays below 1e-13 for every size used.
FORM_RTOL = 1e-12
# Eigenvalues recomputed on the same block agree to LAPACK's backward error.
EIG_RTOL = 1e-9
ENSEMBLE_SAMPLES = 12
# What dsym's CLI prints to stderr when decompose finds the state separable
# but cannot recover a measure for the ensemble.
RECOVERY_FAILED = "error: no atomic measure met the residual bound"


@dataclass
class Outcome:
    error: bool = False  # exit code 3, exception or unparsable report
    recovery_failed: bool = False  # the error is decompose's recovery refusal
    form_error: str | None = None  # the report breaks the CLI's own contract
    verdict: str | None = None
    wrong: bool = False  # decisive and contradicts the label
    cert_expected: bool = False  # a decisive verdict that carries a certificate
    cert_ok: bool = False
    cert_reason: str | None = None
    report_bytes: int = 0

    @property
    def decisive(self) -> bool:
        return self.verdict not in (None, "marginal")


def check_command(spec, command, code, stdout: str, stderr: str, rng: np.random.Generator) -> Outcome:
    out = Outcome(report_bytes=len(stdout.encode()))
    if code == EXIT_ERROR:
        out.error = True
        if command.name == "decompose" and stderr.startswith(RECOVERY_FAILED):
            out.recovery_failed = out.cert_expected = True
            out.cert_reason = "recovery failed, no ensemble (exit 3)"
        return out
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        out.error = True
        return out
    out.form_error = _form_error(spec, command, code, report)
    if out.form_error is not None:
        return out
    out.verdict = _verdict(command.name, report)
    if out.decisive and command.label is not None:
        out.wrong = out.verdict != command.label
    _check_certificate(spec, command, report, out, rng)
    return out


def _verdict(name: str, report: dict) -> str:
    if name == "check-ppt":
        return report["ppt"]["verdict"]
    if name == "oracle-verify":
        return report["oracle"]["status"]
    return report["separability"]["verdict"]


def _form_error(spec, command, code, report) -> str | None:
    try:
        if report.get("tool") != "dsym" or report.get("command") != command.name:
            return "report names another tool or command"
        inp = report["input"]
        if (inp["N"], inp["d"]) != (spec.N, spec.d) or tuple(inp["p"]) != spec.p:
            return "report does not echo its input"
        verdict = _verdict(command.name, report)
        if verdict not in VERDICTS[command.name]:
            return f"unknown verdict {verdict!r}"
        if VERDICT_EXIT[verdict] != code:
            return f"exit code {code} for verdict {verdict!r}"
        if not report["timings"]["total_s"] >= 0:
            return "missing total time"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    return None


def _check_certificate(spec, command, report, out: Outcome, rng) -> None:
    verdict = out.verdict
    if not out.decisive or command.name == "oracle-verify":
        return
    if command.name == "decompose" and verdict != "separable":
        return  # decompose emits certificates only for separable states
    out.cert_expected = True
    p = np.asarray(spec.p, dtype=float)
    if command.name == "check-ppt":
        out.cert_reason = ppt_evidence_error(report["ppt"], p, spec.N, spec.d, command.m, rng)
    else:
        cert = report.get("certificate")
        want = "ensemble" if verdict == "separable" else "witness"
        if cert is None:
            out.cert_reason = f"no {want} attached"
        elif cert.get("type") != want:
            out.cert_reason = f"expected a {want}, got {cert.get('type')!r}"
        elif want == "witness":
            out.cert_reason = witness_error(cert, p)
        else:
            out.cert_reason = ensemble_error(cert, p, spec.N, spec.d, report, rng)
    out.cert_ok = out.cert_reason is None


def witness_error(cert: dict, p: np.ndarray) -> str | None:
    shift = {"V": 0, "U": 1}.get(cert.get("family"))
    if shift is None:
        return f"unknown witness family {cert.get('family')!r}"
    c = np.array([complex(re, im) for re, im in cert["coeffs"]])
    idx = np.arange(len(c))
    if len(c) == 0 or 2 * (len(c) - 1) + shift >= len(p):
        return "witness length does not fit the state"
    H = p[idx[:, None] + idx[None, :] + shift]
    value = float(np.real(np.conj(c) @ H @ c))
    slack = FORM_RTOL * float(np.abs(c) @ np.abs(H) @ np.abs(c))
    if not value < -slack:
        return f"form {value:.3e} is not negative beyond {slack:.1e}"
    claimed = cert.get("witness_value")
    if claimed is None or abs(value - claimed) > slack + 1e-6 * abs(value):
        return f"form {value:.6e} does not match witness_value {claimed}"
    return None


def _digit_counts(rng, N: int, d: int, k: int) -> np.ndarray:
    """How often each digit occurs in a random N-digit tuple with digit sum k."""
    digits = np.zeros(N, dtype=int)
    for _ in range(k):
        free = np.flatnonzero(digits < d - 1)
        digits[rng.choice(free)] += 1
    return np.bincount(digits, minlength=d)


def sample_entries(rng, N: int, d: int, count: int) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """(counts_i, counts_j, k_i, k_j): the all-zero and all-top diagonal
    entries, then alternately equal-sum and different-sum pairs."""
    n = N * (d - 1)
    pairs = [(0, 0), (n, n)]
    while len(pairs) < count:
        k = int(rng.integers(0, n + 1))
        if len(pairs) % 2 == 0:
            pairs.append((k, k))
        else:
            other = int(rng.integers(0, n))
            pairs.append((k, other if other < k else other + 1))
    return [(_digit_counts(rng, N, d, a), _digit_counts(rng, N, d, b), a, b) for a, b in pairs]


def ensemble_error(cert: dict, p: np.ndarray, N: int, d: int, report: dict, rng) -> str | None:
    """Entry (i, j) of w |phi><phi|^(x N) is w prod_x phi_x^a_x conj(phi_x)^b_x,
    with a and b the digit counts of i and j; the state has p_k where both
    digit sums are k and 0 elsewhere."""
    weights, vectors, top = [], [], 0.0
    for term in cert["terms"]:
        if term["vector"] == "top":
            top += term["weight"]
        else:
            weights.append(term["weight"])
            vectors.append([complex(re, im) for re, im in term["vector"]])
    w = np.array(weights, dtype=float)
    phi = np.array(vectors, dtype=complex).reshape(len(weights), d)
    residual_bound = report["tolerances"]["residual"] * float(np.max(np.abs(p)))
    for a, b, ka, kb in sample_entries(rng, N, d, ENSEMBLE_SAMPLES):
        contrib = w * np.prod(phi**a * np.conj(phi) ** b, axis=1)
        value = complex(np.sum(contrib))
        scale = float(np.sum(np.abs(contrib)))
        if a[d - 1] == N and b[d - 1] == N:
            value += top
            scale += abs(top)
        expected = p[ka] if ka == kb else 0.0
        if abs(value - expected) > residual_bound + FORM_RTOL * scale:
            return f"entry with digit sums ({ka}, {kb}) is {value:.6e}, state has {expected:.6e}"
    return None


def ppt_offsets(N: int, d: int, m: int) -> list[int]:
    return [0, 1] if N == 2 * m else list(range((N - 2 * m) * (d - 1) + 1))


def hankel_block(p: np.ndarray, N: int, d: int, m: int, s: int) -> np.ndarray:
    lo, hi = max(0, -s), min(m * (d - 1), (N - m) * (d - 1) - s)
    idx = np.arange(lo, hi + 1)
    return p[idx[:, None] + idx[None, :] + s]


def ppt_evidence_error(ppt: dict, p: np.ndarray, N: int, d: int, m: int, rng) -> str | None:
    blocks = ppt["blocks"]
    if [b["s"] for b in blocks] != ppt_offsets(N, d, m):
        return "checked offsets are not the sufficient set"
    failing = [b for b in blocks if b["status"] == "not-psd"]
    if ppt["verdict"] == "ppt":
        if any(b["status"] != "psd" for b in blocks):
            return "ppt verdict with a block that is not psd"
        block = blocks[int(rng.integers(len(blocks)))]
    else:
        if not failing:
            return "not-ppt verdict without a failing block"
        block = min(failing, key=lambda b: b["margin"])
    ev = np.linalg.eigvalsh(hankel_block(p, N, d, m, block["s"]))
    tol = EIG_RTOL * max(1.0, abs(float(ev[-1])))
    if abs(ev[0] - block["lam_min"]) > tol or abs(ev[-1] - block["lam_max"]) > tol:
        return f"block s={block['s']} eigenvalues do not match the recomputation"
    if block["status"] == "not-psd" and not ev[0] < 0:
        return f"block s={block['s']} is reported failing but has no negative eigenvalue"
    return None
