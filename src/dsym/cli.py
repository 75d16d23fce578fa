"""Command-line interface: classify states from JSON spec files and emit a
single JSON report on stdout, one compact line (diagnostics go to stderr).

Spec file format: {"N": int, "d": int, "p": [number or exact-rational string
like "1/9", ...]}.  Rational strings are parsed exactly and converted to
floating point once, at parse time.

Exit codes: 0 positive verdict (ppt / separable), 1 negative verdict,
2 marginal, 3 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .decompose import MARGINAL_REASON, NotSeparableError, SeparableEnsemble, ensemble_from_verdict
from .moment import (
    DEFAULT_RESIDUAL_TOL,
    RecoveryError,
    SeparabilityVerdict,
    is_separable,
)
from .oracle import dense_ppt_check
from .ppt import DEFAULT_PSD_TOL, PPT_WORDS, PPTReport, is_m_ppt
from .states import StateSpec, digit_sum_core
from .witnesses import WitnessSpec

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_MARGINAL = 2
EXIT_ERROR = 3


def parse_spec_file(path: str) -> StateSpec:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return parse_spec_dict(data)


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _coefficient(entry) -> float:
    """One entry of p as a float: a JSON number, or an exact rational string
    like "1/9" converted once."""
    if isinstance(entry, float):
        return entry
    if isinstance(entry, bool) or not isinstance(entry, (str, int)):
        raise ValueError(f"coefficient entries must be numbers or strings, got {entry!r}")
    try:
        return float(Fraction(entry)) if isinstance(entry, str) else float(entry)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"coefficient {entry!r} is not a finite number: {exc}") from exc


def parse_spec_dict(data: dict) -> StateSpec:
    if not isinstance(data, dict):
        raise ValueError("spec file must contain a JSON object")
    for key in ("N", "d", "p"):
        if key not in data:
            raise ValueError(f"spec file is missing required key {key!r}")
    N = _integer(data, "N")
    d = _integer(data, "d")
    if not isinstance(data["p"], list):
        raise ValueError(f"p must be a list of coefficients, got {data['p']!r}")
    return StateSpec(N=N, d=d, p=tuple([_coefficient(entry) for entry in data["p"]]))


def _tolerance(text: str) -> float:
    """Argparse type for tolerances: a finite number >= 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _complex_pairs(values) -> list[list[float]]:
    v = np.asarray(values)
    return np.stack((v.real, v.imag), axis=-1).tolist()


def _witness_json(w: WitnessSpec) -> dict:
    return {
        "type": "witness",
        "family": w.family,
        "coeffs": _complex_pairs(w.coeffs),
        "witness_value": w.witness_value,
    }


def _ensemble_json(e: SeparableEnsemble) -> dict:
    """The certificate's terms, one group at a time: one `tolist` call per
    group converts all of its vectors."""
    terms = []
    for w, vectors in e.groups:
        if isinstance(vectors, str):
            terms.append({"weight": w, "vector": "top"})
            continue
        pairs = _complex_pairs(vectors)
        if np.ndim(vectors) == 1:  # a group of one vector
            pairs = [pairs]
        terms += [{"weight": w, "vector": v} for v in pairs]
    return {"type": "ensemble", "terms": terms, "reconstruction_error": e.reconstruction_error}


def _separability_json(v: SeparabilityVerdict) -> dict:
    out = {
        "verdict": v.verdict,
        "basis": v.basis,
        "even_hankel_min_eigenvalue": v.even.lam_min,
        "odd_hankel_min_eigenvalue": v.odd.lam_min,
    }
    if v.atoms is not None:
        out["measure"] = {
            "atoms": [[t, w] for t, w in v.atoms.atoms],
            "top_mass": v.atoms.top_mass,
            "moment_residual": v.atoms.moment_residual,
        }
    return out


def _ppt_json(report: PPTReport) -> dict:
    columns = zip(
        report.s, report.size, report.lam_min, report.lam_max, report.margin, report.status
    )
    return {
        "m": report.m,
        "verdict": report.verdict,
        "checked_offsets": list(report.s),
        "stopped_at": report.stopped_at,
        "blocks": [
            {"s": s, "size": size, "lam_min": lo, "lam_max": hi, "margin": margin, "status": status}
            for s, size, lo, hi, margin, status in columns
        ],
    }


def _base_report(command: str, spec: StateSpec, psd_tol: float, residual_tol: float) -> dict:
    return {
        "tool": "dsym",
        "version": __version__,
        "command": command,
        "input": {"N": spec.N, "d": spec.d, "p": list(spec.p)},
        "tolerances": {"psd_band": psd_tol, "residual": residual_tol},
    }


def _emit(report: dict, started: float, parsed: float, decided: float) -> None:
    """Write strict JSON on one compact line, or nothing: a non-finite value
    raises ValueError.  The times are perf_counter readings at the command's
    start, after the spec parse and after the verdict; `report_s` runs from
    the verdict to this call, which receives the finished report."""
    reported = time.perf_counter()
    report["timings"] = {
        "total_s": time.perf_counter() - started,
        "parse_s": parsed - started,
        "decide_s": decided - parsed,
        "report_s": reported - decided,
    }
    # every report is a fresh tree of dicts, lists and scalars built in this
    # module, so it cannot hold a cycle and the encoder need not look for one
    text = json.dumps(report, allow_nan=False, check_circular=False, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _recovery_refused(report: dict, exc: RecoveryError) -> None:
    """A separable verdict without a recovered measure: the certificate
    stays null, with the failed recovery as its reason, also on stderr."""
    report["certificate_reason"] = str(exc)
    print(f"certificate unavailable: {exc}", file=sys.stderr)


_VERDICT_EXIT = {
    "ppt": EXIT_POSITIVE,
    "separable": EXIT_POSITIVE,
    "not-ppt": EXIT_NEGATIVE,
    "entangled": EXIT_NEGATIVE,
    "marginal": EXIT_MARGINAL,
}


def cmd_check_ppt(args, psd_tol: float, residual_tol: float) -> int:
    started = time.perf_counter()
    spec = parse_spec_file(args.spec_file)
    parsed = time.perf_counter()
    ppt_report = is_m_ppt(spec, args.m, psd_tol)
    decided = time.perf_counter()
    report = _base_report("check-ppt", spec, psd_tol, residual_tol)
    report["ppt"] = _ppt_json(ppt_report)
    _emit(report, started, parsed, decided)
    return _VERDICT_EXIT[ppt_report.verdict]


def cmd_check_separable(args, psd_tol: float, residual_tol: float) -> int:
    started = time.perf_counter()
    spec = parse_spec_file(args.spec_file)
    parsed = time.perf_counter()
    verdict = is_separable(spec, residual_tol, psd_tol)
    decided = time.perf_counter()
    report = _base_report("check-separable", spec, psd_tol, residual_tol)
    report["separability"] = _separability_json(verdict)
    report["certificate"] = None
    if args.certificate:
        if verdict.recovery_error is not None:
            _recovery_refused(report, verdict.recovery_error)
        elif verdict.verdict == "separable":
            ensemble = ensemble_from_verdict(spec, verdict, args.normalize)
            report["certificate"] = _ensemble_json(ensemble)
        elif verdict.witness is not None:
            report["certificate"] = _witness_json(verdict.witness)
        else:
            report["certificate_reason"] = MARGINAL_REASON
    _emit(report, started, parsed, decided)
    return _VERDICT_EXIT[verdict.verdict]


def cmd_oracle_verify(args, psd_tol: float, residual_tol: float) -> int:
    started = time.perf_counter()
    spec = parse_spec_file(args.spec_file)
    parsed = time.perf_counter()
    mask = tuple(int(c) for c in args.mask)
    core, sums = digit_sum_core(spec.N, spec.d, spec.p)
    status, lam_min, lam_max = dense_ppt_check(core, mask, spec.d, psd_tol, sums)
    oracle = {
        "mask": list(mask),
        "lam_min": lam_min,
        "lam_max": lam_max,
        "status": status,
    }
    m = sum(mask)
    first_m = tuple([1] * m + [0] * (spec.N - m))
    if mask == first_m and 1 <= m <= spec.N // 2:
        fast = is_m_ppt(spec, m, psd_tol)
        oracle["fast_path_verdict"] = fast.verdict
        oracle["agreement"] = (
            None if "marginal" in (fast.verdict, status) else fast.verdict == PPT_WORDS[status]
        )
    decided = time.perf_counter()
    report = _base_report("oracle-verify", spec, psd_tol, residual_tol)
    report["oracle"] = oracle
    _emit(report, started, parsed, decided)
    return _VERDICT_EXIT[PPT_WORDS[status]]


def cmd_decompose(args, psd_tol: float, residual_tol: float) -> int:
    started = time.perf_counter()
    spec = parse_spec_file(args.spec_file)
    parsed = time.perf_counter()
    verdict = is_separable(spec, residual_tol, psd_tol)
    decided = time.perf_counter()
    report = _base_report("decompose", spec, psd_tol, residual_tol)
    report["separability"] = _separability_json(verdict)
    report["certificate"] = None
    try:
        report["certificate"] = _ensemble_json(ensemble_from_verdict(spec, verdict, args.normalize))
    except NotSeparableError as exc:
        report["certificate_reason"] = str(exc)
    except RecoveryError as exc:
        _recovery_refused(report, exc)
    _emit(report, started, parsed, decided)
    return _VERDICT_EXIT[verdict.verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsym",
        description=(
            "Classify diagonal restricted-Dicke multipartite states "
            "(PPT / separability) and emit certificates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec_file", help="JSON file with keys N, d, p")
        p.add_argument(
            "--tol",
            type=_tolerance,
            default=None,
            help="override both the PSD band and the residual tolerance",
        )
        p.add_argument(
            "--residual-tol",
            type=_tolerance,
            default=None,
            help="override only the measure-recovery residual tolerance",
        )

    def normalize(p):
        p.add_argument(
            "--normalize",
            action="store_true",
            help="emit ensemble certificates as convex combinations of unit-trace products",
        )

    p = sub.add_parser("check-ppt", help="decide m-PPT via Hankel blocks")
    common(p)
    p.add_argument("--m", type=int, required=True, help="number of transposed parties")
    p.set_defaults(func=cmd_check_ppt)

    p = sub.add_parser("check-separable", help="decide full separability")
    common(p)
    p.add_argument(
        "--certificate",
        action="store_true",
        help="attach a separable ensemble or a detecting witness",
    )
    normalize(p)
    p.set_defaults(func=cmd_check_separable)

    p = sub.add_parser(
        "oracle-verify", help="dense partial-transpose eigenvalue check"
    )
    common(p)
    p.add_argument(
        "--mask",
        required=True,
        help="0/1 string, one bit per party, 1 = transpose that party",
    )
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("decompose", help="emit a separable decomposition")
    common(p)
    normalize(p)
    p.set_defaults(func=cmd_decompose)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and reused by every
    `main` call (parse_args keeps no state between calls).  `build_parser`
    itself always returns a fresh parser."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means "marginal" here, so remap
        return EXIT_POSITIVE if exc.code in (0, None) else EXIT_ERROR
    psd_tol = DEFAULT_PSD_TOL
    residual_tol = DEFAULT_RESIDUAL_TOL
    if args.tol is not None:
        psd_tol = args.tol
        residual_tol = args.tol
    if args.residual_tol is not None:
        residual_tol = args.residual_tol
    try:
        return args.func(args, psd_tol, residual_tol)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
