"""CLI surface: JSON parsing, report schema, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsym.cli
import dsym.moment
import dsym.oracle
import dsym.states
from dsym.cli import main, parse_spec_dict
from dsym.decompose import (
    SeparableEnsemble,
    ensemble_from_measure,
    ensemble_from_verdict,
    separable_ensemble,
)
from dsym.moment import DEFAULT_RESIDUAL_TOL, MeasureAtoms, RecoveryError, is_separable
from dsym import ppt
from dsym.ppt import DEFAULT_PSD_TOL
from dsym.states import StateSpec
from dsym.witnesses import FAMILY_SHIFT

from conftest import (
    DENSE_VERIFY_MIX,
    SYMMETRIZER_P,
    block_checks,
    far_atom_p,
    fourier_terms,
    geometric_p,
)

COUNTEREXAMPLE = {
    "N": 3,
    "d": 3,
    "p": ["1", "1/4", "1/8", "1/9", "1/8", "1/4", "1"],
}


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if not out:
        return code, None
    assert out.endswith("\n") and out.count("\n") == 1, "a report is one line"
    return code, json.loads(out, parse_constant=_reject_constant)


def _fresh_process(argv):
    """Exit code and stdout of the CLI run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(dsym.cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "dsym.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


def _without_timings(out):
    if not out:
        return None
    report = json.loads(out)
    del report["timings"]
    return report


def test_parser_reuse_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser; build_parser itself stays fresh on each call
    assert dsym.cli.build_parser() is not dsym.cli.build_parser()
    entangled = write_spec(tmp_path, COUNTEREXAMPLE, "entangled.json")
    separable = write_spec(
        tmp_path, {"N": 3, "d": 3, "p": list(geometric_p(3, 3, 0.4))}, "separable.json"
    )
    calls = [
        (["check-separable", entangled, "--tol", "1e-3"], None),
        (["check-separable", entangled], 1),
        (["decompose", separable, "--normalize"], 0),
        (["decompose", separable], 0),
        (["check-ppt", entangled], 3),  # usage error: --m is missing
        (["check-ppt", entangled, "--m", "1"], 0),
    ]
    for argv, expected in calls:
        code = main(argv)
        report = _without_timings(capsys.readouterr().out)
        fresh_code, fresh_out = _fresh_process(argv)
        assert code == fresh_code and expected in (None, code), argv
        assert report == _without_timings(fresh_out), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["check-ppt", "--m", "1"],
        ["check-separable", "--certificate"],
        ["decompose"],
        ["oracle-verify", "--mask", "100"],
    ],
)
def test_timings_name_each_stage(tmp_path, capsys, argv):
    path = write_spec(tmp_path, {"N": 3, "d": 3, "p": list(geometric_p(3, 3, 0.4))})
    code, report = run(capsys, [argv[0], path, *argv[1:]])
    assert code == 0
    timings = report["timings"]
    assert list(timings) == ["total_s", "parse_s", "decide_s", "report_s"]
    assert min(timings.values()) >= 0
    assert timings["parse_s"] + timings["decide_s"] + timings["report_s"] <= timings["total_s"]


def test_rational_strings_parse_exactly():
    spec = parse_spec_dict(COUNTEREXAMPLE)
    assert spec.p[3] == 1.0 / 9.0
    assert spec.p[0] == 1.0


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_spec_dict({"N": 2, "d": 2})
    with pytest.raises(ValueError):
        parse_spec_dict({"N": 2, "d": 2, "p": [1.0, {}, 1.0]})
    with pytest.raises(ValueError):
        parse_spec_dict([1, 2, 3])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            parse_spec_dict({"N": 2, "d": 2, "p": [1.0, bad, 1.0]})
    for p in ("101", {"1": 0, "0": 1, "2": 3}, [1.0, "1/0", 1.0], [1.0, "1e400", 1.0], [True, False, True]):
        with pytest.raises(ValueError):
            parse_spec_dict({"N": 2, "d": 2, "p": p})
    for N, d in ((2.9, 2), (2, 2.5), (True, 2), (2, True), ([2], 2), (None, 2), ("2", 2), (2, "2")):
        with pytest.raises(ValueError):
            parse_spec_dict({"N": N, "d": d, "p": [1.0, 1.0, 1.0]})
    assert parse_spec_dict({"N": 3, "d": 2.0, "p": [1.0] * 4}).d == 2


def test_check_ppt_counterexample(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert code == 0
    assert report["ppt"]["verdict"] == "ppt"
    assert report["ppt"]["checked_offsets"] == [0, 1, 2]
    assert report["ppt"]["stopped_at"] is None
    assert all(b["lam_min"] > 0 for b in report["ppt"]["blocks"])


def test_check_ppt_perturbed_counterexample(tmp_path, capsys):
    # zeroing the middle coefficient breaks positivity of the s=0 block
    data = dict(COUNTEREXAMPLE, p=["1", "1/4", "1/8", "0", "1/8", "1/4", "1"])
    path = write_spec(tmp_path, data)
    code, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert code == 1
    assert report["ppt"]["verdict"] == "not-ppt"


def test_check_ppt_lists_skipped_blocks(tmp_path, capsys):
    # the s = 0 block [[1, 2], [2, 1]] fails, so the s = 1 block, in the next
    # stack, is listed but not decided
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 2, 1]})
    code, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert code == 1
    ppt = report["ppt"]
    assert (ppt["verdict"], ppt["checked_offsets"], ppt["stopped_at"]) == ("not-ppt", [0, 1], 0)
    failing, skipped = ppt["blocks"]
    assert (failing["s"], failing["status"]) == (0, "not-psd")
    assert failing["lam_min"] == pytest.approx(-1.0) and failing["margin"] < 0
    assert skipped == {
        "s": 1, "size": 1, "lam_min": None, "lam_max": None, "margin": None, "status": "skipped"
    }


def _reference_rows(p, N, d, m, tol=DEFAULT_PSD_TOL):
    """The check-ppt rows of every block of the sufficient set, each block
    eigensolved alone and classified by the band rule written out."""
    a, b = m * (d - 1), (N - m) * (d - 1)
    offsets = (0, 1) if N == 2 * m else range((N - 2 * m) * (d - 1) + 1)
    rows = []
    for s in offsets:
        k = np.arange(min(a, b - s) + 1)
        ev = np.linalg.eigvalsh(np.asarray(p)[k[:, None] + k + s])
        lam_min, lam_max = float(ev[0]), float(ev[-1])
        band = tol * max(1.0, lam_max)
        if lam_min < -band:
            status = "not-psd"
        elif lam_min < -band * ppt.NOISE_FRACTION:
            status = "marginal"
        else:
            status = "psd"
        rows.append((s, len(k), lam_min.hex(), lam_max.hex(), (lam_min + band).hex(), status))
    return rows


def _rows(report):
    """The report's rows in the form of `_reference_rows`, floats as hex."""

    def hexed(x):
        return None if x is None else x.hex()

    return [
        (b["s"], b["size"], *(hexed(b[k]) for k in ("lam_min", "lam_max", "margin")), b["status"])
        for b in report["ppt"]["blocks"]
    ]


def _moments(n, nodes=(0.3, 0.8, 1.02), weights=(0.5, 0.3, 0.2)):
    """p_k = sum_a w_a t_a^k, k = 0..n: separable, so PPT at every m."""
    return (np.asarray(weights) @ np.asarray(nodes)[:, None] ** np.arange(n + 1)).tolist()


@pytest.mark.parametrize("N, m", [(200, 1), (400, 100)], ids=["m=1", "pooled"])
def test_check_ppt_rows_are_exact(tmp_path, capsys, two_cpus, N, m):
    # every row of a PPT check, the 199 two-row blocks at m = 1 and the 201
    # blocks of 101 rows decided on two worker threads, is the per-block
    # eigvalsh decision bit for bit
    p = _moments(N)
    path = write_spec(tmp_path, {"N": N, "d": 2, "p": p})
    code, report = run(capsys, ["check-ppt", path, "--m", str(m)])
    assert code == 0 and report["ppt"]["verdict"] == "ppt"
    assert _rows(report) == _reference_rows(p, N, 2, m)
    assert len(two_cpus) == (2 if m > 1 else 0)


def test_check_ppt_rows_after_the_failing_stack_are_skipped(tmp_path, capsys, two_cpus):
    # halving p_250 fails every block of offset 50..200; the blocks of 101
    # rows are cut 12 to a stack, block 0 then split off, so block 50 is in
    # the stack 48..59 and the rows from 60 on are skipped, with null numbers
    p = _moments(400)
    p[250] /= 2
    path = write_spec(tmp_path, {"N": 400, "d": 2, "p": p})
    code, report = run(capsys, ["check-ppt", path, "--m", "100"])
    assert code == 1
    ppt_report = report["ppt"]
    assert (ppt_report["verdict"], ppt_report["stopped_at"]) == ("not-ppt", 50)
    assert ppt.STACK_BYTES // (8 * 101**2) == 12
    rows, reference = _rows(report), _reference_rows(p, 400, 2, 100)
    assert rows[:60] == reference[:60]
    assert [row[5] for row in rows[:60]].count("not-psd") == 10
    assert rows[60:] == [(s, 101, None, None, None, "skipped") for s in range(60, 201)]


def test_check_ppt_builds_no_block_record(tmp_path, capsys, monkeypatch):
    # check-ppt reports its rows from the report's columns: it runs with
    # every PsdCheck refused, and the margin column is each block's
    # lam_min + band, None for a skipped block
    def refused(self, *args, **kwargs):
        raise AssertionError("a per-block check was built")

    p = _moments(250)
    path = write_spec(tmp_path, {"N": 250, "d": 2, "p": p})
    monkeypatch.setattr(ppt.PsdCheck, "__init__", refused)
    for m in ("1", "62"):
        code, report = run(capsys, ["check-ppt", path, "--m", m])
        assert code == 0 and report["ppt"]["verdict"] == "ppt"
    monkeypatch.undo()
    p[120] = 0.0
    columns = ppt.is_m_ppt(StateSpec(250, 2, tuple(p)), 62)
    assert columns.status.count("skipped") > 0
    assert [c.margin for c in block_checks(columns)] == list(columns.margin)


def test_check_ppt_geometric(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 4, "d": 2, "p": list(geometric_p(4, 2, 0.5))})
    code, report = run(capsys, ["check-ppt", path, "--m", "2"])
    assert code == 0


def test_check_ppt_parse_error_exit_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["check-ppt", str(path), "--m", "1"])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", '"1/0"', '"1e400"'])
def test_non_finite_coefficient_exit_3(tmp_path, capsys, bad):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"N": 2, "d": 2, "p": [1, {bad}, 1]}}')
    assert main(["check-separable", str(path), "--certificate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_overflowed_spectrum_exit_3(tmp_path, capsys):
    # coefficients near the float maximum overflow a Hankel spectrum to inf,
    # which is an error, not a psd verdict with an infinite band
    p = 1.7e308 * np.random.default_rng(0).uniform(0.5, 1, 21)
    path = write_spec(tmp_path, {"N": 20, "d": 2, "p": p.tolist()})
    for argv in (["check-separable", path, "--certificate"], ["check-ppt", path, "--m", "5"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float range" in captured.err


@pytest.mark.parametrize(
    "N, d", [([2], 2), (None, 2), ("2", 2), (2, "2")], ids=["list", "null", "string-N", "string-d"]
)
def test_non_integer_dimension_exit_3(tmp_path, capsys, N, d):
    path = write_spec(tmp_path, {"N": N, "d": d, "p": [1, 0.5, 0.25]})
    assert main(["check-separable", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer" in captured.err


def test_non_finite_report_prints_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dsym.cli, "dense_ppt_check", lambda *args: ("psd", float("nan"), 1.0))
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 1, 1]})
    assert main(["oracle-verify", path, "--mask", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "JSON" in captured.err


def test_check_ppt_missing_file_exit_3(tmp_path, capsys):
    code = main(["check-ppt", str(tmp_path / "nope.json"), "--m", "1"])
    assert code == 3


def test_usage_errors_exit_3_not_2(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    assert main(["check-ppt", path]) == 3  # missing --m
    assert main(["no-such-command"]) == 3
    entangled = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 2, 1]}, "entangled.json")
    separable = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 0.5, 0.25]}, "separable.json")
    capsys.readouterr()
    for argv in (
        ["check-separable", entangled, "--certificate", "--tol", "nan"],
        ["check-separable", entangled, "--certificate", "--tol", "inf"],
        ["check-ppt", entangled, "--m", "1", "--tol", "nan"],
        ["check-separable", separable, "--certificate", "--tol", "-1"],
        ["check-separable", separable, "--certificate", "--residual-tol", "-inf"],
    ):
        assert main(argv) == 3
        assert capsys.readouterr().out == ""


def test_m_out_of_range_exit_3(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    assert main(["check-ppt", path, "--m", "3"]) == 3


def test_check_separable_counterexample(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 1
    assert report["separability"]["verdict"] == "entangled"
    cert = report["certificate"]
    assert cert["type"] == "witness"
    assert cert["family"] == "V"
    assert cert["witness_value"] < -1e-4


def test_check_separable_geometric_with_ensemble(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 3, "d": 3, "p": list(geometric_p(3, 3, 0.4))})
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 0
    assert report["separability"]["verdict"] == "separable"
    cert = report["certificate"]
    assert cert["type"] == "ensemble"
    assert len(cert["terms"]) == 7
    assert cert["reconstruction_error"] < 1e-10


def test_check_separable_two_point_state(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 0, 1]})
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 0
    cert = report["certificate"]
    assert len(cert["terms"]) == 2
    assert {t["vector"] == "top" for t in cert["terms"]} == {True, False}


@pytest.mark.parametrize("command", [["decompose"], ["check-separable", "--certificate"]])
def test_separable_certificate_decides_once(tmp_path, capsys, count_calls, command):
    counts = count_calls(dsym.moment, "is_generalized_moment_solution", "recover_atomic_measure")
    path = write_spec(tmp_path, {"N": 3, "d": 3, "p": list(geometric_p(3, 3, 0.4))})
    code, report = run(capsys, [command[0], path, *command[1:]])
    assert code == 0
    assert report["certificate"]["type"] == "ensemble"
    assert counts == {"is_generalized_moment_solution": 1, "recover_atomic_measure": 1}


def test_entangled_certificate_decomposes_each_hankel_once(tmp_path, capsys, eigensolves):
    # the verdict takes each moment Hankel's eigenvalues once; the witness
    # Hankel alone is solved again, for its eigenvector
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 1
    witness = report["certificate"]
    assert witness["type"] == "witness"
    assert [name for name, _ in eigensolves] == ["eigvalsh", "eigvalsh", "eigh"]
    p = np.array([float(Fraction(x)) for x in COUNTEREXAMPLE["p"]])
    H = ppt.hankel(p, len(witness["coeffs"]), FAMILY_SHIFT[witness["family"]])
    np.testing.assert_array_equal(eigensolves[2][1], H[None], strict=True)


def test_only_a_certificate_builds_the_witness(tmp_path, capsys, eigensolves):
    # decompose reports no witness, so its entangled verdict solves each
    # moment Hankel for eigenvalues alone and never for a vector
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["decompose", path])
    assert code == 1 and report["certificate"] is None
    assert [name for name, _ in eigensolves] == ["eigvalsh", "eigvalsh"]
    eigensolves.clear()
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 1 and report["certificate"]["type"] == "witness"
    assert [name for name, _ in eigensolves].count("eigh") == 1


def _agreement_specs():
    """Specs where the PPT blocks s = 0 and 1 at m = N // 2 are the two moment
    Hankels (even N, and odd N for qubits): seeded random, separable and
    entangled sequences, the D-symmetrizer projectors, and the counterexample's
    sequence read as six qubits and as two ququarts."""
    rng = np.random.default_rng(212)
    specs = [{"N": 6, "d": 2, "p": COUNTEREXAMPLE["p"]}, {"N": 2, "d": 4, "p": COUNTEREXAMPLE["p"]}]
    sizes = [(2, 2), (3, 2), (4, 2), (7, 2), (10, 2), (21, 2), (40, 2), (61, 2), (100, 2)]
    sizes += [(2, 3), (4, 3), (8, 3), (20, 3), (2, 4), (4, 4), (10, 4)]
    for N, d in sizes:
        n = N * (d - 1)
        separable = _moments(n, rng.uniform(0, 1.5, 3), rng.uniform(0.1, 1, 3))
        entangled = list(separable)
        entangled[min(6, n)] *= 0.5
        for p in (rng.uniform(0, 1, n + 1).tolist(), separable, entangled):
            specs.append({"N": N, "d": d, "p": p})
    for N, d in [(N, 2) for N in range(2, 9)] + [(4, 3), (6, 3), (8, 3), (4, 4), (6, 4)]:
        counts = dsym.states.composition_counts(N, d)
        specs.append({"N": N, "d": d, "p": [f"1/{int(c)}" for c in counts]})
    return specs


def test_half_ppt_blocks_agree_with_the_moment_hankels(tmp_path, capsys):
    # the same matrices give the same bits, and the same verdict, either way
    words = {"ppt": "separable", "not-ppt": "entangled", "marginal": "marginal"}
    decided = 0
    for spec in _agreement_specs():
        path = write_spec(tmp_path, spec)
        _, ppt_report = run(capsys, ["check-ppt", path, "--m", str(spec["N"] // 2)])
        _, sep_report = run(capsys, ["check-separable", path])
        ppt_report, sep = ppt_report["ppt"], sep_report["separability"]
        assert words[ppt_report["verdict"]] == sep["verdict"], spec
        keys = ("even_hankel_min_eigenvalue", "odd_hankel_min_eigenvalue")
        for block, key in zip(ppt_report["blocks"], keys):
            assert block["size"] == (spec["N"] * (spec["d"] - 1) - block["s"]) // 2 + 1
            if block["status"] != "skipped":
                assert block["lam_min"].hex() == sep[key].hex(), (spec, key)
                decided += 1
    assert decided >= 80


def _entangled_p(rng, n, kind):
    """An entangled sequence of length n + 1 whose failing moment Hankels are
    `kind`: both (p_{2r} of an r-atom measure lowered), the even one (p_n
    lowered), or the odd one (a light atom at a negative node)."""
    r = int(rng.integers(1, 5))
    nodes, weights = rng.uniform(0.5, 1.0, r), rng.uniform(0.1, 1.0, r)
    if kind == "odd":
        nodes = np.append(nodes, -rng.uniform(0.2, 0.4))
        weights = np.append(weights, rng.uniform(0.01, 0.05) * weights.min())
    p = weights @ nodes[:, None] ** np.arange(n + 1)
    dip = 1 - rng.uniform(0.1, 0.9)
    if kind == "both":
        p[2 * r] *= dip
    elif kind == "even":
        p[n] *= dip
    return p.tolist()


def test_every_witness_is_decisively_negative(tmp_path, capsys):
    # the witness's vector now comes from a solve of its own: its form must
    # still detect, beyond the rounding of its own evaluation
    rng = np.random.default_rng(212)
    bases = set()
    for n in (16, 48, 96, 160):
        for i in range(12):
            p = _entangled_p(rng, n, ("both", "even", "odd")[i % 3])
            path = write_spec(tmp_path, {"N": n, "d": 2, "p": p})
            code, report = run(capsys, ["check-separable", path, "--certificate"])
            if code != 1:
                continue  # the absolute band's blind spot (ROADMAP item 1)
            witness = report["certificate"]
            bases.add(report["separability"]["basis"])
            pairs = np.array(witness["coeffs"])
            c = pairs[:, 0] + 1j * pairs[:, 1]
            H = ppt.hankel(p, len(c), FAMILY_SHIFT[witness["family"]])
            form = float((c.conj() @ H @ c).real)
            assert form < -1e-12 * (np.abs(c) @ np.abs(H) @ np.abs(c)), (n, i)
            assert form == witness["witness_value"], (n, i)
    assert bases == {"both", "even-hankel", "odd-hankel"}


@pytest.fixture
def unrecovered(tmp_path, monkeypatch):
    """Path of a separable spec whose measure recovery is made to fail."""

    def fail(p, tol):
        raise RecoveryError(
            "no atomic measure met the residual bound 1.000e-09: "
            "gauss rule, 1 atom: residual 1.000e-03 > bound"
        )

    monkeypatch.setattr(dsym.moment, "recover_atomic_measure", fail)
    return write_spec(tmp_path, {"N": 3, "d": 3, "p": list(geometric_p(3, 3, 0.4))})


def test_missing_certificate_states_its_reason(unrecovered, capsys):
    path = unrecovered
    code = main(["check-separable", path, "--certificate"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert report["separability"]["verdict"] == "separable"
    assert report["certificate"] is None
    assert report["certificate_reason"].startswith("no atomic measure met the residual bound")
    assert "certificate unavailable" in captured.err


def test_decompose_reports_a_failed_recovery(unrecovered, capsys):
    # as check-separable --certificate does: the separable verdict's exit
    # code and a report whose null certificate says why
    path = unrecovered
    code = main(["decompose", path])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert report["separability"]["verdict"] == "separable"
    assert report["certificate"] is None
    assert report["certificate_reason"].startswith("no atomic measure met the residual bound")
    assert captured.err.startswith("certificate unavailable: no atomic measure met the residual bound")
    main(["check-separable", path, "--certificate"])
    separable = capsys.readouterr()
    assert separable.err == captured.err
    assert json.loads(separable.out)["certificate_reason"] == report["certificate_reason"]


MARGINAL = {"N": 2, "d": 2, "p": [1.0, 0.5, 0.25 - 3e-11]}


@pytest.mark.parametrize(
    "command, spec, verdict, reason",
    [
        (["check-separable", "--certificate"], MARGINAL, "marginal", "verdict is marginal: "),
        (["decompose"], MARGINAL, "marginal", "verdict is marginal: a moment Hankel's minimum eigenvalue"),
        (["decompose"], COUNTEREXAMPLE, "entangled", "state is entangled; no separable decomposition exists"),
    ],
    ids=["check-separable-marginal", "decompose-marginal", "decompose-entangled"],
)
def test_every_missing_certificate_states_its_reason(tmp_path, capsys, command, spec, verdict, reason):
    path = write_spec(tmp_path, spec)
    code = main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == (2 if verdict == "marginal" else 1)
    assert report["separability"]["verdict"] == verdict
    assert report["certificate"] is None
    assert report["certificate_reason"].startswith(reason)
    assert captured.err == ""


@pytest.mark.parametrize("N", [48, 128])
def test_geometric_certificate_at_large_n(tmp_path, capsys, N):
    # p_k = 2^k is the moment sequence of one atom at 2, whose moments grow
    # far past the scale of the first one
    path = write_spec(tmp_path, {"N": N, "d": 2, "p": [2.0**k for k in range(N + 1)]})
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 0
    assert report["certificate"]["type"] == "ensemble"
    measure = report["separability"]["measure"]
    np.testing.assert_allclose(measure["atoms"], [[2.0, 1.0]], rtol=1e-12)
    assert measure["top_mass"] == 0.0


def test_decompose_odd_n_with_more_atoms_than_gauss_nodes(tmp_path, capsys):
    # six qubit atoms and a top mass at n = 9, more atoms than the Gauss
    # rule's five nodes: the rule pinned at 0 on p_0..p_8 certifies the state
    nodes = np.linspace(0.25, 1.5, 6)
    p = 0.5 * (nodes[:, None] ** np.arange(10)).sum(axis=0)
    p[9] *= 1.5
    path = write_spec(tmp_path, {"N": 9, "d": 2, "p": list(p)})
    code, report = run(capsys, ["decompose", path])
    assert code == 0
    cert = report["certificate"]
    assert cert["type"] == "ensemble"
    assert cert["reconstruction_error"] < 1e-10
    assert any(t["vector"] == "top" for t in cert["terms"])


def test_empty_far_atom_is_refused_on_its_residual(tmp_path, capsys):
    # a separable spec whose rule pinned at 0 has an empty atom with NaN top
    # moment; the report stays strict JSON (run rejects NaN) and names the
    # residual of each rule
    path = str(Path(__file__).parent / "data" / "empty_far_atom.json")
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 0
    assert report["separability"]["verdict"] == "separable"
    assert report["certificate"] is None
    assert "radau rule, 6 atoms: residual" in report["certificate_reason"]
    assert "overflow" not in report["certificate_reason"]

    code, decomposed = run(capsys, ["decompose", path])
    assert code == 0 and decomposed["certificate"] is None
    assert decomposed["certificate_reason"] == report["certificate_reason"]


def test_oracle_verify_counterexample_masks(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["oracle-verify", path, "--mask", "100"])
    assert code == 0
    oracle = report["oracle"]
    assert oracle["lam_min"] >= -1e-10
    assert oracle["agreement"] is True
    assert oracle["fast_path_verdict"] == "ppt"

    code2, report2 = run(capsys, ["oracle-verify", path, "--mask", "001"])
    assert code2 == code
    assert abs(report2["oracle"]["lam_min"] - oracle["lam_min"]) < 1e-12


def test_symmetrizer_is_strictly_ppt_and_entangled(tmp_path, capsys):
    # d_symmetrizer(3, 3) / 7: every 1-PPT block is positive definite, so the
    # verdicts need no tolerance, and the state is still entangled
    path = write_spec(tmp_path, {"N": 3, "d": 3, "p": list(SYMMETRIZER_P)})
    code, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert code == 0 and report["ppt"]["verdict"] == "ppt"
    code, report = run(capsys, ["check-separable", path, "--certificate"])
    assert code == 1 and report["separability"]["verdict"] == "entangled"
    assert report["certificate"]["type"] == "witness"
    assert report["certificate"]["witness_value"] < 0
    code, report = run(capsys, ["oracle-verify", path, "--mask", "100"])
    assert code == 0 and report["oracle"]["status"] == "psd"


# qubit p_k = 2^k with p_{n/2} scaled by f < 1: entangled and not n/2-PPT
SCALE_PROBE = [(n, f) for n in (96, 128, 256) for f in (0.5, 0.9)]
ABSOLUTE_BAND = "the band tol * max(1, lam_max) swallows the decisive eigenvalue"


def scale_probe_p(n, f):
    p = [2.0**k for k in range(n + 1)]
    p[n // 2] *= f
    return p


@pytest.mark.parametrize("n,f", SCALE_PROBE)
def test_scale_probe_has_an_exact_negative_witness(n, f):
    # x = e_{n/4} - 2^{n/4-k} e_k on the even moment Hankel (p_{i+j}),
    # i, j = 0..n/2, which is also the n/2-PPT block P_0, in exact arithmetic
    p = [Fraction(x) for x in scale_probe_p(n, f)]
    for k in range(n // 2 + 1):
        if k != n // 4:
            x = {n // 4: Fraction(1), k: -Fraction(2) ** (n // 4 - k)}
            value = sum(xi * xj * p[i + j] for i, xi in x.items() for j, xj in x.items())
            assert value == (Fraction(f) - 1) * 2 ** (n // 2) < 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ABSOLUTE_BAND)
@pytest.mark.parametrize("n,f", SCALE_PROBE)
def test_scale_probe_is_entangled(tmp_path, capsys, n, f):
    path = write_spec(tmp_path, {"N": n, "d": 2, "p": scale_probe_p(n, f)})
    assert run(capsys, ["check-separable", path])[1]["separability"]["verdict"] == "entangled"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ABSOLUTE_BAND)
@pytest.mark.parametrize("n,f", SCALE_PROBE)
def test_scale_probe_is_not_half_ppt(tmp_path, capsys, n, f):
    path = write_spec(tmp_path, {"N": n, "d": 2, "p": scale_probe_p(n, f)})
    assert run(capsys, ["check-ppt", path, "--m", str(n // 2)])[1]["ppt"]["verdict"] == "not-ppt"


def test_oracle_verify_calls_the_oracle_through_its_module_names(tmp_path, capsys, count_calls):
    # the benchmark's trace wraps `dsym.cli.dense_ppt_check` and
    # `dsym.oracle.partial_transpose` where they are looked up; the check
    # reads the partial transpose off the state and never builds it
    assert dsym.cli.dense_ppt_check is dsym.oracle.dense_ppt_check
    count_calls(dsym.cli, "dense_ppt_check")
    counts = count_calls(dsym.oracle, "partial_transpose")
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["oracle-verify", path, "--mask", "010"])
    assert code == 0 and report["oracle"]["status"] == "psd"
    assert counts == {"dense_ppt_check": 1, "partial_transpose": 0}


@pytest.mark.parametrize("N, d", [(10, 2), (5, 4)])
def test_oracle_verify_builds_no_dense_state(tmp_path, capsys, count_calls, N, d):
    # the command hands the oracle the state's N(d-1)+1 distinct rows and
    # its digit sums as the row map: no d^N x d^N state is built, and the
    # command's peak stays below 1/8 of one (1 MiB at d^N = 1024)
    counts = count_calls(dsym.states, "build_state", "digit_sum_operator")
    dense_bytes = (d**N) ** 2 * 8
    p = np.random.default_rng(89).uniform(0.0, 1.0, N * (d - 1) + 1)
    path = write_spec(tmp_path, {"N": N, "d": d, "p": p.tolist()})
    for mask in ("1" * (N // 2) + "0" * (N - N // 2), ("10" * N)[:N]):
        argv = ["oracle-verify", path, "--mask", mask]
        expected = run(capsys, argv)  # also warms the cached digit tables
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert (code, json.loads(out)["oracle"]) == (expected[0], expected[1]["oracle"])
        assert peak < dense_bytes / 8, (mask, peak)
    assert counts == {"build_state": 0, "digit_sum_operator": 0}


def _quotient_by_equal_rows(P):
    """P at the first row and column of each class of exactly equal rows, in
    first-row order, scaled on both sides by the root of the class sizes."""
    first, sizes = {}, {}
    for i, row in enumerate(map(tuple, P.tolist())):
        first.setdefault(row, i)
        sizes[row] = sizes.get(row, 0) + 1
    r = np.array(list(first.values()))
    root = np.sqrt(np.array(list(sizes.values()), dtype=float))
    Q = P[np.ix_(r, r)]
    Q *= root[:, None]
    Q *= root
    return Q


@pytest.mark.parametrize("d, N", DENSE_VERIFY_MIX)
def test_oracle_verify_eigensolves_the_partial_transposes_own_quotient(tmp_path, capsys, eigensolves, d, N):
    # the one matrix the oracle hands eigvalsh is, byte for byte, the
    # quotient of the built partial transpose by its own equal rows
    rng = np.random.default_rng(91)
    p = rng.uniform(0.0, 1.0, N * (d - 1) + 1)
    with_zeros = p.copy()
    with_zeros[rng.choice(len(p), size=len(p) // 3, replace=False)] = 0.0
    w = N // 2
    for q in (p, with_zeros):
        spec = StateSpec(N, d, tuple(q))
        path = write_spec(tmp_path, {"N": N, "d": d, "p": q.tolist()})
        for mask in ("1" * w + "0" * (N - w), ("10" * N)[:N]):
            eigensolves.clear()
            run(capsys, ["oracle-verify", path, "--mask", mask])
            name, received = eigensolves[0]
            P = dsym.oracle.partial_transpose(dsym.states.build_state(spec), [int(b) for b in mask], d)
            expected = _quotient_by_equal_rows(P)
            assert name == "eigvalsh", (mask, q is p)
            assert (received.dtype, received.shape) == (expected.dtype, expected.shape)
            assert received.tobytes() == expected.tobytes(), (mask, q is p)


def test_oracle_verify_not_psd_exit_1(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 2, 1]})
    code, report = run(capsys, ["oracle-verify", path, "--mask", "10"])
    assert code == 1
    assert report["oracle"]["status"] == "not-psd"
    assert report["oracle"]["fast_path_verdict"] == "not-ppt"
    assert report["oracle"]["agreement"] is True


def test_oracle_verify_all_ones(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 1, 1]})
    code, report = run(capsys, ["oracle-verify", path, "--mask", "10"])
    assert code == 0
    assert report["oracle"]["status"] == "psd"


def test_oracle_verify_respects_dense_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DSYM_DENSE_CAP", "4")
    path = write_spec(tmp_path, {"N": 2, "d": 3, "p": [1, 1, 1, 1, 1]})
    code = main(["oracle-verify", path, "--mask", "10"])
    assert code == 3


def test_decompose_separable(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 0, 1]})
    code, report = run(capsys, ["decompose", path])
    assert code == 0
    assert report["certificate"]["type"] == "ensemble"
    assert report["certificate"]["reconstruction_error"] < 1e-10


def test_decompose_normalized_weights_sum_to_one(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1, 0, 1]})
    code, report = run(capsys, ["decompose", path, "--normalize"])
    assert code == 0
    total = sum(t["weight"] for t in report["certificate"]["terms"])
    assert total == pytest.approx(1.0)


def test_decompose_normalized_far_atom_at_large_n(tmp_path, capsys):
    # each term's weight * norm**(2N) overflows; the normalized weights do not
    path = write_spec(tmp_path, {"N": 400, "d": 2, "p": list(far_atom_p(400))})
    code, report = run(capsys, ["decompose", path, "--normalize"])
    assert code == 0
    weights = [t["weight"] for t in report["certificate"]["terms"]]
    np.testing.assert_allclose(weights, 1 / 401, rtol=1e-10)


def test_decompose_normalized_error_is_against_the_normalized_state(tmp_path, capsys):
    # two atoms, trace ~4.7e4: the unnormalized ensemble's error must not be
    # reported for the normalized one
    from dsym.decompose import SeparableEnsemble
    from dsym.oracle import ensemble_matrix
    from dsym.states import StateSpec, build_state

    N, d = 6, 2
    p = [0.5**k + 5.0**k for k in range(N + 1)]
    path = write_spec(tmp_path, {"N": N, "d": d, "p": p})
    code, report = run(capsys, ["decompose", path, "--normalize"])
    assert code == 0
    cert = report["certificate"]
    terms = tuple(
        (t["weight"], t["vector"] if t["vector"] == "top" else [complex(*z) for z in t["vector"]])
        for t in cert["terms"]
    )
    rho = build_state(StateSpec(N, d, tuple(p)), normalize=True)
    dense = np.linalg.norm(ensemble_matrix(SeparableEnsemble(N, d, terms)) - rho)
    assert abs(cert["reconstruction_error"] - dense) <= 1e-12 * np.linalg.norm(rho)


def test_decompose_reports_error_above_the_dense_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DSYM_DENSE_CAP", "4")
    path = write_spec(tmp_path, {"N": 8, "d": 2, "p": geometric_p(8, 2, 0.5)})
    code, report = run(capsys, ["decompose", path])
    assert code == 0
    assert 0.0 <= report["certificate"]["reconstruction_error"] < 1e-10


# atoms at 0, 0.4 and 1.7 plus a top mass: every kind of ensemble term
MIXED_MEASURE = MeasureAtoms(
    atoms=((0.0, 0.2), (0.4, 0.3), (1.7, 0.1)), top_mass=0.05, moment_residual=0.0
)
MIXED = {"N": 3, "d": 3, "p": MIXED_MEASURE.reproduced(6).tolist()}


def _per_term_ensemble_json(terms, reconstruction_error):
    """An ensemble certificate converted one term at a time."""
    out = []
    for weight, phi in terms:
        if isinstance(phi, str):
            out.append({"weight": weight, "vector": "top"})
        else:
            out.append({"weight": weight, "vector": np.column_stack((phi.real, phi.imag)).tolist()})
    return {"type": "ensemble", "terms": out, "reconstruction_error": reconstruction_error}


def test_ensemble_json_matches_per_term_reference():
    ensemble = ensemble_from_measure(parse_spec_dict(MIXED), MIXED_MEASURE)
    # one term for the atom at 0, L = 7 per interior atom, the top state last
    assert len(ensemble.terms) == 1 + 7 + 7 + 1 and ensemble.terms[-1][1] == "top"
    expected = _per_term_ensemble_json(ensemble.terms, ensemble.reconstruction_error)
    assert dsym.cli._ensemble_json(ensemble) == json.dumps(expected, separators=(",", ":"))


def _compact(data):
    return json.dumps(data, separators=(",", ":"))


def _cli_stdout(argv):
    """Exit code and stdout of `main`, without pytest's function fixtures."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def certified_measures(draw):
    """A measure with atoms at 0, below 1 and above 1 (each in some draws)
    and an optional top mass, for d in 2..4 and 2 <= N <= 40."""
    d = draw(st.integers(2, 4))
    N = draw(st.integers(2, 40))
    weight = st.floats(0.1, 1.0)
    atoms = []
    if draw(st.booleans()):
        atoms.append((0.0, draw(weight)))
    if draw(st.booleans()):
        atoms.append((draw(st.floats(0.2, 0.8)), draw(weight)))
    if not atoms or draw(st.booleans()):
        atoms.append((draw(st.floats(1.2, 1.6)), draw(weight)))
    top = draw(st.sampled_from([0.0, 0.5])) * draw(weight)
    return N, d, MeasureAtoms(tuple(atoms), top, 0.0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(certified_measures())
def test_certificate_stdout_matches_per_term_reference(case):
    N, d, measure = case
    spec = StateSpec(N, d, tuple(measure.reproduced(N * (d - 1)).tolist()))
    verdict = is_separable(spec)
    assume(verdict.verdict == "separable" and verdict.recovery_error is None)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spec(Path(tmp), {"N": N, "d": d, "p": list(spec.p)})
        for normalize in (False, True):
            ensemble = ensemble_from_verdict(spec, verdict, normalize)
            expected = _per_term_ensemble_json(ensemble.terms, ensemble.reconstruction_error)
            flag = ["--normalize"] if normalize else []
            for argv in (["decompose", path, *flag], ["check-separable", path, "--certificate", *flag]):
                code, out = _cli_stdout(argv)
                report = json.loads(out)
                report["certificate"] = expected
                assert code == 0 and out == _compact(report) + "\n", argv


def test_signed_zeros_render_as_json_dumps_does():
    # -0.0 == 0.0, so only their bit patterns keep the two texts apart
    vectors = np.array([[1.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), complex(-0.0, -0.0)]])
    ensemble = SeparableEnsemble(
        2,
        2,
        ((0.25, vectors), (-0.0, np.array([complex(0.0, -0.0), 0.5])), (0.0, "top")),
        -0.0,
    )
    got = dsym.cli._ensemble_json(ensemble)
    assert got == _compact(_per_term_ensemble_json(ensemble.terms, -0.0))
    assert "[-0.0,0.0]" in got and "[0.0,-0.0]" in got and "[-0.0,-0.0]" in got


def test_non_finite_certificate_raises_and_prints_nothing(tmp_path, capsys, monkeypatch):
    inf_vector = np.array([1.0, complex(0.0, math.inf)])
    ensemble = SeparableEnsemble(2, 2, ((0.5, inf_vector),), 0.0)
    with pytest.raises(ValueError, match="JSON"):
        dsym.cli._ensemble_json(ensemble)
    monkeypatch.setattr(dsym.cli, "ensemble_from_verdict", lambda *args: ensemble)
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1.0, 0.5, 0.25]})
    for argv in (["decompose", path], ["check-separable", path, "--certificate"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "JSON" in captured.err


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["check-ppt", "--m", "1"], MIXED),
        (["check-separable", "--certificate"], MIXED),
        (["check-separable", "--certificate"], COUNTEREXAMPLE),
        (["decompose", "--normalize"], MIXED),
        (["oracle-verify", "--mask", "101"], MIXED),
    ],
    ids=["check-ppt", "ensemble", "witness", "decompose", "oracle-verify"],
)
def test_stdout_is_its_own_compact_dump(tmp_path, capsys, argv, spec):
    main([argv[0], write_spec(tmp_path, spec), *argv[1:]])
    out = capsys.readouterr().out
    assert _compact(json.loads(out)) + "\n" == out


def test_decompose_stdout_matches_per_term_reference(tmp_path, capsys):
    spec = parse_spec_dict(MIXED)
    verdict = is_separable(spec)
    atoms = verdict.atoms
    assert len(atoms.atoms) == 3 and atoms.atoms[0][0] == 0.0 and atoms.top_mass > 0
    assert main(["decompose", write_spec(tmp_path, MIXED)]) == 0
    out = capsys.readouterr().out
    # the ensemble as built one Fourier vector at a time, top state last
    terms = [(atoms.atoms[0][1], np.eye(3, dtype=complex)[0])]
    for t, w in atoms.atoms[1:]:
        terms += [(w * sub_w, phi) for sub_w, phi in fourier_terms(3, 3, t)]
    terms.append((atoms.top_mass, "top"))
    error = separable_ensemble(spec).reconstruction_error
    expected = dsym.cli._base_report("decompose", spec, DEFAULT_PSD_TOL, DEFAULT_RESIDUAL_TOL)
    expected["separability"] = dsym.cli._separability_json(verdict)
    expected["certificate"] = _per_term_ensemble_json(terms, error)
    expected["timings"] = json.loads(out)["timings"]
    assert out == json.dumps(expected, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "command", [["decompose", "--normalize"], ["check-separable", "--certificate", "--normalize"]]
)
def test_normalized_certificate_matches_per_term_reference(tmp_path, capsys, command):
    spec = parse_spec_dict(MIXED)
    atoms = is_separable(spec).atoms
    assert len(atoms.atoms) == 3 and atoms.atoms[0][0] == 0.0 and atoms.top_mass > 0
    code, report = run(capsys, [command[0], write_spec(tmp_path, MIXED), *command[1:]])
    assert code == 0
    # one log-weight per group from the closed-form squared norm sum_{i<d} t^i
    # of its vectors, then each term's unit vector built and converted alone
    N, d = spec.N, spec.d
    logs, counts, terms = [], [], []
    for t, w in atoms.atoms:
        if t == 0.0:
            group = [(w, np.eye(d, dtype=complex)[0])]
        else:
            group = [(w * sub_w, phi) for sub_w, phi in fourier_terms(N, d, t)]
        norm2 = math.fsum(t**i for i in range(d))
        logs.append(math.log(group[0][0]) + N * math.log(norm2))
        counts.append(len(group))
        terms.append([phi / math.sqrt(norm2) for _, phi in group])
    logs.append(math.log(atoms.top_mass))
    counts.append(1)
    terms.append(["top"])
    weights = np.exp(np.array(logs) - max(logs))
    weights = (weights / (weights * np.array(counts)).sum()).tolist()
    per_term = [(weight, phi) for weight, group in zip(weights, terms) for phi in group]
    error = ensemble_from_measure(spec, atoms, normalize=True).reconstruction_error
    assert json.dumps(report["certificate"]) == json.dumps(_per_term_ensemble_json(per_term, error))


def test_decompose_entangled_exit_1(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["decompose", path])
    assert code == 1
    assert report["certificate"] is None


def test_marginal_verdicts_exit_2(tmp_path, capsys):
    # boundary geometric sequence nudged just inside the tolerance band
    p = [1.0, 0.5, 0.25 - 3e-11]
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": p})
    code, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert code == 2
    assert report["ppt"]["verdict"] == "marginal"

    code, report = run(capsys, ["check-separable", path])
    assert code == 2
    assert report["separability"]["verdict"] == "marginal"


def test_report_round_trip(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    code, report = run(capsys, ["check-separable", path])
    echoed = {"N": report["input"]["N"], "d": report["input"]["d"], "p": report["input"]["p"]}
    path2 = write_spec(tmp_path, echoed, "echo.json")
    code2, report2 = run(capsys, ["check-separable", path2])
    assert code2 == code
    assert report2["separability"]["verdict"] == report["separability"]["verdict"]
    assert report2["input"]["p"] == report["input"]["p"]


def test_tol_flag_overrides_both(tmp_path, capsys):
    path = write_spec(tmp_path, {"N": 2, "d": 2, "p": [1.0, 0.5, 0.25]})
    code, report = run(capsys, ["check-separable", path, "--tol", "1e-6"])
    assert report["tolerances"]["psd_band"] == 1e-6
    assert report["tolerances"]["residual"] == 1e-6

    code, report = run(
        capsys, ["check-separable", path, "--tol", "1e-6", "--residual-tol", "1e-8"]
    )
    assert report["tolerances"]["psd_band"] == 1e-6
    assert report["tolerances"]["residual"] == 1e-8


def test_schema_keys_stable(tmp_path, capsys):
    path = write_spec(tmp_path, COUNTEREXAMPLE)
    _, report = run(capsys, ["check-ppt", path, "--m", "1"])
    assert list(report.keys()) == [
        "tool",
        "version",
        "command",
        "input",
        "tolerances",
        "ppt",
        "timings",
    ]
