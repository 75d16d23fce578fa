"""Self-tests of the benchmark: labels, independent checks and output names."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from dsym import cli  # noqa: E402
from dsym.oracle import dense_ppt_check  # noqa: E402
from dsym.states import StateSpec, build_state  # noqa: E402
from dsym_bench import checks, generate, runner  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
ORACLE_WORDS = {"ppt": "psd", "not-ppt": "not-psd", "psd": "psd", "not-psd": "not-psd"}


def _dense_status(spec, mask):
    rho = build_state(StateSpec(spec.N, spec.d, spec.p))
    return dense_ppt_check(rho, mask, spec.d)[0]


def _resolvable(spec):
    """Whether float64 dense eigenvalues, with the oracle's 1e-10 band
    relative to the largest, can see every coefficient of the spec."""
    return max(spec.p) <= 1e4 * min(spec.p)


@pytest.mark.parametrize("seed", [0, 1])
def test_ppt_labels_agree_with_dense_oracle(seed):
    checked = 0
    for spec in generate.generate_rounds(generate.WORKLOADS["small-mixed"], seed)[0]:
        if not _resolvable(spec):
            continue
        for command in spec.commands:
            if command.name != "check-ppt" or command.label is None:
                continue
            mask = (1,) * command.m + (0,) * (spec.N - command.m)
            assert _dense_status(spec, mask) == ORACLE_WORDS[command.label], (spec, command)
            checked += 1
        if spec.kind != "counterexample" and spec.N % 2 == 0 and spec.labelled:
            # for even N, separability is PPT across the half split
            half = (1,) * (spec.N // 2) + (0,) * (spec.N // 2)
            expected = {"separable": "psd", "entangled": "not-psd"}[generate.separability_label(spec.kind)]
            assert _dense_status(spec, half) == expected, spec
    assert checked > 20


def test_mask_labels_agree_with_dense_oracle():
    checked = 0
    for spec in generate.generate_rounds(generate.WORKLOADS["dense-verify"], 0)[0]:
        if spec.d**spec.N > 256 or not _resolvable(spec):
            continue
        for command in spec.commands:
            if command.name == "oracle-verify" and command.label is not None:
                mask = tuple(int(b) for b in command.args[1])
                assert _dense_status(spec, mask) == command.label, (spec, command)
                checked += 1
    assert checked > 10


def test_every_workload_generates_well_formed_specs():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(generate.WORKLOADS)
    for workload in generate.WORKLOADS.values():
        for spec in generate.generate_rounds(workload, 5)[0]:
            StateSpec(spec.N, spec.d, spec.p)
            assert np.all(np.isfinite(spec.p))
            for command in spec.commands:
                assert command.label in (None, *checks.VERDICTS[command.name][:2])


def _report(spec, command, directory):
    path = directory / "spec.json"
    path.write_text(json.dumps(spec.file_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command.name, str(path), *command.args])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _first_report(kind, name, directory):
    """The first small-mixed spec of `kind` with N >= 4 whose `name` command
    returns the labelled verdict, with that command's exit code and report."""
    for spec in generate.generate_rounds(generate.WORKLOADS["small-mixed"], 3)[0]:
        if spec.kind != kind or spec.N < 4:
            continue
        command = next(c for c in spec.commands if c.name == name)
        code, report = _report(spec, command, directory)
        if code == checks.VERDICT_EXIT[command.label]:
            return spec, code, report
    raise AssertionError(f"no {kind} spec with a successful {name} command")


def test_witness_check_accepts_real_and_rejects_forged_witnesses(tmp_path):
    spec, code, report = _first_report("entangled", "check-separable", tmp_path)
    p = np.asarray(spec.p)
    cert = report["certificate"]
    assert checks.witness_error(cert, p) is None
    assert checks.witness_error({**cert, "witness_value": 0.5 * cert["witness_value"]}, p)
    flat = {**cert, "coeffs": [[1.0, 0.0]] + [[0.0, 0.0]] * (len(cert["coeffs"]) - 1)}
    assert checks.witness_error(flat, p)  # p_0 > 0: not a detecting form


def test_ensemble_check_accepts_real_and_rejects_forged_ensembles(tmp_path):
    spec, code, report = _first_report("separable", "decompose", tmp_path)
    p = np.asarray(spec.p)
    rng = np.random.default_rng(0)
    cert = report["certificate"]
    assert checks.ensemble_error(cert, p, spec.N, spec.d, report, rng) is None
    terms = [dict(t) for t in cert["terms"]]
    terms[0]["weight"] *= 1.01
    forged = {**cert, "terms": terms}
    assert checks.ensemble_error(forged, p, spec.N, spec.d, report, rng)
    # without the Fourier phases, entries between different digit sums survive
    no_phase = [
        t if t["vector"] == "top" else {**t, "vector": [[abs(complex(*z)), 0.0] for z in t["vector"]]}
        for t in cert["terms"]
    ]
    assert checks.ensemble_error({**cert, "terms": no_phase}, p, spec.N, spec.d, report, rng)


def test_recovery_refusal_counts_as_missing_certificate_not_failure():
    spec = generate.counterexample()
    command = generate.Command("decompose", (), "entangled")
    rng = np.random.default_rng(0)
    refusal = checks.check_command(spec, command, checks.EXIT_ERROR, "", checks.RECOVERY_FAILED + " 1e-9", rng)
    assert refusal.error and refusal.recovery_failed
    assert refusal.cert_expected and not refusal.cert_ok
    other = checks.check_command(spec, command, checks.EXIT_ERROR, "", "error: bad spec file", rng)
    assert other.error and not other.recovery_failed and not other.cert_expected


def test_host_factor_scales_reported_times():
    tally = runner.Tally(latencies=[0.01, 0.02, 0.03], cert_expected=1, cert_ok=1, labelled=1, labelled_right=1)
    raw = runner.end_to_end(tally, 0.5, 1.0)
    slow_host = runner.end_to_end(tally, 0.5, 2.0)
    assert slow_host["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / 2)
    assert slow_host["specs_per_s"] == pytest.approx(raw["specs_per_s"] * 2)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    proc = _run(ROOT, "--workload", "small-mixed", "--seed", "7", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    section = MANIFEST["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    table = runner.END_TO_END if trace == "0" else runner.PER_LAYER
    assert all(f"  {name} " in proc.stdout for name in table)  # the readable lines too


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "small-mixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
