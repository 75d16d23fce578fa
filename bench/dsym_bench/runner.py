"""Closed-loop, single-client benchmark of the dsym CLI.

Each spec's commands go through ``dsym.cli.main(argv)`` in this process,
with stdout captured; the next command starts when the last returns.  A
spec's latency is the sum of its commands' wall times.  Set-up is timed
apart from the measured loop, as the median of seven repetitions of: a
fresh interpreter importing dsym's CLI, spec generation, and a warm-up on
the smallest spec.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each spec
twice, once plain and once with spans at dsym's layer boundaries, and
prints the per-layer metrics, the tracing overhead and a re-measurement of
the ROADMAP's scratch baselines.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, generate, hostspeed, tracing

SETUP_REPEATS = 7
# Runs stop at the first round boundary after --seconds; a round still
# running at this multiple of --seconds is cut short.
OVERRUN_FACTOR = 3.0

# Every run reports these by name; BENCHMARK.json lists the same names.
# TIMED are reported at the reference host speed (see hostspeed.py).
TIMED = ("setup_s", "specs_per_s", "latency_p50_ms", "latency_p90_ms")
END_TO_END = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "certificate_rate": "ratio",
    "verdict_accuracy": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s/spec",
    "cli.parse_s": "s/spec",
    "cli.report_bytes": "B/spec",
    "ppt.is_m_ppt_s": "s/spec",
    "ppt.hankel_block_s": "s/spec",
    "ppt.is_psd_s": "s/spec",
    "ppt.is_psd_calls": "count/spec",
    "ppt.blocks": "count/spec",
    "ppt.eig_work_n3": "n3/spec",
    "linalg.eig_calls": "count/spec",
    "linalg.eig_s": "s/spec",
    "moment.feasibility_s": "s/spec",
    "moment.recovery_s": "s/spec",
    "moment.recovery_attempts": "count/call",
    "moment.recovery_success_ratio": "ratio",
    "witnesses.find_s": "s/spec",
    "witnesses.found_ratio": "ratio",
    "decompose.ensemble_s": "s/spec",
    "decompose.terms": "count/spec",
    "decompose.dense_check_s": "s/spec",
    "states.build_state_s": "s/spec",
    "states.dense_bytes": "B/spec",
    "oracle.dense_ppt_check_s": "s/spec",
    "oracle.partial_transpose_s": "s/spec",
    "trace.overhead_ratio": "ratio",
    "baseline.counterexample_is_m_ppt_us": "us",
    "baseline.qubit_n1000_quarter_is_m_ppt_s": "s",
}

# ROADMAP scratch baselines on a 2-core box, as (low, high) of the range
# stated there; a re-measurement within 25% of the range agrees.
ROADMAP_BASELINES = {
    "baseline.counterexample_is_m_ppt_us": (110.0, 140.0),
    "baseline.qubit_n1000_quarter_is_m_ppt_s": (2.0, 2.6),
}
BASELINE_SLACK = 0.25
COUNTEREXAMPLE_CALLS = 200


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # CLI seconds per spec
    attempted: int = 0
    errors: int = 0  # every error, for error_rate
    failed: int = 0  # errors other than decompose's recovery refusal
    form_errors: list[str] = field(default_factory=list)
    cert_expected: int = 0
    cert_ok: int = 0
    cert_failures: dict[str, int] = field(default_factory=dict)
    labelled: int = 0
    labelled_right: int = 0
    labelled_wrong: int = 0
    labelled_marginal: int = 0
    report_bytes: int = 0

    def add(self, spec, path, outcomes) -> None:
        for command, outcome in zip(spec.commands, outcomes):
            self.attempted += 1
            self.errors += outcome.error
            self.failed += outcome.error and not outcome.recovery_failed
            self.report_bytes += outcome.report_bytes
            if outcome.form_error is not None:
                self.form_errors.append(f"{command.name} on {path}: {outcome.form_error}")
            if outcome.cert_expected:
                self.cert_expected += 1
                self.cert_ok += outcome.cert_ok
                if not outcome.cert_ok:
                    key = f"{command.name}: {outcome.cert_reason}"
                    key = key if len(key) < 60 else key[:57] + "..."
                    self.cert_failures[key] = self.cert_failures.get(key, 0) + 1
        labelled = [(c, o) for c, o in zip(spec.commands, outcomes) if c.label is not None]
        if labelled:
            self.labelled += 1
            self.labelled_right += all(o.verdict == c.label for c, o in labelled)
            self.labelled_wrong += any(o.wrong for _, o in labelled)
            self.labelled_marginal += any(o.verdict == "marginal" for _, o in labelled)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_dsym(root: Path):
    """Import dsym from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import dsym.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dsym from {src}: {exc}")
    origin = Path(dsym.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"bench: dsym was imported from {origin}, not from {src}")
    return dsym.cli


def run_command(cli, command, path: str) -> tuple[int, str, str, float]:
    """One CLI call: (exit code, captured stdout, captured stderr, seconds).
    An exception escaping main counts as exit code 3, the CLI's error code."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command.name, path, *command.args])
        except Exception:
            code = checks.EXIT_ERROR
    elapsed = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), elapsed


def run_spec(cli, spec, path) -> tuple[list, float]:
    results = [run_command(cli, command, path) for command in spec.commands]
    return results, sum(r[3] for r in results)


def write_specs(rounds, directory: Path) -> list[list[tuple]]:
    directory.mkdir(parents=True, exist_ok=True)
    pool, count = [], 0
    for specs in rounds:
        row = []
        for spec in specs:
            path = directory / f"spec{count:05d}.json"
            path.write_text(json.dumps(spec.file_json()), encoding="utf-8")
            row.append((spec, str(path)))
            count += 1
        pool.append(row)
    return pool


def set_up(cli, workload, seed: int, pool, root: Path) -> float:
    """One timed set-up: a fresh interpreter importing dsym's CLI, the
    spec generation, and a warm-up on the pool's smallest spec."""
    started = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, "-c", "import dsym.cli"], cwd=root, env=env, check=True)
    generate.generate_rounds(workload, seed)
    spec, path = min(pool[0], key=lambda item: (item[0].n, len(item[0].commands)))
    run_spec(cli, spec, path)
    return time.perf_counter() - started


def set_ups(cli, workload, seed: int, pool, root: Path) -> tuple[list[float], hostspeed.HostSpeed]:
    """SETUP_REPEATS timed set-ups, with the reference task before the first
    and after each, for the set-up's own host factor."""
    host = hostspeed.HostSpeed()
    host.sample()
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(set_up(cli, workload, seed, pool, root))
        host.sample()
    return times, host


def measure(cli, pool, seed: int, seconds: float, tracer=None):
    """Run rounds of the pool until --seconds have passed.  With a tracer,
    each spec also runs traced (order alternating), and the traced and
    plain CLI seconds are summed for the overhead.  The reference task runs
    between specs, outside their latencies, to track the host's speed."""
    tally = Tally()
    host = hostspeed.HostSpeed()
    plain_s = traced_s = 0.0
    host.sample()
    started = time.perf_counter()
    rounds = 0
    while time.perf_counter() - started < seconds:
        for spec, path in pool[rounds % len(pool)]:
            if time.perf_counter() - started > OVERRUN_FACTOR * seconds:
                break
            index = len(tally.latencies)
            traced_first = tracer is not None and index % 2 == 1
            if traced_first:
                traced_s += _traced_spec(cli, spec, path, tracer, index)
            results, latency = run_spec(cli, spec, path)
            if tracer is not None and not traced_first:
                traced_s += _traced_spec(cli, spec, path, tracer, index)
            plain_s += latency
            rng = np.random.default_rng([seed, index])
            tally.latencies.append(latency)
            tally.add(spec, path, [
                checks.check_command(spec, command, code, stdout, stderr, rng)
                for command, (code, stdout, stderr, _) in zip(spec.commands, results)
            ])
            host.maybe_sample()
        rounds += 1
    host.sample()
    return tally, rounds, host, (traced_s / plain_s - 1.0 if plain_s > 0 else 0.0)


def _traced_spec(cli, spec, path, tracer, index) -> float:
    tracer.spec_id = index
    tracer.active = True
    try:
        return run_spec(cli, spec, path)[1]
    finally:
        tracer.active = False


def end_to_end(tally: Tally, setup_s: float, factor: float) -> dict[str, float]:
    """Timed metrics at the reference host speed (see hostspeed.py):
    measured times divided by the run's host factor."""
    lat_ms = [x * 1e3 / factor for x in tally.latencies]
    return {
        "setup_s": setup_s,
        "specs_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "certificate_rate": tally.cert_ok / tally.cert_expected if tally.cert_expected else 0.0,
        "verdict_accuracy": tally.labelled_right / tally.labelled if tally.labelled else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, specs: int, tally: Tally, overhead: float, baselines: dict) -> dict[str, float]:
    rows = tracer.summary()
    counts = tracer.counts

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0) / specs

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_s": rows.get("cli", {}).get("self_s", 0.0) / specs,
        "cli.parse_s": total("cli.parse"),
        "cli.report_bytes": tally.report_bytes / len(tally.latencies),
        "ppt.is_m_ppt_s": total("ppt.is_m_ppt"),
        "ppt.hankel_block_s": total("ppt.hankel_block"),
        "ppt.is_psd_s": total("ppt.is_psd"),
        "ppt.is_psd_calls": calls("ppt.is_psd") / specs,
        "ppt.blocks": calls("ppt.hankel_block") / specs,
        "ppt.eig_work_n3": counts["ppt.eig_work_n3"] / specs,
        "linalg.eig_calls": calls("linalg.eig") / specs,
        "linalg.eig_s": total("linalg.eig"),
        "moment.feasibility_s": total("moment.feasibility"),
        "moment.recovery_s": total("moment.recovery"),
        "moment.recovery_attempts": ratio(calls("moment.quadrature"), calls("moment.recovery")),
        "moment.recovery_success_ratio": ratio(counts["moment.recovery_ok"], calls("moment.recovery")),
        "witnesses.find_s": total("witnesses.find"),
        "witnesses.found_ratio": ratio(counts["witnesses.found"], calls("witnesses.find")),
        "decompose.ensemble_s": total("decompose.ensemble"),
        "decompose.terms": counts["decompose.terms"] / specs,
        "decompose.dense_check_s": (
            tracer.time_under("decompose.to_dense", "decompose.ensemble")
            + tracer.time_under("states.build_state", "decompose.ensemble")
        ) / specs,
        "states.build_state_s": total("states.build_state"),
        "states.dense_bytes": counts["states.dense_bytes"] / specs,
        "oracle.dense_ppt_check_s": total("oracle.dense_ppt_check"),
        "oracle.partial_transpose_s": total("oracle.partial_transpose"),
        "trace.overhead_ratio": overhead,
        **baselines,
    }


def roadmap_baselines() -> dict[str, float]:
    """Direct library calls, untraced: the 3-qutrit counterexample at m = 1
    (median of single calls) and one qubit call at N = 1000, m = 250."""
    from dsym.ppt import is_m_ppt
    from dsym.states import StateSpec

    spec = StateSpec(3, 3, generate.counterexample().p)
    times = []
    for _ in range(COUNTEREXAMPLE_CALLS):
        started = time.perf_counter()
        is_m_ppt(spec, 1)
        times.append(time.perf_counter() - started)
    p = generate.atomic_moments(1000, 1.0, np.array([0.3, 0.6]), np.array([0.5, 0.3, 0.2]))
    started = time.perf_counter()
    is_m_ppt(StateSpec(1000, 2, tuple(p)), 250)
    return {
        "baseline.counterexample_is_m_ppt_us": statistics.median(times) * 1e6,
        "baseline.qubit_n1000_quarter_is_m_ppt_s": time.perf_counter() - started,
    }


def print_report(args, metrics, units, tally, rounds, lines) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"closed loop, 1 client; BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}; "
          f"{len(tally.latencies)} specs in {rounds} rounds; {tally.attempted} commands")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    cli = import_dsym(root)
    workload = generate.WORKLOADS[args.workload]
    scratch = root / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Written once and untimed: file-system latency is noise that no
        # change to dsym can move.
        pool = write_specs(generate.generate_rounds(workload, args.seed), scratch)
        setup_times, setup_host = set_ups(cli, workload, args.seed, pool, root)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            cli.main = tracer.wrap("cli", cli.main)
        try:
            tally, rounds, host, overhead = measure(cli, pool, args.seed, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
                cli.main = cli.main.__wrapped__
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    e2e = end_to_end(tally, statistics.median(setup_times) / setup_host.factor, host.factor)
    raw = end_to_end(tally, statistics.median(setup_times), 1.0)
    lat = sorted(tally.latencies)
    lines = [
        f"  samples {len(lat)}, beyond p90 {sum(x * 1e3 / host.factor > e2e['latency_p90_ms'] for x in lat)}",
        f"  setup: median of {SETUP_REPEATS} x (fresh-interpreter import of dsym.cli + generate + warm-up)",
        f"  host factor {host.factor:.4f} (set-up {setup_host.factor:.4f}): reference task "
        f"{statistics.fmean(host.samples) * 1e3:.3f} ms (mean of {len(host.samples)}) "
        f"against {hostspeed.REFERENCE_S * 1e3:g} ms",
        "  raw, before dividing by the host factor: "
        + ", ".join(f"{name} {raw[name]:.6g} {END_TO_END[name]}" for name in TIMED),
        f"  error_rate {tally.errors / tally.attempted:.6g} ({tally.errors}/{tally.attempted} commands; "
        f"{tally.errors - tally.failed} of them decompose's recovery refusal, counted as missing certificates)",
        f"  wrong_verdict_rate {tally.labelled_wrong / max(1, tally.labelled):.6g} "
        f"({tally.labelled_wrong}/{tally.labelled} labelled specs; "
        f"{tally.labelled_marginal} with a marginal verdict)",
        f"  certificates {tally.cert_ok}/{tally.cert_expected} pass the independent check",
    ]
    lines += [f"    {count} x {reason}" for reason, count in sorted(tally.cert_failures.items())]
    lines += [f"  FORM ERROR {e}" for e in tally.form_errors[:5]]
    if args.trace:
        baselines = roadmap_baselines()
        metrics = per_layer(tracer, len(tally.latencies), tally, overhead, baselines)
        units = PER_LAYER
        lines += trace_lines(tracer, len(tally.latencies), baselines)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, units = e2e, END_TO_END
        lines.append("  end-to-end (tracing off):")
    print_report(args, metrics, units, tally, rounds, lines)
    result = {
        "correct": not tally.form_errors and len(tally.latencies) > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def trace_lines(tracer, specs: int, baselines: dict) -> list[str]:
    rows = tracer.summary()
    lines = [f"  spans per layer ({len(tracer.spans)} spans, {specs} traced specs; seconds per spec):"]
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"    {name:<30} calls {row['calls'] / specs:>10.2f}  total {row['total_s'] / specs:.6f}  "
                     f"self {row['self_s'] / specs:.6f}")
    if tracer.missing:
        lines.append(f"  hooks not installed (target missing): {', '.join(tracer.missing)}")
    for name, (lo, hi) in ROADMAP_BASELINES.items():
        value = baselines[name]
        agrees = lo * (1 - BASELINE_SLACK) <= value <= hi * (1 + BASELINE_SLACK)
        verdict = "agrees with" if agrees else "DISAGREES with"
        lines.append(f"  {name} = {value:.4g} {verdict} the ROADMAP range {lo:g}-{hi:g}")
    lines.append("  per layer (tracing on):")
    return lines
