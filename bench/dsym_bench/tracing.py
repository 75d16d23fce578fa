"""Spans around dsym's public functions, installed at their import sites.

A hook replaces ``module.attr`` with a wrapper that records
(name, start, end, parent span, spec id) while the tracer is active and
calls straight through otherwise.  Spans stay in memory until the run ends.
Hooks whose target no longer exists are skipped and listed, so a later
refactor of dsym degrades the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Functions are wrapped where their callers
# look them up: a name imported into another module is a separate binding.
HOOKS = (
    ("dsym.cli", "build_parser", "cli.parse"),
    ("dsym.cli", "parse_spec_file", "cli.parse"),
    ("dsym.cli", "is_m_ppt", "ppt.is_m_ppt"),
    ("dsym.ppt", "hankel_block", "ppt.hankel_block"),
    ("dsym.ppt", "is_psd", "ppt.is_psd"),
    ("dsym.cli", "is_separable", "moment.is_separable"),
    ("dsym.decompose", "is_separable", "moment.is_separable"),
    ("dsym.moment", "is_generalized_moment_solution", "moment.feasibility"),
    ("dsym.moment", "recover_atomic_measure", "moment.recovery"),
    ("dsym.moment", "_gauss_rule", "moment.quadrature"),
    ("dsym.witnesses", "find_detecting_witness", "witnesses.find"),
    ("dsym.cli", "separable_ensemble", "decompose.separable_ensemble"),
    ("dsym.decompose", "ensemble_from_measure", "decompose.ensemble"),
    ("dsym.decompose.SeparableEnsemble", "to_dense", "decompose.to_dense"),
    ("dsym.cli", "build_state", "states.build_state"),
    ("dsym.states", "build_state", "states.build_state"),
    ("dsym.cli", "dense_ppt_check", "oracle.dense_ppt_check"),
    ("dsym.oracle", "partial_transpose", "oracle.partial_transpose"),
    ("numpy.linalg", "eigh", "linalg.eig"),
    ("numpy.linalg", "eigvalsh", "linalg.eig"),
)


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, spec id]
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.spec_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.spec_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name in HOOKS:
            owner = _resolve(path)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            wrapper = self.wrap(name, original, ON_RESULT.get(name))
            if name == "cli.parse" and attr == "build_parser":
                wrapper = self._parser_hook(wrapper)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _parser_hook(self, build_parser):
        """argparse work happens in parse_args too, so trace it as parsing."""

        @functools.wraps(build_parser)
        def hooked(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return hooked

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def time_under(self, name: str, parent_name: str) -> float:
        """Total seconds of spans called `name` whose parent is `parent_name`."""
        spans = self.spans
        return sum(
            s[2] - s[1]
            for s in spans
            if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name
        )

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "spec"], "spans": rows}, f)


def _count_block(counts, args, block) -> None:
    counts["ppt.eig_work_n3"] += block.size**3


def _count_recovery(counts, args, result) -> None:
    counts["moment.recovery_ok"] += 1


def _count_witness(counts, args, result) -> None:
    counts["witnesses.found"] += result is not None


def _count_terms(counts, args, ensemble) -> None:
    counts["decompose.terms"] += len(ensemble.terms)


def _count_dense(counts, args, rho) -> None:
    counts["states.dense_bytes"] += rho.nbytes


ON_RESULT = {
    "ppt.hankel_block": _count_block,
    "moment.recovery": _count_recovery,
    "witnesses.find": _count_witness,
    "decompose.ensemble": _count_terms,
    "states.build_state": _count_dense,
}
