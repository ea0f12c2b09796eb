"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper under
every name that binds it in a rowsketch module (``factor_gram``, for one,
is bound in leverage, fastlev, pipelines, verify and reweight), so calls
between modules are seen too.  A span holds its name, start, end, parent
span and the benchmark operation it ran under, plus counts taken from
the call's arguments and result.  ``tracemalloc`` gives the peak of the
functions in ``PEAK``, and runs only while one of them does.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass


def _agl_counts(args, kwargs, result):
    from rowsketch.fastlev import sketch_rows
    A, theta, cfg = args[0], args[2], args[3]
    k = sketch_rows(theta, cfg)
    return {"rows": A.n_rows, "gflop": 2.0 * A.nnz * (k + cfg.kernel_probes) / 1e9}


def _pipeline_counts(args, kwargs, result):
    return {"n": args[0].n_rows, "solve_count": result.solve_count,
            "levels": result.levels_or_iterations}


# (module, function, counts taken from (args, kwargs, result))
TARGETS = (
    ("matrix", "read_matrix_market", lambda a, k, r: {"nnz": r.nnz}),
    ("matrix", "write_matrix_market", None),
    ("matrix", "read_sample", None),
    ("matrix", "write_sample", None),
    ("matrix", "materialize", lambda a, k, r: {"rows": r.n_rows}),
    ("leverage", "factor_gram", lambda a, k, r: {"rows": a[0].n_rows}),
    ("leverage", "exact_leverage_scores", None),
    ("leverage", "write_scores", None),
    ("fastlev", "approx_generalized_leverage", _agl_counts),
    ("fastlev", "build_projector_sketch", None),
    ("fastlev", "gaussian_sketch", lambda a, k, r: {"mentries": a[0] * a[1] / 1e6}),
    ("fastlev", "kernel_probe", None),
    ("sampling", "sample", None),
    ("sampling", "rng_from", None),
    ("pipelines", "repeated_halving", _pipeline_counts),
    ("pipelines", "refinement_sampling", _pipeline_counts),
    ("pipelines", "input_sparsity_sketch", _pipeline_counts),
    ("pipelines", "normal_equations_cg", lambda a, k, r: {"iterations": r.iterations}),
    ("pipelines", "precondition_solve", None),
    ("verify", "spectral_check", None),
    ("reweight", "compute_reweighting",
     lambda a, k, r: {"sweeps": r[1].sweeps_used, "touched": r[1].reweighted_count}),
    ("reweight", "write_weights", None),
    ("cli", "cmd_sketch", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_scores", None),
    ("cli", "cmd_solve", None),
    ("cli", "cmd_reweight", None),
)
PEAK = {"leverage.factor_gram", "fastlev.approx_generalized_leverage"}
PIPELINES = {"pipelines.repeated_halving", "pipelines.refinement_sampling",
             "pipelines.input_sparsity_sketch"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict | None = None


class Tracer:
    def __init__(self, peak_names=PEAK):
        self.peak_names = set(peak_names)
        self.spans: list[Span] = []
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []   # [start bytes, highest bytes seen]
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def reset(self) -> None:
        self.spans.clear()
        self.op_kinds.clear()

    # tracemalloc runs only inside the outermost PEAK span: it slows every
    # Python allocation, and the pure-Python parsers and sweeps would
    # otherwise run many times slower in a traced run.

    def _peak_enter(self) -> None:
        if not self._peaks:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([cur, cur])

    def _peak_exit(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        start, high = self._peaks.pop()
        high = max(high, peak)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], high)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return (high - start) / 1e6

    def _wrap(self, name, fn, counts):
        peak = name in self.peak_names

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        len(self.op_kinds) - 1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if peak:
                self._peak_enter()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                mb = self._peak_exit() if peak else None
            span.counts = counts(args, kwargs, result) if counts else {}
            if mb is not None:
                span.counts["peak_mb"] = mb
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        fns = [getattr(importlib.import_module(f"rowsketch.{mod_name}"), fn_name)
               for mod_name, fn_name, _ in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rowsketch" or n.startswith("rowsketch.")]
        for fn, (mod_name, fn_name, counts) in zip(fns, TARGETS):
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "kind": self.op_kinds[s.op] if s.op >= 0 else None,
                                     **(s.counts or {})}) + "\n")

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-module metrics: seconds and counts per operation of the kinds
        that call each function, self time excluding child spans."""
        spans = self.spans
        own = self.self_seconds()
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s.name, []).append(i)

        def per_op(names, value):
            idx = [i for n in names for i in by_name.get(n, [])]
            kinds = {self.op_kinds[spans[i].op] for i in idx}
            ops = sum(1 for k in self.op_kinds if k in kinds)
            return sum(value(i) for i in idx) / ops if ops else 0.0

        def total(i):
            return spans[i].end - spans[i].start

        def self_s(i):
            return own[i]

        def count(key):
            return lambda i: spans[i].counts[key]

        def calls(i):
            return 1.0

        def peak(name):
            return max((spans[i].counts["peak_mb"] for i in by_name.get(name, [])), default=0.0)

        def rows_scored_per_row(i):
            # rows scored by the estimator inside pipeline span i, over its n
            return scored_under.get(i, 0) / spans[i].counts["n"]

        scored_under: dict[int, int] = {}
        for i in by_name.get("fastlev.approx_generalized_leverage", []):
            p = spans[i].parent
            while p >= 0 and spans[p].name not in PIPELINES:
                p = spans[p].parent
            if p >= 0:
                scored_under[p] = scored_under.get(p, 0) + spans[i].counts["rows"]

        read = by_name.get("matrix.read_matrix_market", [])
        read_s = sum(spans[i].end - spans[i].start for i in read)
        read_mnnz = sum(spans[i].counts["nnz"] for i in read) / 1e6

        s, c = "s", "count"
        m = {
            "matrix.read_matrix_market.s": (per_op(["matrix.read_matrix_market"], total), s),
            "matrix.read_matrix_market.mnnz_per_s": (read_mnnz / read_s if read_s else 0.0, "Mnnz/s"),
            "matrix.read_sample.s": (per_op(["matrix.read_sample"], total), s),
            "matrix.write_sample.s": (per_op(["matrix.write_sample"], total), s),
            "matrix.materialize.s": (per_op(["matrix.materialize"], total), s),
            "matrix.materialize.calls": (per_op(["matrix.materialize"], calls), c),
            "matrix.materialize.rows": (per_op(["matrix.materialize"], count("rows")), "rows"),
            "leverage.factor_gram.s": (per_op(["leverage.factor_gram"], total), s),
            "leverage.factor_gram.calls": (per_op(["leverage.factor_gram"], calls), c),
            "leverage.factor_gram.rows": (per_op(["leverage.factor_gram"], count("rows")), "rows"),
            "leverage.factor_gram.peak_mb": (peak("leverage.factor_gram"), "MB"),
            "leverage.exact_leverage_scores.self_s": (per_op(["leverage.exact_leverage_scores"], self_s), s),
            "leverage.write_scores.s": (per_op(["leverage.write_scores"], total), s),
            "fastlev.approx_generalized_leverage.self_s":
                (per_op(["fastlev.approx_generalized_leverage"], self_s), s),
            "fastlev.approx_generalized_leverage.calls":
                (per_op(["fastlev.approx_generalized_leverage"], calls), c),
            "fastlev.approx_generalized_leverage.rows_scored":
                (per_op(["fastlev.approx_generalized_leverage"], count("rows")), "rows"),
            "fastlev.approx_generalized_leverage.peak_mb":
                (peak("fastlev.approx_generalized_leverage"), "MB"),
            "fastlev.gflop": (per_op(["fastlev.approx_generalized_leverage"], count("gflop")), "GFLOP"),
            "fastlev.build_projector_sketch.self_s": (per_op(["fastlev.build_projector_sketch"], self_s), s),
            "fastlev.gaussian_sketch.s": (per_op(["fastlev.gaussian_sketch"], total), s),
            "fastlev.gaussian_sketch.mentries": (per_op(["fastlev.gaussian_sketch"], count("mentries")), "Mentries"),
            "fastlev.kernel_probe.s": (per_op(["fastlev.kernel_probe"], total), s),
            "sampling.sample.s": (per_op(["sampling.sample"], total), s),
            "sampling.sample.calls": (per_op(["sampling.sample"], calls), c),
            "sampling.rng_from.s": (per_op(["sampling.rng_from"], total), s),
            "sampling.rng_from.calls": (per_op(["sampling.rng_from"], calls), c),
            "pipelines.sketch.self_s": (per_op(PIPELINES, self_s), s),
            "pipelines.solve_count": (per_op(PIPELINES, count("solve_count")), c),
            "pipelines.levels": (per_op(PIPELINES, count("levels")), c),
            "pipelines.rows_scored_per_row": (per_op(PIPELINES, rows_scored_per_row), "rows/row"),
            "pipelines.normal_equations_cg.s": (per_op(["pipelines.normal_equations_cg"], total), s),
            "pipelines.cg_iterations": (per_op(["pipelines.normal_equations_cg"], count("iterations")), c),
            "pipelines.precondition_solve.self_s": (per_op(["pipelines.precondition_solve"], self_s), s),
            "verify.spectral_check.self_s": (per_op(["verify.spectral_check"], self_s), s),
            "reweight.compute_reweighting.self_s": (per_op(["reweight.compute_reweighting"], self_s), s),
            "reweight.sweeps": (per_op(["reweight.compute_reweighting"], count("sweeps")), c),
            "reweight.rows_touched": (per_op(["reweight.compute_reweighting"], count("touched")), "rows"),
            "reweight.write_weights.s": (per_op(["reweight.write_weights"], total), s),
        }
        for sub in ("sketch", "verify", "scores", "solve", "reweight"):
            m[f"cli.{sub}.self_s"] = (per_op([f"cli.cmd_{sub}"], self_s), s)
        return m
