"""Package-wide design rules checked on the source itself."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import rowsketch


def test_no_global_statements():
    # process-global mutable state makes a run's results depend on what
    # else runs in the process; every run carries its own state instead
    sources = sorted(Path(rowsketch.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [f"{p.name}:{node.lineno}"
             for p in sources
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Global)]
    assert found == []


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # perfbench/tracing.py wraps public functions by name and reads their
    # arguments by position; a rename or a moved argument breaks it here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        A = rowsketch.SparseRowMatrix.from_dense(np.random.default_rng(0).standard_normal((512, 6)))
        tracer.begin_op("sketch")
        r = rowsketch.repeated_halving(A, rowsketch.SketchConfig(seed=1))
        tracer.begin_op("verify")
        rowsketch.spectral_check(A, rowsketch.materialize(A, r.sample), r.check_lambda)
        tracer.begin_op("solve")
        sol = rowsketch.precondition_solve(A, A.dot_dense(np.ones(6)), r)
        # halving scores exactly at d = 6; one estimate against a reference
        # of rank 72 > k = 64 takes the Gaussian sketch
        tracer.begin_op("scores")
        W = rowsketch.SparseRowMatrix.from_dense(np.random.default_rng(1).standard_normal((100, 72)))
        rowsketch.approx_generalized_leverage(W, W, 1.0, rowsketch.SketchConfig(seed=1))
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert m["pipelines.solve_count"][0] == r.solve_count
    assert m["pipelines.cg_iterations"][0] == sol.iterations
    assert m["fastlev.approx_generalized_leverage.calls"][0] > 0
    assert m["fastlev.gaussian_sketch.mentries"][0] > 0
    assert m["verify.spectral_check.self_s"][0] > 0
    wrapped = [f"{name}.{attr}" for name, mod in sorted(sys.modules.items())
               if name == "rowsketch" or name.startswith("rowsketch.")
               for attr, value in vars(mod).items() if hasattr(value, "__wrapped__")]
    assert wrapped == []
