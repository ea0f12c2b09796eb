"""Package-wide design rules checked on the source itself."""

import ast
from pathlib import Path

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
