"""tools/digest.py, the byte-identity digest: one ulp moves one group."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from rowsketch import Reweighting

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

CHEAP = ("final-refinement", "reweighting")


def with_one_weight_nudged():
    """The reweighting group's records, the first weight one ulp up."""
    records = digest.GROUPS["reweighting"]()
    case, (W, cert) = next(records)
    w = W.weights.copy()
    w[0] = np.nextafter(w[0], np.inf)
    yield case, (Reweighting(w), cert)
    yield from records


@pytest.fixture(scope="module")
def cheap_groups():
    groups = {name: digest.GROUPS[name] for name in CHEAP}
    return groups, digest.digest(groups)


def test_one_ulp_in_one_weight_moves_exactly_that_group(cheap_groups):
    groups, base = cheap_groups
    moved = digest.digest({**groups, "reweighting": with_one_weight_nudged})
    assert sorted(base) == sorted(moved) == sorted(CHEAP)
    assert [name for name in CHEAP if moved[name] != base[name]] == ["reweighting"]


def test_against_names_the_groups_that_differ(cheap_groups, tmp_path, monkeypatch, capsys):
    groups, base = cheap_groups
    monkeypatch.setattr(digest, "GROUPS", {"reweighting": groups["reweighting"]})
    saved = tmp_path / "digest.json"
    saved.write_text(json.dumps({"reweighting": base["reweighting"]}))
    assert digest.main(["--against", str(saved)]) == 0
    saved.write_text(json.dumps(base))  # a group this run lacks differs too
    capsys.readouterr()
    assert digest.main(["--against", str(saved)]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out) == {"reweighting": base["reweighting"]}
    assert out.err == f"digest: group final-refinement differs from {saved}\n"
