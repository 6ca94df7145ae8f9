"""tools/frontier_values.py digests every frontier point of three fixed
pairs, so two runs of one checkout must print the same lines."""

import importlib
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def frontier_values(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("frontier_values")


def test_two_runs_print_the_same_lines(frontier_values):
    first = list(frontier_values.value_lines())
    second = list(frontier_values.value_lines())
    assert first == second
    fields = [line.split(" ") for line in first]
    assert [f[0] for f in fields] == ["qubit"] * 6 + ["qutrit-seed7"] * 4 + ["random-101-201"] * 3
    assert [float(f[1]) for f in fields[6:10]] == frontier_values.QUTRIT_XS
    for f in fields:
        assert float(f[4]) <= float(f[3])  # y_lower <= y_achieved
        assert re.fullmatch(r"[0-9a-f]{64}", f[5])
