"""tools/selftest_values.py digests the values each selftest suite checks,
so two runs of one checkout must print the same lines, and another seed,
which draws other instances, other digests."""

import importlib
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def selftest_values(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("selftest_values")


def test_two_runs_print_the_same_lines(selftest_values):
    first = list(selftest_values.value_lines(1, trials=10))
    second = list(selftest_values.value_lines(1, trials=10))
    assert first == second
    assert [line.split(" ")[0] for line in first] == [
        "theorem1",
        "theorem2",
        "metric_axioms",
        "duality",
        "povm_invariants",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split(" ")[1]) for line in first)
    other = list(selftest_values.value_lines(2, trials=10))
    assert all(a != b for a, b in zip(first, other))
