"""tools/output_digests.py digests each benchmark item's whole output, so two
runs of one checkout in one work directory must print the same lines."""

import importlib
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def output_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("output_digests")


def test_two_runs_print_the_same_lines(output_digests, tmp_path):
    first = list(output_digests.digest_lines(tmp_path, 1, ["subset-l1"]))
    second = list(output_digests.digest_lines(tmp_path, 1, ["subset-l1"]))
    assert first == second
    assert [line.rsplit(" ", 1)[0] for line in first] == [
        "subset-l1 distance_l1_n14",
        "subset-l1 distance_l1_n16",
        "subset-l1 theorem2_8x8",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in first)
