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


def test_witness_files_and_their_absence_are_digested(output_digests, tmp_path):
    # check-joint writes a witness file for a feasible pair only, so
    # joint-corpus reaches both the file and the "(absent)" part
    first = list(output_digests.digest_lines(tmp_path, 1, ["joint-corpus"]))
    second = list(output_digests.digest_lines(tmp_path, 1, ["joint-corpus"]))
    assert first == second
    assert len(first) == 40
    assert 0 < len(list(tmp_path.glob("W*.json"))) < 40
