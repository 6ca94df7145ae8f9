import json

import numpy as np
import pytest

from jointmeas.cli import cli_dispatch
from jointmeas.io import (
    FileFormatError,
    format_float,
    load_outcome_map_pairs,
    load_povm,
    save_povm,
    save_state,
    write_csv,
)
from jointmeas.distances import D_inf
from jointmeas.povm import Povm, bloch_pvm, noisy_qubit_povm, random_povm


class TestPovmRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        p = random_povm(3, 4, seed=60)
        path = tmp_path / "p.json"
        save_povm(p, path)
        loaded, violations = load_povm(path)
        assert violations == []
        assert loaded.outcomes == p.outcomes
        assert np.array_equal(loaded.elements, p.elements)

    def test_serialization_is_stable(self, tmp_path):
        p = noisy_qubit_povm((0, 0, 1), 1 / 3)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_povm(p, first)
        loaded, _ = load_povm(first)
        save_povm(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_validation_report_attached(self, tmp_path):
        bad = Povm(("a", "b"), np.stack([np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])]))
        path = tmp_path / "bad.json"
        save_povm(bad, path)
        loaded, violations = load_povm(path)
        assert loaded.outcomes == ("a", "b")
        assert any(v.kind == "positivity" for v in violations)


def _pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


# -0.0, the smallest subnormal, a large value, a repeating fraction and
# integer-valued floats, each with its own repr rule
EDGE_VALUES = np.array([-0.0, 5e-324, 1e300, 1 / 3, 2.0, -7.0, 0.0, 1.0, -1e-300])


class TestWrittenLayout:
    """Both document kinds are written byte for byte as
    `json.dumps(doc, indent=2)` writes them, plus a newline, which is the
    layout docs/file-formats.md states."""

    @pytest.mark.parametrize(
        "povm",
        [
            Povm(
                (
                    'say "hi"', "back\\slash", "{}", "{0}", "tab\there", "\x01",
                    "\u03c8\u00b1e\u0301",
                ),
                np.resize(EDGE_VALUES, 7 * 8).view(complex).reshape(7, 2, 2),
            ),
            random_povm(3, 9, seed=63),
            bloch_pvm((0, 0, 1)),
        ],
        ids=["edge-labels-and-values", "random-d3-9", "sharp-qubit"],
    )
    def test_povm_document(self, tmp_path, povm):
        path = tmp_path / "p.json"
        save_povm(povm, path)
        doc = {
            "format_version": "1",
            "dim": povm.dim,
            "outcomes": list(povm.outcomes),
            "elements": {o: _pairs(e) for o, e in zip(povm.outcomes, povm.elements)},
        }
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "rho",
        [
            np.resize(EDGE_VALUES, 18).view(complex).reshape(3, 3),
            D_inf(random_povm(3, 3, seed=61), random_povm(3, 3, seed=62)).witness_state,
        ],
        ids=["edge-values", "witness-state"],
    )
    def test_state_document(self, tmp_path, rho):
        path = tmp_path / "s.json"
        save_state(rho, path)
        doc = {"format_version": "1", "dim": rho.shape[0], "matrix": _pairs(rho)}
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


class TestPovmSchemaErrors:
    def test_json_syntax_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": "1",')
        with pytest.raises(FileFormatError, match="line"):
            load_povm(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"format_version": "1", "dim": 2}))
        with pytest.raises(FileFormatError, match="outcomes"):
            load_povm(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "version.json"
        path.write_text(
            json.dumps({"format_version": "2", "dim": 1, "outcomes": ["a"], "elements": {}})
        )
        with pytest.raises(FileFormatError, match="format_version"):
            load_povm(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        doc = {
            "format_version": "1",
            "dim": 2,
            "outcomes": ["a"],
            "elements": {"a": [[1.0, 0.0]]},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="row-major"):
            load_povm(path)

    def test_elements_must_match_outcomes(self, tmp_path):
        path = tmp_path / "mismatch.json"
        doc = {
            "format_version": "1",
            "dim": 1,
            "outcomes": ["a"],
            "elements": {"b": [[1.0, 0.0]]},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="outcome labels"):
            load_povm(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        doc = {
            "format_version": "1",
            "dim": 1,
            "outcomes": ["a"],
            "elements": {"a": [[1e999, 0.0]]},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="finite"):
            load_povm(path)

    @pytest.mark.parametrize(
        "digits, message",
        [
            # too large for a float
            (401, "element 'a' contains non-finite entries"),
            # too long for Python's int parser, so json rejects the document
            (5001, "contains non-finite entries"),
        ],
    )
    def test_oversized_integer_rejected(self, tmp_path, digits, message):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"format_version": "1", "dim": 1, "outcomes": ["a"], '
            f'"elements": {{"a": [[{"9" * digits}, 0]]}}}}'
        )
        with pytest.raises(FileFormatError) as err:
            load_povm(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "top level must be a JSON object"),
            (
                {"elements": {"a": [[1.0, 0.0], [0.0], [0.0, 0.0], [1.0, 0.0]]}},
                "element 'a' entry 1 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], [0.0, 0.0], [True, 0.0], [1.0, 0.0]]}},
                "element 'a' entry 2 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], [0.0, 0.0], [0.0, "1.0"], [1.0, 0.0]]}},
                "element 'a' entry 2 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], [None, 0.0], [0.0, 0.0], [1.0, 0.0]]}},
                "element 'a' entry 1 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[[1.0], 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}},
                "element 'a' entry 0 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], {"re": 0.0, "im": 0.0}, [0.0, 0.0], [1.0, 0.0]]}},
                "element 'a' entry 1 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0, 0.0]]}},
                "element 'a' entry 3 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": [[1.0, 0.0], [0.0, 0.0], 0.0, [1.0, 0.0]]}},
                "element 'a' entry 2 is not a [re, im] number pair",
            ),
            (
                {"elements": {"a": "identity"}},
                "element 'a' must be a row-major list of 4 [re, im] pairs",
            ),
            (
                {"elements": {"a": {"0": [1.0, 0.0]}}},
                "element 'a' must be a row-major list of 4 [re, im] pairs",
            ),
            # the first outcome's first problem is reported, whatever comes after it
            (
                {
                    "outcomes": ["a", "b"],
                    "elements": {
                        "a": [[1e999, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                        "b": [[1.0, 0.0], [False, 0.0], [0.0, 0.0], [1.0, 0.0]],
                    },
                },
                "element 'a' contains non-finite entries",
            ),
            (
                {
                    "outcomes": ["a", "b"],
                    "elements": {
                        "b": [[1e999, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                        "a": [[1.0, 0.0], [0.0, 0.0], [0.0], [1.0, 0.0]],
                    },
                },
                "element 'a' entry 2 is not a [re, im] number pair",
            ),
            (
                {
                    "outcomes": ["a", "b"],
                    "elements": {
                        "a": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                        "b": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    },
                },
                "element 'b' must be a row-major list of 4 [re, im] pairs",
            ),
            ({"outcomes": []}, "outcomes must be a nonempty list of strings"),
            ({"outcomes": ["a", 1]}, "outcomes must be a nonempty list of strings"),
            ({"outcomes": "a"}, "outcomes must be a nonempty list of strings"),
            ({"outcomes": ["a", "a"]}, "outcome labels must be distinct"),
        ],
        ids=[
            "top-level-list", "short-pair", "bool-entry", "string-entry", "null-entry",
            "nested-list-entry", "object-pair", "three-entry-pair", "number-pair",
            "element-string", "element-object", "non-finite-before-bool",
            "pair-after-non-finite-outcome", "short-second-element", "no-outcomes",
            "non-string-outcome",
            "outcomes-string", "duplicate-outcomes",
        ],
    )
    def test_schema_message_and_exit_code(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        if isinstance(doc, dict):
            eye = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
            header = {"format_version": "1", "dim": 2, "outcomes": ["a"]}
            doc = {**header, "elements": {"a": eye}, **doc}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            load_povm(path)
        assert str(err.value) == f"{path}: {message}"
        assert cli_dispatch(["validate", str(path)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {path}: {message}\n")


class TestStateFiles:
    """State documents, which only the CLI writes, and the header they share
    with POVM documents."""

    def test_round_trip(self, tmp_path):
        rho = D_inf(random_povm(3, 3, seed=61), random_povm(3, 3, seed=62)).witness_state
        path = tmp_path / "s.json"
        save_state(rho, path)
        doc = json.loads(path.read_text())
        assert (doc["format_version"], doc["dim"]) == ("1", 3)
        loaded = np.array([complex(x, y) for x, y in doc["matrix"]]).reshape(3, 3)
        assert loaded.tobytes() == rho.tobytes()

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"format_version": "1", "dim": 0}, "dim must be a positive integer"),
            ({"format_version": "1", "dim": True}, "dim must be a positive integer"),
            ({"format_version": "1", "dim": 1.0}, "dim must be a positive integer"),
            (
                {"format_version": "2", "dim": 1},
                "unsupported format_version '2' (expected '1')",
            ),
        ],
    )
    def test_header_errors(self, tmp_path, header, message):
        path = tmp_path / "bad.json"
        doc = {**header, "outcomes": ["a"], "elements": {"a": [[1.0, 0.0]]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            load_povm(path)
        assert str(err.value) == f"{path}: {message}"


class TestOutcomeMapFiles:
    def test_parse(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# joint -> A\nf0 +\nf1 -\n\nf2 +\n")
        assert load_outcome_map_pairs(path) == [("f0", "+"), ("f1", "-"), ("f2", "+")]

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("f0 + extra\n")
        with pytest.raises(FileFormatError, match="line 1"):
            load_outcome_map_pairs(path)

    def test_duplicate_source(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("f0 +\nf0 -\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            load_outcome_map_pairs(path)


class TestCsv:
    def test_fixed_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1 / 3, 2.0), (0.1, 1e-12)])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "0.333333333333" in text
        assert format_float(1 / 3) == "0.333333333333"

    def test_byte_identical_reruns(self, tmp_path):
        rows = [(x / 7, x * x / 13) for x in range(20)]
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        write_csv(p1, ["x", "y"], rows)
        write_csv(p2, ["x", "y"], rows)
        assert p1.read_bytes() == p2.read_bytes()


def test_emitted_witness_revalidates(tmp_path):
    # save any sharp observable and reload strictly
    p = bloch_pvm((0, 0, 1))
    path = tmp_path / "sharp.json"
    save_povm(p, path)
    _, violations = load_povm(path)
    assert violations == []
