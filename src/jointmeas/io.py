"""File formats: POVM documents (JSON) read and written, state documents
(JSON) written, outcome-map text files read, and CSV emission.

A POVM document is JSON with a version tag, the dimension, the outcome
labels, and one row-major list of [re, im] entry pairs per outcome. A state
document has the same header and one such list for its density matrix.
Floats are serialized with Python's shortest round-trip repr, so
parse(serialize(P)) reproduces P bit-exactly. Every input file must be
UTF-8. See docs/file-formats.md.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .povm import Povm, PovmViolation, validate_povm

FORMAT_VERSION = "1"


class FileFormatError(ValueError):
    """A document could not be parsed or does not match its schema."""


def _require(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise FileFormatError(f"{path}: missing required key {key!r}")
    return doc[key]


def _read_text(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: {e}") from None


def _load_document(path) -> tuple[dict, int]:
    """Parse a JSON document and check its shared header: the format
    version and the dimension. Returns the document and its dimension."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal past the int-string digit limit
        raise FileFormatError(f"{path}: contains non-finite entries") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    version = _require(doc, "format_version", path)
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION!r})"
        )
    dim = _require(doc, "dim", path)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: dim must be a positive integer")
    return doc, dim


def _save_document(path, dim: int, **body) -> None:
    """Write a JSON document: the shared header, then `body` in order, laid
    out as `json.dumps(doc, indent=2)` lays it out (`_layout`)."""
    doc = {"format_version": FORMAT_VERSION, "dim": dim, **body}
    Path(path).write_text(_layout(doc, "") + "\n", encoding="utf-8")


def _layout(value, indent: str) -> str:
    """The text `json.dumps(value, indent=2)` writes for a nonempty dict or
    list at this indentation, a complex array written as its row-major list
    of [re, im] pairs: one number a line, each float as its repr. `json`
    writes every string and scalar."""
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        pair = f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
        numbers = np.ascontiguousarray(value, dtype=complex).reshape(-1).view(float)
        lines = ",\n".join([pair] * value.size) % tuple(numbers.tolist())
    elif isinstance(value, dict):
        lines = ",\n".join(f"{inner}{json.dumps(k)}: {_layout(v, inner)}" for k, v in value.items())
    elif isinstance(value, list):
        lines = ",\n".join(inner + json.dumps(v) for v in value)
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return f"{opening}\n{lines}\n{indent}{closing}"


def _entry_problem(entries, size: int) -> str | None:
    """What is wrong with one matrix's row-major list of `size` [re, im]
    pairs, the first problem in entry order, or None."""
    if not isinstance(entries, list) or len(entries) != size:
        return f"must be a row-major list of {size} [re, im] pairs"
    finite = True
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            return f"entry {i} is not a [re, im] number pair"
        try:
            finite = all(map(math.isfinite, pair)) and finite
        except OverflowError:  # an integer too large for a float
            return "contains non-finite entries"
    return None if finite else "contains non-finite entries"


def _parse_matrices(rows: list, dim: int, path, names: list[str]) -> np.ndarray:
    """The matrices (n, dim, dim) of n row-major lists of [re, im] pairs,
    read as one array. Each pair must hold two finite JSON numbers; when
    one does not, or a list is not such a list, the FileFormatError names
    the first problem, list by list in order (`_entry_problem`)."""
    size = dim * dim
    try:
        pairs = list(chain.from_iterable(rows))
        if (
            set(map(len, rows)) == {size}
            and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}
        ):
            values = np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs))
            if np.isfinite(values).all():
                return values.view(complex).reshape(len(rows), dim, dim)
    except (TypeError, OverflowError):  # not a list of lists; an integer too large for a float
        pass
    # the document did not parse, so some list has a problem: name the first
    name, problem = next((n, p) for n, e in zip(names, rows) if (p := _entry_problem(e, size)))
    raise FileFormatError(f"{path}: {name} {problem}")


def load_povm(path) -> tuple[Povm, list[PovmViolation]]:
    """Parse a POVM document; returns the POVM and its validation report.

    Schema problems raise FileFormatError; axiom violations are returned as
    data so callers can decide between strict and lenient handling.
    """
    doc, dim = _load_document(path)
    outcomes = _require(doc, "outcomes", path)
    if (
        not isinstance(outcomes, list)
        or not outcomes
        or not all(isinstance(o, str) for o in outcomes)
    ):
        raise FileFormatError(f"{path}: outcomes must be a nonempty list of strings")
    if len(set(outcomes)) != len(outcomes):
        raise FileFormatError(f"{path}: outcome labels must be distinct")
    elements = _require(doc, "elements", path)
    if not isinstance(elements, dict) or set(elements) != set(outcomes):
        raise FileFormatError(f"{path}: elements must map exactly the outcome labels")
    mats = _parse_matrices(
        [elements[o] for o in outcomes], dim, path, [f"element {o!r}" for o in outcomes]
    )
    povm = Povm(tuple(outcomes), mats)
    return povm, validate_povm(povm)


def save_povm(p: Povm, path) -> None:
    elements = dict(zip(p.outcomes, p.elements))
    _save_document(path, p.dim, outcomes=list(p.outcomes), elements=elements)


def save_state(rho: np.ndarray, path) -> None:
    """Write a density matrix (d, d) as a state document."""
    _save_document(path, rho.shape[0], matrix=rho)


def load_outcome_map_pairs(path) -> list[tuple[str, str]]:
    """Parse a two-column `source target` text file into assignment pairs.

    Blank lines and lines starting with '#' are ignored. Labels must not
    contain whitespace.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise FileFormatError(
                f"{path}: line {lineno}: expected two whitespace-separated labels, "
                f"got {len(fields)}"
            )
        pairs.append((fields[0], fields[1]))
    if not pairs:
        raise FileFormatError(f"{path}: no assignment lines found")
    seen = set()
    for src, _ in pairs:
        if src in seen:
            raise FileFormatError(f"{path}: duplicate source label {src!r}")
        seen.add(src)
    return pairs


def format_float(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all emitted numbers."""
    return f"{x:.12g}"


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of floats with deterministic formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
