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
    """Write a JSON document: the shared header, then `body` in order."""
    doc = {"format_version": FORMAT_VERSION, "dim": dim, **body}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _parse_matrix(entries, dim: int, path, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise FileFormatError(
            f"{path}: {what} must be a row-major list of {dim * dim} [re, im] pairs"
        )
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise FileFormatError(f"{path}: {what} entry {i} is not a [re, im] number pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError:  # an integer too large for a float
            raise FileFormatError(f"{path}: {what} contains non-finite entries") from None
    if not np.isfinite(flat).all():
        raise FileFormatError(f"{path}: {what} contains non-finite entries")
    return flat.reshape(dim, dim)


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


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
    mats = np.stack(
        [_parse_matrix(elements[o], dim, path, f"element {o!r}") for o in outcomes]
    )
    povm = Povm(tuple(outcomes), mats)
    return povm, validate_povm(povm)


def save_povm(p: Povm, path) -> None:
    _save_document(
        path,
        p.dim,
        outcomes=list(p.outcomes),
        elements={o: _matrix_to_pairs(p[o]) for o in p.outcomes},
    )


def save_state(rho: np.ndarray, path) -> None:
    """Write a density matrix (d, d) as a state document."""
    _save_document(path, rho.shape[0], matrix=_matrix_to_pairs(rho))


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
