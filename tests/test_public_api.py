"""The package's public surface: `jointmeas.__all__` names exactly what the
package exports, so an export removed from the imports but not from
`__all__` (or the reverse) fails here, not only in `from jointmeas import *`.
Every exported name must also be read by the program itself, so a helper
that only the tests call fails here too."""

import re
import types
from pathlib import Path

import jointmeas

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_without_duplicates():
    assert len(set(jointmeas.__all__)) == len(jointmeas.__all__)
    missing = [n for n in jointmeas.__all__ if not hasattr(jointmeas, n)]
    assert missing == []


def test_all_is_the_public_non_module_names():
    public = {
        n
        for n, v in vars(jointmeas).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(jointmeas.__all__) == public


def test_every_export_is_read_outside_the_tests():
    # the package's modules other than __init__.py, the benchmark and the
    # tools; a name's own def or class line does not count as a use
    sources = [p for p in (ROOT / "src" / "jointmeas").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    lines = [line for p in sources for line in p.read_text().splitlines()]
    unused = []
    for name in jointmeas.__all__:
        own = re.compile(rf"\s*(def|class)\s+{name}\b")
        use = re.compile(rf"\b{name}\b")
        if not any(use.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
