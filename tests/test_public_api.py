"""The package's public surface: `jointmeas.__all__` names exactly what the
package exports, so an export removed from the imports but not from
`__all__` (or the reverse) fails here, not only in `from jointmeas import *`.
Every exported name, and every public top-level name of each module, must
also be read by the program itself, so a helper that only the tests call
fails here too."""

import ast
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


def test_every_module_level_name_is_read_outside_the_tests():
    # every line of the package, the benchmark, the tools and pyproject.toml
    # counts as a read, except the line that defines the name
    package = ROOT / "src" / "jointmeas"
    sources = [*package.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources += [*(ROOT / "tools").glob("*.py"), ROOT / "pyproject.toml"]
    lines = [(p, i, line) for p in sources for i, line in enumerate(p.read_text().splitlines(), 1)]
    unused = []
    for module in sorted(package.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_"):
                    continue
                use = re.compile(rf"\b{name}\b")
                if not any(
                    use.search(line) and (p, i) != (module, node.lineno) for p, i, line in lines
                ):
                    unused.append(f"{module.stem}.{name}")
    assert unused == []
