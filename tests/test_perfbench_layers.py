"""The benchmark wraps library functions by name; a renamed function would
silently read zero in its per-layer metrics, so every name must resolve."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_traced_name_is_a_library_callable(layers):
    for module, funcs in [*layers.SPANNED.items(), *layers.COUNTED.items()]:
        mod = importlib.import_module(f"{layers.PACKAGE}.{module}")
        for f in funcs:
            assert callable(getattr(mod, f, None)), f"{layers.PACKAGE}.{module}.{f}"
