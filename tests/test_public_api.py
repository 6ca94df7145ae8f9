"""The package's public surface: `jointmeas.__all__` names exactly what the
package exports, so an export removed from the imports but not from
`__all__` (or the reverse) fails here, not only in `from jointmeas import *`."""

import types

import jointmeas


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
