"""The package's export list matches what its __init__ imports."""

import types

import pnfkit


def test_all_matches_imported_names():
    imported = {
        name
        for name, value in vars(pnfkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(pnfkit.__all__) == imported
