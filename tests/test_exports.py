"""Every name a module lists in __all__ exists in it."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "calband",
        "calband.special",
        "calband.bands",
        "calband.isotonic",
        "calband.diagnostics",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
