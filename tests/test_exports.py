"""Every name a module lists in __all__, or perfbench/traced.py patches, exists."""

import importlib
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "module",
    [
        "calband",
        "calband.special",
        "calband.bands",
        "calband.isotonic",
        "calband.diagnostics",
        "calband.simulation",
        "calband.cli",
        "calband.svg",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize(
    "entry", [["cli", "--version"], ["sweep", "--help"]], ids=["cli", "sweep"]
)
def test_traced_entry_points_find_every_patched_name(tmp_path, entry):
    # traced.py wraps library names in the modules that call them before it
    # runs the entry point; a name that moved fails there with AttributeError
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         "--spans", str(tmp_path / "spans.json"), *entry],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
