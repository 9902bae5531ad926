"""Every name a module lists in __all__, or perfbench/traced.py patches, exists.

A traced run of each entry point also records a span for every patched
layer that entry point reaches.
"""

import importlib
import json
import pathlib
import subprocess
import sys

import numpy as np
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


def _band_run(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.random(300)
    path = tmp_path / "predictions.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prediction,outcome\n")
        fh.writelines(f"{a!r},{int(b)}\n" for a, b in zip(x.tolist(), rng.random(300) < x))
    return [
        "cli", "band", str(path), "--index-family", "full",
        "--output", str(tmp_path / "band.json"),
    ]


def _sweep_run(tmp_path):
    return [
        "sweep", "--out-dir", str(tmp_path / "sweep"), "--reps", "1", "--sizes", "256",
        "--families", "sshaped", "--shapes", "0.5", "--methods", "raw,nc,yb",
        "--K", "50",
    ]


_COMMON_SPANS = {
    "bands.family", "bands.noncrossing_band", "bands.raw_band",
    "isotonic.build_sorted_data", "isotonic.pava", "special.cp_bounds_batch",
}


@pytest.mark.parametrize(
    "entry, spans",
    [
        (_band_run, _COMMON_SPANS | {
            "cli.main", "diagnostics.calibration_verdict",
            "diagnostics.hosmer_lemeshow", "diagnostics.isotonicity_pvalue",
            "diagnostics.isotonicity_report",
        }),
        (_sweep_run, _COMMON_SPANS | {
            "bands.evaluate_band", "bands.yb_band", "simulation.run_experiment",
            "simulation.simulate_dataset", "sweep.main", "sweep.write",
        }),
    ],
    ids=["cli", "sweep"],
)
def test_traced_entry_points_find_every_patched_name(tmp_path, entry, spans):
    # traced.py wraps library names in the modules that call them before it
    # runs the entry point; a name that moved fails there with AttributeError.
    # A name that stays but is no longer called through the patched module
    # records no span, and its per-layer metric would read zero
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         "--spans", str(out), *entry(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = {span["name"] for span in json.loads(out.read_text(encoding="utf-8"))}
    assert spans <= recorded, sorted(spans - recorded)
