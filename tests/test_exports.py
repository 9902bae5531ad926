"""Every name a module lists in __all__, or perfbench/traced.py patches, exists.

A traced run of each entry point also records a span for every patched
layer that entry point reaches, and the p-value's exact bounds, the
crossing witness checks among them, are counted in its spans.
"""

import importlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from _reference import dip_data

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


def _band_argv(tmp_path, x, y):
    path = tmp_path / "predictions.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prediction,outcome\n")
        fh.writelines(f"{a!r},{int(b)}\n" for a, b in zip(x.tolist(), y.tolist()))
    return [
        "cli", "band", str(path), "--index-family", "full",
        "--output", str(tmp_path / "band.json"),
    ]


def _band_run(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.random(300)
    return _band_argv(tmp_path, x, rng.random(300) < x)


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
    recorded = {span["name"] for span in _traced_spans(tmp_path, entry(tmp_path))}
    assert spans <= recorded, sorted(spans - recorded)


def _traced_spans(tmp_path, argv):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         "--spans", str(out), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_traced_pvalue_counts_the_witness_checks(tmp_path):
    # on a band that crosses (p is about 0.003), the p-value's probes check
    # the crossing witness with one cp_bounds_batch call of two pairs; it
    # goes through the patched name, so the per-layer bound counts include it
    d = dip_data(np.random.default_rng(3), 768)
    spans = _traced_spans(tmp_path, _band_argv(tmp_path, d.x, d.y))
    pvalue = {s["id"] for s in spans if s["name"] == "diagnostics.isotonicity_pvalue"}
    assert len(pvalue) == 1

    def under_pvalue(span):
        while span["parent"] is not None:
            if span["parent"] in pvalue:
                return True
            span = spans[span["parent"]]
        return False

    checks = [
        s for s in spans
        if s["name"] == "special.cp_bounds_batch" and s["counts"]["pairs"] == 2
    ]
    assert any(under_pvalue(s) for s in checks)
