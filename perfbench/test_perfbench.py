"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The toy-mode tests run every workload, traced and untraced, through the
same code paths as a real run, at sizes that take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_reports_every_metric(workload, trace):
    out = _bench(
        ROOT, "--toy", "--workload", workload, "--seed", "7", "--seconds", "0.1",
        "--trace", str(trace),
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["bands.raw_band.calls"] >= 1
        assert metrics["special.cp_bounds_batch.pairs"] >= 1
        if workload == "sweep-cell":
            assert metrics["simulation.raw_band_per_rep"] == 3
        else:
            assert metrics["cli.output_bytes"] > 0
        if workload == "band-isotest":
            assert metrics["diagnostics.isotonicity_pvalue.rebuilds"] == 16
    else:
        assert metrics["success_rate"] == 1.0
        assert all(metrics[k] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "band-large", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout == ""


def test_spec_lists_the_workloads_and_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def test_inputs_depend_only_on_the_seed(tmp_path):
    wl = workloads.TOY_WORKLOADS["band-isotest"]
    a = workloads.prepare(wl, 5, tmp_path / "a")
    b = workloads.prepare(wl, 5, tmp_path / "b")
    c = workloads.prepare(wl, 6, tmp_path / "c")
    text = [(d / "predictions.csv").read_bytes() for d in (tmp_path / "a", tmp_path / "b", tmp_path / "c")]
    assert text[0] == text[1] != text[2]
    assert np.array_equal(a.expected_knots, b.expected_knots)
    assert not np.array_equal(a.expected_knots, c.expected_knots)


def test_predictions_are_written_as_plain_floats(tmp_path):
    x = np.array([0.1, 1 / 3, 0.0, 1.0])
    path = tmp_path / "p.csv"
    workloads.write_predictions(path, x, np.array([True, False, True, False]))
    lines = path.read_text().splitlines()
    assert lines[0] == "prediction,outcome"
    assert "np.float64" not in path.read_text()
    assert [float(line.split(",")[0]) for line in lines[1:]] == x.tolist()
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "0", "1", "0"]


def _band_job(tmp_path, lower, upper, fit, p_value=0.5):
    knots = np.array([0.1, 0.4, 0.7])
    doc = {
        "band": {"knots": knots.tolist(), "lower": lower, "upper": upper, "isotonic_fit": fit},
        "isotonicity": {"p_value": p_value},
        "meta": {"n": 3, "n_groups": 3, "method": "nc"},
    }
    out = tmp_path / "band.json"
    out.write_text(json.dumps(doc))
    wl = workloads.Workload("band-large", workloads.ENTRY_CLI, n=3)
    return workloads.Job(wl, [], out, expected_knots=knots)


def test_band_check_accepts_a_valid_band(tmp_path):
    job = _band_job(tmp_path, [0.0, 0.2, 0.3], [0.5, 0.6, 1.0], [0.2, 0.4, 0.6])
    assert len(workloads.check(job)) == 16


@pytest.mark.parametrize(
    "lower, upper, fit, p_value",
    [
        ([0.0, 0.3, 0.2], [0.5, 0.6, 1.0], [0.2, 0.4, 0.6], 0.5),  # lower decreases
        ([0.0, 0.2, 0.3], [0.5, 0.6, 1.5], [0.2, 0.4, 0.6], 0.5),  # upper above 1
        ([0.0, 0.2, 0.5], [0.5, 0.6, 1.0], [0.2, 0.4, 0.4], 0.5),  # fit below lower
        ([0.0, 0.2, 0.3], [0.5, 0.6, 1.0], [0.2, 0.4, 0.6], 1.5),  # p-value above 1
        ([0.0, 0.2], [0.5, 0.6, 1.0], [0.2, 0.4, 0.6], 0.5),  # missing level
    ],
)
def test_band_check_rejects_broken_bands(tmp_path, lower, upper, fit, p_value):
    job = _band_job(tmp_path, lower, upper, fit, p_value)
    with pytest.raises(workloads.CheckFailed):
        workloads.check(job)


def _span(i, name, parent, start, end, **counts):
    return {"id": i, "name": name, "parent": parent, "start_ns": start, "end_ns": end,
            "counts": counts}


def test_self_time_subtracts_the_children():
    spans = [
        _span(0, "cli.main", None, 0, 100),
        _span(1, "bands.raw_band", 0, 10, 40, n_groups=5),
        _span(2, "special.cp_bounds_batch", 1, 15, 35, pairs=20),
        _span(3, "diagnostics.isotonicity_pvalue", 0, 50, 90),
        _span(4, "bands.raw_band", 3, 55, 85, n_groups=5),
    ]
    assert layers.self_times_ns(spans) == [30, 10, 20, 10, 30]
    m = layers.span_metrics(spans, reps=0)
    assert m["cli.self_ms"] == 30 / 1e6
    assert m["bands.raw_band.calls"] == 2
    assert m["bands.raw_band.self_ms"] == 40 / 1e6
    assert m["diagnostics.isotonicity_pvalue.rebuilds"] == 1
    assert m["bands.raw_band.levels_per_pair"] == 2 * 10 / 20
    assert m["simulation.raw_band_per_rep"] == 0.0


def test_raw_bands_per_rep_counts_only_the_simulation():
    spans = [
        _span(0, "simulation.run_experiment", None, 0, 100),
        _span(1, "bands.raw_band", 0, 10, 20),
        _span(2, "bands.raw_band", 0, 30, 40),
        _span(3, "bands.raw_band", None, 200, 210),
    ]
    assert layers.span_metrics(spans, reps=2)["simulation.raw_band_per_rep"] == 1.0
