"""Tests for scripts/run_full_experiments.py, the full simulation sweep."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from calband.simulation import (
    RegressionFamily,
    run_experiment,
    write_records_csv,
    write_summary_json,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_full_experiments.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_full_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_writes_what_single_method_runs_write(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = _load_script().main([
        "--out-dir", str(out), "--reps", "2", "--sizes", "64", "--families", "wave",
        "--shapes", "0.3,0.9", "--methods", "yb,raw,nc", "--K", "50", "--seed", "3",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^\[1/2\] wave_s0\.3_n64 \(\d+\.\ds, eta \d+:\d\d:\d\d\)$", stdout, re.M)
    assert "[2/2] wave_s0.9_n64 (" in stdout

    expected = tmp_path / "expected"
    expected.mkdir()
    for s in (0.3, 0.9):
        for method in ("yb", "raw", "nc"):
            result = run_experiment(
                RegressionFamily("wave", s), 64, methods=(method,), K=50, reps=2,
                base_seed=3,
            )[method]
            stem = f"wave_s{s:g}_n64_{method}"
            assert f"  {stem}: coverage=" in stdout
            write_records_csv(result, expected / f"{stem}.records.csv")
            write_summary_json(result, expected / f"{stem}.summary.json")

    written = {p.name for p in out.iterdir()}
    assert written == {p.name for p in expected.iterdir()} | {"iso_table.csv"}
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    rows = (out / "iso_table.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "s,n,rejection_rate"
    assert [r.split(",")[:2] for r in rows[1:]] == [["0.3", "64"], ["0.9", "64"]]


def test_sweep_in_a_subprocess_prints_each_line_once(tmp_path):
    # stdout is a pipe, so block-buffered; the replications of each cell
    # are dealt over forked workers, which must not print their copy of
    # the parent's buffer again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SCRIPT.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path), "--reps", "3",
         "--sizes", "48,64", "--families", "wave", "--shapes", "0.9",
         "--methods", "raw,nc", "--K", "30"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert [ln.split(" (")[0] for ln in lines if ln.startswith("[")] == [
        "[1/2] wave_s0.9_n48", "[2/2] wave_s0.9_n64",
    ]
    assert len(lines) == 2 * 3 + 2 and len(set(lines)) == len(lines)
    assert lines[-2] == f"wrote {tmp_path / 'iso_table.csv'}"
    assert lines[-1].startswith("done in ")
