"""Tests for the synthetic regression families and the replication loop."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calband.simulation as simulation_module
from calband.bands import (
    evaluate_band,
    full_index_family,
    raw_band,
    rounded_index_family,
)
from calband.simulation import (
    FAMILY_KINDS,
    RegressionFamily,
    eval_p,
    result_summary,
    run_experiment,
    simulate_dataset,
    write_records_csv,
    write_summary_json,
)


def _rep_generator(base_seed, rep):
    # the documented replication contract: philox keyed by base_seed + rep
    return np.random.Generator(np.random.Philox(key=base_seed + rep))


# ---------------------------------------------------------------------------
# families


def test_monomial_is_diagonal_at_s_zero():
    fam = RegressionFamily("monomial", 0.0)
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(eval_p(fam, x), x, atol=0)


def test_monomial_square_root_shape():
    fam = RegressionFamily("monomial", 0.5)
    assert eval_p(fam, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert eval_p(fam, 0.0) == 0.0
    assert eval_p(fam, 1.0) == 1.0


def test_sshaped_reduces_to_diagonal_and_fixes_endpoints():
    flat = RegressionFamily("sshaped", 0.0)
    x = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(eval_p(flat, x), x, atol=1e-15)
    steep = RegressionFamily("sshaped", 1.0)
    assert eval_p(steep, 0.0) == 0.0
    assert eval_p(steep, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert eval_p(steep, 1.0) == 1.0
    assert eval_p(steep, 0.25) < 0.25  # steeper than the diagonal below 1/2


def test_kink_elbow_location_and_legs():
    fam = RegressionFamily("kink", 0.3)
    assert eval_p(fam, 0.44) == pytest.approx(0.2, abs=1e-15)
    assert eval_p(fam, 0.22) == pytest.approx(0.1, abs=1e-15)
    assert eval_p(fam, 0.72) == pytest.approx(0.6, abs=1e-15)


def test_kink_degenerate_elbow_at_s_one():
    fam = RegressionFamily("kink", 1.0)
    assert eval_p(fam, 0.5) == pytest.approx(0.1, abs=1e-15)
    assert eval_p(fam, 1.0) == 1.0  # jump at the right endpoint


def test_step_levels_and_right_continuity():
    fam = RegressionFamily("step", 1.0)
    assert fam.step_count == 5
    assert eval_p(fam, 0.3) == pytest.approx(0.4, abs=1e-15)
    assert eval_p(fam, 0.2) == pytest.approx(0.4, abs=1e-15)  # jump lands high
    assert eval_p(fam, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert eval_p(fam, 1.0) == 1.0
    assert RegressionFamily("step", 0.5).step_count == 10
    assert RegressionFamily("step", 0.1).step_count == 14


def test_step_warns_off_the_tenths_grid():
    with pytest.warns(UserWarning, match="tenths"):
        RegressionFamily("step", 0.33)


def test_wave_pinned_value_and_isotonicity_flag():
    fam = RegressionFamily("wave", 0.5)
    assert eval_p(fam, 0.25) == pytest.approx(0.4375, abs=1e-15)
    assert fam.is_isotonic
    bent = RegressionFamily("wave", 1.0)
    assert not bent.is_isotonic
    assert eval_p(bent, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_p(bent, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_p(bent, 0.25) == pytest.approx(0.625, abs=1e-15)
    x = np.linspace(0.0, 1.0, 201)
    assert (np.diff(eval_p(RegressionFamily("wave", 0.5), x)) >= 0).all()
    assert (np.diff(eval_p(bent, x)) < 0).any()


def test_family_parameter_ranges():
    RegressionFamily("monomial", 0.0)
    RegressionFamily("wave", 1.0)
    RegressionFamily("step", 1.0)
    for kind, s in [
        ("monomial", 1.0),
        ("monomial", -0.1),
        ("step", 0.0),
        ("wave", 1.1),
        ("sshaped", float("nan")),
    ]:
        with pytest.raises(ValueError, match="out of range"):
            RegressionFamily(kind, s)
    with pytest.raises(ValueError, match="unknown family"):
        RegressionFamily("zigzag", 0.5)


def test_eval_p_rejects_points_outside_unit_interval():
    fam = RegressionFamily("monomial", 0.5)
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            eval_p(fam, bad)


def test_all_families_map_into_unit_interval():
    x = np.linspace(0.0, 1.0, 501)
    for kind in FAMILY_KINDS:
        for s in (0.1, 0.5, 0.9):
            p = eval_p(RegressionFamily(kind, s), x)
            assert p.min() >= 0.0 and p.max() <= 1.0


# ---------------------------------------------------------------------------
# sampling


def test_simulate_dataset_is_reproducible_from_key():
    fam = RegressionFamily("kink", 0.4)
    a = simulate_dataset(fam, 200, _rep_generator(5, 3))
    b = simulate_dataset(fam, 200, _rep_generator(5, 3))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = simulate_dataset(fam, 200, _rep_generator(5, 4))
    assert not np.array_equal(a.x, c.x)


def test_simulate_dataset_marginals():
    fam = RegressionFamily("monomial", 0.0)
    d = simulate_dataset(fam, 4000, _rep_generator(1, 0))
    assert 0.0 <= d.x.min() and d.x.max() <= 1.0
    assert abs(d.y.mean() - 0.5) < 0.05  # E[p(X)] = E[X] = 1/2 here


def test_simulate_dataset_rejects_empty_draw():
    with pytest.raises(ValueError, match="n >= 1"):
        simulate_dataset(RegressionFamily("monomial", 0.0), 0, _rep_generator(0, 0))


# ---------------------------------------------------------------------------
# replication loop


def test_run_experiment_is_deterministic():
    fam = RegressionFamily("monomial", 0.5)
    a = run_experiment(fam, n=64, reps=6, base_seed=11, K=100)["nc"]
    b = run_experiment(fam, n=64, reps=6, base_seed=11, K=100)["nc"]
    np.testing.assert_array_equal(a.covered, b.covered)
    np.testing.assert_array_equal(a.knot_coverage, b.knot_coverage)
    np.testing.assert_array_equal(a.iso_rejected, b.iso_rejected)
    np.testing.assert_array_equal(a.widths, b.widths)
    c = run_experiment(fam, n=64, reps=6, base_seed=12, K=100)["nc"]
    assert not np.array_equal(a.widths, c.widths)


def test_run_experiment_single_rep_reconstructs():
    # any repetition is reproducible in isolation from (base_seed, rep)
    fam = RegressionFamily("wave", 1.0)
    res = run_experiment(
        fam, n=96, reps=4, base_seed=7, methods=("raw",), index_family="full"
    )["raw"]
    rep = 2
    data = simulate_dataset(fam, 96, _rep_generator(7, rep))
    band = raw_band(data, full_index_family(data), 0.05)
    assert res.iso_rejected[rep] == (band.lower_levels > band.upper_levels).any()
    p_knots = eval_p(fam, band.knots)
    knot_ok = (band.lower_levels <= p_knots) & (p_knots <= band.upper_levels)
    assert res.knot_coverage[rep] == pytest.approx(knot_ok.mean(), abs=0)
    glo, gup = evaluate_band(band, res.width_grid, extrapolate=True)
    np.testing.assert_array_equal(res.widths[rep], gup - glo)


def test_run_experiment_aggregates_match_records():
    res = run_experiment(RegressionFamily("sshaped", 0.5), n=48, reps=10, base_seed=3)["nc"]
    assert res.coverage_rate == res.covered.mean()
    assert res.rejection_rate == res.iso_rejected.mean()
    assert res.mean_knot_coverage == pytest.approx(res.knot_coverage.mean(), abs=0)
    np.testing.assert_array_equal(res.mean_width, res.widths.mean(axis=0))
    assert res.width_grid.shape == (101,)
    np.testing.assert_allclose(res.width_grid, np.arange(101) / 100.0, atol=0)


def test_run_experiment_method_width_ordering():
    fam = RegressionFamily("kink", 0.5)
    kwargs = dict(n=80, reps=5, base_seed=21, index_family="full")
    runs = run_experiment(fam, methods=("raw", "nc", "yb"), **kwargs)
    raw, nc, yb = runs["raw"], runs["nc"], runs["yb"]
    assert (raw.widths <= nc.widths + 1e-12).all()
    assert (nc.widths <= yb.widths + 1e-12).all()


@pytest.mark.parametrize("index_family", ["rounded", "full"])
def test_run_experiment_methods_match_single_method_runs(index_family):
    # one pass over all methods records exactly what one pass per method does
    fam = RegressionFamily("wave", 1.0)
    kwargs = dict(n=200, alpha=0.9, reps=6, base_seed=5, K=40, index_family=index_family)
    together = run_experiment(fam, methods=("yb", "raw", "nc"), **kwargs)
    assert list(together) == ["yb", "raw", "nc"]
    for method, res in together.items():
        alone = run_experiment(fam, methods=(method,), **kwargs)[method]
        assert res.method == method
        for name in ("covered", "knot_coverage", "iso_rejected", "widths", "width_grid"):
            assert np.array_equal(getattr(res, name), getattr(alone, name)), name
        assert _config(res) == _config(alone)
        np.testing.assert_array_equal(res.iso_rejected, together["yb"].iso_rejected)
    assert together["raw"].iso_rejected.any()  # the shared flag is exercised


_RECORD_FIELDS = (
    "family", "n", "alpha", "method", "index_family", "K", "rng_name",
    "width_grid", "covered", "knot_coverage", "iso_rejected", "widths",
)


@pytest.mark.parametrize("cores", [None, 3, 1])
@pytest.mark.parametrize("index_family", ["rounded", "full"])
def test_dealt_replications_equal_the_serial_ones(monkeypatch, index_family, cores):
    # the oracle: each replication run alone, in this process (reps=1)
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    fam = RegressionFamily("wave", 0.9)
    kwargs = dict(n=120, alpha=0.3, methods=("raw", "nc", "yb"), K=40, index_family=index_family)
    alone = [run_experiment(fam, reps=1, base_seed=20 + r, **kwargs) for r in range(5)]
    for reps in (2, 3, 5):
        dealt = run_experiment(fam, reps=reps, base_seed=20, **kwargs)
        for method, res in dealt.items():
            assert (res.reps, res.base_seed) == (reps, 20)
            for name in _RECORD_FIELDS:
                got = getattr(res, name)
                if name in ("covered", "knot_coverage", "iso_rejected", "widths"):
                    want = np.stack([getattr(a[method], name)[0] for a in alone[:reps]])
                    assert got.dtype == want.dtype, name
                else:
                    want = getattr(alone[0][method], name)
                assert np.array_equal(got, want), (reps, method, name)
    _no_children_left()


def test_run_experiment_without_fork_runs_every_rep_here(monkeypatch):
    fam = RegressionFamily("step", 0.5)
    dealt = run_experiment(fam, n=60, reps=3, base_seed=4)["nc"]
    monkeypatch.delattr(os, "fork")
    pids = []
    real = simulation_module.simulate_dataset

    def spy(*args):
        pids.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(simulation_module, "simulate_dataset", spy)
    serial = run_experiment(fam, n=60, reps=3, base_seed=4)["nc"]
    assert pids == [os.getpid()] * 3
    for name in ("covered", "knot_coverage", "iso_rejected", "widths"):
        assert np.array_equal(getattr(serial, name), getattr(dealt, name)), name


def _fail_in_rep(monkeypatch, bad, how):
    """Make replication bad fail: raise how(), or os._exit(how) in a child."""
    real = simulation_module._rep_rng
    parent = os.getpid()

    def rep_rng(base_seed, rep):
        if rep == bad:
            if isinstance(how, int) and os.getpid() != parent:
                os._exit(how)
            raise how()
        return real(base_seed, rep)

    monkeypatch.setattr(simulation_module, "_rep_rng", rep_rng)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot be rebuilt")
        self.reason = lambda: None  # a lambda does not pickle


def _boom():
    return ArithmeticError("boom")


@pytest.mark.parametrize("bad", [0, 1, 4])
def test_an_error_in_any_share_reaches_the_caller_and_no_child_is_left(monkeypatch, bad):
    # rep 0 is always in this process's share; reps 1 and 4 are in a
    # child's on more than one core (three cores here)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    _fail_in_rep(monkeypatch, bad, _boom)
    with pytest.raises(ArithmeticError, match="boom") as err:
        run_experiment(RegressionFamily("kink", 0.5), n=50, reps=6, base_seed=1)
    if hasattr(err.value, "add_note"):  # Python 3.11+
        assert f"in replication {bad}" in err.value.__notes__
    _no_children_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("bad, how, message", [
    (1, 7, "exited with status 7 and sent no records"),
    (3, _Unpicklable, "_Unpicklable..cannot be rebuilt"),
])
def test_a_child_that_sends_nothing_or_an_unpicklable_error_raises(monkeypatch, bad, how, message):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _fail_in_rep(monkeypatch, bad, how)
    with pytest.raises(RuntimeError, match=message):
        run_experiment(RegressionFamily("kink", 0.5), n=50, reps=4, base_seed=1)
    _no_children_left()


def test_forked_workers_do_not_flush_the_callers_buffers():
    # stdout is a pipe, so block-buffered: "before" is still in the buffer
    # when the workers are forked, and only this process may print it
    code = (
        "import os, sys\n"
        "from calband.simulation import RegressionFamily, run_experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "print('before')\n"
        "run_experiment(RegressionFamily('kink', 0.5), n=40, reps=3)\n"
        "print('after')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=120,
    )
    assert out.stdout == "before\nafter\n"


def _config(result):
    return {
        name: getattr(result, name)
        for name in ("family", "n", "alpha", "method", "index_family", "K",
                     "reps", "base_seed", "rng_name")
    }


def test_run_experiment_small_sample_coverage_sanity():
    res = run_experiment(
        RegressionFamily("monomial", 0.5), n=128, reps=30, base_seed=2, methods=("raw",)
    )["raw"]
    assert res.coverage_rate >= 0.8


def test_run_experiment_index_family_bookkeeping():
    fam = RegressionFamily("monomial", 0.2)
    rounded = run_experiment(fam, n=32, reps=2, base_seed=0, K=50)["nc"]
    assert rounded.K == 50 and rounded.index_family == "rounded"
    full = run_experiment(fam, n=32, reps=2, base_seed=0, index_family="full")["nc"]
    assert full.K is None and full.index_family == "full"
    assert full.rng_name == "philox4x64"


def test_run_experiment_validates_arguments():
    fam = RegressionFamily("monomial", 0.5)
    with pytest.raises(ValueError, match="method"):
        run_experiment(fam, n=16, methods=("spline",))
    with pytest.raises(ValueError, match="at least one method"):
        run_experiment(fam, n=16, methods=())
    with pytest.raises(ValueError, match="duplicate method"):
        run_experiment(fam, n=16, methods=("nc", "raw", "nc"))
    with pytest.raises(ValueError, match="unknown method 'NC'"):
        run_experiment(fam, n=16, methods=("raw", "NC"))
    with pytest.raises(ValueError, match="index family"):
        run_experiment(fam, n=16, index_family="dyadic")
    with pytest.raises(ValueError, match="alpha"):
        run_experiment(fam, n=16, alpha=0.0)
    with pytest.raises(ValueError, match="reps"):
        run_experiment(fam, n=16, reps=0)
    with pytest.raises(ValueError, match="base_seed"):
        run_experiment(fam, n=16, base_seed=-1)


# ---------------------------------------------------------------------------
# outputs


def test_records_csv_round_trips_widths(tmp_path):
    res = run_experiment(RegressionFamily("step", 0.5), n=40, reps=3, base_seed=9)["nc"]
    path = tmp_path / "records.csv"
    write_records_csv(res, path)
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    keys = [ln[2:].split("=", 1)[0] for ln in meta]
    assert keys[0] == "calband"
    for key in ("family", "s", "n", "alpha", "method", "index_family", "K",
                "reps", "base_seed", "rng"):
        assert key in keys
    header = lines[len(meta)].split(",")
    assert header[:4] == ["rep", "covered", "knot_coverage", "iso_rejected"]
    assert header[4] == "width_0.00" and header[-1] == "width_1.00"
    rows = lines[len(meta) + 1 :]
    assert len(rows) == 3
    got = np.array([[float(v) for v in row.split(",")[4:]] for row in rows])
    np.testing.assert_array_equal(got, res.widths)


def test_summary_json_structure(tmp_path):
    res = run_experiment(RegressionFamily("wave", 0.5), n=40, reps=4, base_seed=1)["nc"]
    path = tmp_path / "summary.json"
    write_summary_json(res, path)
    doc = json.loads(path.read_text())
    assert doc == result_summary(res)
    assert doc["config"]["family"] == "wave"
    assert doc["config"]["base_seed"] == "1"
    assert doc["coverage_rate"] == res.coverage_rate
    assert len(doc["mean_width"]) == 101
    assert doc["config"]["calband"]
