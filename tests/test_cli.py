"""End-to-end tests for the command-line interface."""

import decimal
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from _reference import dump_document
import calband
import calband.cli as cli
from calband.bands import (
    evaluate_band,
    full_index_family,
    noncrossing_band,
    raw_band,
)
from calband.cli import _ITEM_SEP, _outward, _read_plain, _read_predictions, _run_texts, main
from calband.isotonic import build_sorted_data, pava

DATA = pathlib.Path(__file__).parent / "data"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs


def test_band_json_golden(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, out, err = _run(
        capsys, ["band", "demo_small.csv", "--alpha", "0.1", "--index-family", "full"]
    )
    assert code == 0
    assert out == (DATA / "golden_band_small.json").read_text()
    assert "warning" in err  # tie grouping collapses the requested bins


def test_band_json_golden_defaults(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, out, err = _run(capsys, ["band", "demo.csv"])
    assert code == 0
    assert out == (DATA / "golden_band_demo.json").read_text()
    assert err == ""


def test_band_csv_golden_with_sidecar(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(DATA)
    out_path = tmp_path / "band.csv"
    code, out, _ = _run(
        capsys,
        [
            "band", "demo_small.csv", "--alpha", "0.1", "--index-family", "full",
            "--format", "csv", "--output", str(out_path),
        ],
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text() == (DATA / "golden_band_small.csv").read_text()
    sidecar = tmp_path / "band.diagnostics.json"
    assert sidecar.read_text() == (DATA / "golden_band_small_diag.json").read_text()


def test_band_svg_golden(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(DATA)
    plot = tmp_path / "plot.svg"
    code, _, _ = _run(
        capsys,
        [
            "band", "demo_small.csv", "--alpha", "0.1", "--index-family", "full",
            "--plot", str(plot),
        ],
    )
    assert code == 0
    assert plot.read_text() == (DATA / "golden_small.svg").read_text()


def test_band_json_file_matches_stdout(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(DATA)
    out_path = tmp_path / "band.json"
    code, out, _ = _run(capsys, ["band", "demo.csv", "--output", str(out_path)])
    assert code == 0
    assert out == ""
    assert out_path.read_text() == (DATA / "golden_band_demo.json").read_text()


def test_band_csv_round_trips_band_evaluation(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(DATA)
    out_path = tmp_path / "band.csv"
    code, _, _ = _run(
        capsys,
        [
            "band", "demo_small.csv", "--alpha", "0.1", "--index-family", "full",
            "--format", "csv", "--output", str(out_path),
        ],
    )
    assert code == 0
    rows = [
        line.split(",")
        for line in out_path.read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    parsed = np.array([[float(v) for v in row] for row in rows])

    raw = np.loadtxt(DATA / "demo_small.csv", delimiter=",", skiprows=1)
    data = build_sorted_data(raw)
    band = noncrossing_band(
        raw_band(data, full_index_family(data), 0.1), pava(data)
    )
    np.testing.assert_array_equal(parsed[:, 0], band.knots)
    lo, up = evaluate_band(band, parsed[:, 0], extrapolate=False)
    # Printed levels are the library's, rounded outward to 12 digits.
    assert (parsed[:, 1] <= lo).all()
    assert (parsed[:, 2] >= up).all()
    assert (lo - parsed[:, 1] < _unit12(lo)).all()
    assert (parsed[:, 2] - up < _unit12(up)).all()


def _unit12(v):
    # One unit in the 12th significant digit of each value; 0 has no gap.
    v = np.abs(np.asarray(v, dtype=np.float64))
    unit = np.full_like(v, np.finfo(np.float64).tiny)
    pos = v > 0
    unit[pos] = 10.0 ** (np.floor(np.log10(v[pos])) - 11)
    return unit


# ---------------------------------------------------------------------------
# printed bounds


def _outward_oracle(x, up):
    # The rule itself, in exact decimals: among decimals with at most 12
    # significant digits in the decades around x, the largest whose double
    # is <= x (up=False) or the smallest whose double is >= x (up=True).
    d = decimal.Decimal(x)
    best = None
    for exp in range(d.adjusted() - 12, d.adjusted() - 9):
        centre = int(d.scaleb(-exp))
        for m in range(centre - 2, centre + 3):
            if len(str(m).rstrip("0")) > 12:
                continue
            c = decimal.Decimal(m).scaleb(exp)
            if up and float(c) >= x and (best is None or c < best):
                best = c
            if not up and float(c) <= x and (best is None or c > best):
                best = c
    return float(best)


def _significant_digits(value):
    mantissa = repr(float(value)).split("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def test_outward_rounding_hides_the_last_ulp():
    # One lower bound as two scipy builds give it, one ulp apart.
    pair = [0.00037885964610360166, 0.0003788596461036017]
    assert json.dumps(_outward(pair, up=False)) == (
        "[0.000378859646103, 0.000378859646103]"
    )
    for up in (False, True):
        assert _outward([0.0, 1.0], up=up) == [0.0, 1.0]
    assert _outward(0.9992424242424243, up=True) == 0.999242424243
    assert _outward(0.1, up=True) == 0.1


def test_outward_rounding_is_outward_and_matches_decimal_oracle():
    rng = np.random.default_rng(20221)
    uniform = rng.random(500)
    tiny = 10.0 ** rng.uniform(-300.0, 0.0, 500)
    # Short decimals and their ulp neighbours sit next to the 12-digit grid,
    # where a rounded product or a misjudged decade would show.
    short = np.array(
        [float(f"{m}e-{e}") for e in range(0, 40, 3) for m in range(1, 1000, 3)]
    )
    short = short[short <= 1.0]
    near = np.concatenate((np.nextafter(short, 0.0), short, np.nextafter(short, 2.0)))
    for values in (uniform, tiny, near, np.array([5e-324])):
        down = np.array(_outward(values, up=False))
        upper = np.array(_outward(values, up=True))
        assert (down <= values).all()
        assert (upper >= values).all()
        for printed in (down, upper):
            assert max(_significant_digits(v) for v in printed) <= 12
        for x, lo, hi in zip(values.tolist(), down, upper):
            assert lo == _outward_oracle(x, up=False), x
            assert hi == _outward_oracle(x, up=True), x


def test_outward_rounding_keeps_levels_nondecreasing():
    rng = np.random.default_rng(7)
    base = np.sort(np.concatenate((rng.random(500), 10.0 ** rng.uniform(-40, 0, 500))))
    levels = np.sort(np.concatenate((base, np.nextafter(base, 2.0), base)))
    for up in (False, True):
        assert (np.diff(_outward(levels, up=up)) >= 0).all()


# ---------------------------------------------------------------------------
# JSON writer and CSV table


def _spy_documents(monkeypatch):
    # The documents _write_document is asked to write, built as the JSON
    # was built before it: every band array as a list of Python floats.
    docs = []
    real = cli._write_document

    def spy(fh, band_block, diagnostics):
        band = {k: np.asarray(v, dtype=np.float64).tolist() for k, v in band_block.items()}
        docs.append({"band": band, **diagnostics})
        real(fh, band_block, diagnostics)

    monkeypatch.setattr(cli, "_write_document", spy)
    return docs


def _reference_text(doc):
    buf = io.StringIO()
    dump_document(doc, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "case",
    ["demo", "crossing", "general", "one_knot", "odd_path"],
)
def test_band_json_matches_json_dump(monkeypatch, capsys, tmp_path, case):
    flags = []
    if case == "demo":
        path = DATA / "demo.csv"
    elif case == "crossing":
        path, flags = DATA / "crossing.csv", ["--method", "raw"]
    elif case == "general":
        path, flags = DATA / "general.csv", ["--general-covariates"]
    elif case == "one_knot":
        path = tmp_path / "one.csv"
        path.write_text("prediction,outcome\n0.5,1\n")
    else:
        path = tmp_path / 'pr\u00e9dictions "v2".csv'
        shutil.copy(DATA / "demo_small.csv", path)
    docs = _spy_documents(monkeypatch)
    out_path = tmp_path / "band.json"
    code, out, _ = _run(capsys, ["band", str(path), *flags])
    assert code == 0
    code, _, _ = _run(capsys, ["band", str(path), *flags, "--output", str(out_path)])
    assert code == 0
    assert len(docs) == 2
    expected = _reference_text(docs[0])
    assert out == expected
    assert out_path.read_bytes() == expected.encode("utf-8")
    if case == "general":
        assert '"verdict": null' in out
    if case == "one_knot":
        assert docs[0]["hosmer_lemeshow"] == {
            "error": "need at least g=10 observations, got n=1"
        }
    if case == "odd_path":
        assert '\\u00e9dictions \\"v2\\".csv' in out


def test_band_csv_table_prints_repr_of_each_cell(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(DATA)
    for name in ("demo.csv", "crossing.csv"):
        code, out, _ = _run(capsys, ["band", name, "--method", "raw"])
        assert code == 0
        band = json.loads(out)["band"]
        columns = [band[k] for k in ("knots", "lower", "upper", "isotonic_fit")]
        expected = "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))
        out_path = tmp_path / "band.csv"
        code, _, _ = _run(
            capsys,
            ["band", name, "--method", "raw", "--format", "csv", "--output", str(out_path)],
        )
        assert code == 0
        table = out_path.read_text().split("x,lower,upper,isotonic_fit\n", 1)[1]
        assert table == expected


def test_run_texts_is_repr_of_each_value():
    rng = np.random.default_rng(11)
    steps = np.sort(rng.random(40))
    # ulp neighbours and signed zeros next to each other must not share a run
    steps = np.concatenate(([-0.0, 0.0, -0.0], steps, np.nextafter(steps, 2.0)))
    values = steps[np.sort(rng.integers(0, steps.size, 2000))]
    texts = _run_texts(values)
    assert texts == [repr(v) for v in values.tolist()]
    nested = json.dumps({"band": {"lower": values.tolist()}}, indent=2)
    assert f"[\n      {_ITEM_SEP.join(texts)}\n    ]" in nested
    assert _run_texts([0.0, -0.0, -0.0, 0.0]) == ["0.0", "-0.0", "-0.0", "0.0"]


def test_run_texts_refuses_non_finite_values():
    # json would print NaN or Infinity where repr prints nan or inf
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _run_texts([0.5, bad, 0.5])


# ---------------------------------------------------------------------------
# band input handling and exit codes


def _write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return str(path)


def test_band_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["band", str(tmp_path / "absent.csv")])
    assert code == 2
    assert "cannot read" in err


def test_band_bad_outcome_names_line(capsys, tmp_path):
    path = _write(tmp_path, "prediction,outcome\n0.5,1\n0.6,2\n")
    code, _, err = _run(capsys, ["band", path])
    assert code == 2
    assert "line 3" in err and "outcome" in err


def test_band_unparseable_prediction_names_line(capsys, tmp_path):
    path = _write(tmp_path, "prediction,outcome\n0.5,1\noops,0\n")
    code, _, err = _run(capsys, ["band", path])
    assert code == 2
    assert "line 3" in err and "oops" in err


def test_band_short_row_is_io_error(capsys, tmp_path):
    path = _write(tmp_path, "prediction,outcome\n0.5\n")
    code, _, err = _run(capsys, ["band", path])
    assert code == 2
    assert "line 2" in err


def test_band_prediction_outside_unit_interval(capsys, tmp_path):
    path = _write(tmp_path, "prediction,outcome\n0.5,1\n1.5,0\n")
    code, _, err = _run(capsys, ["band", path])
    assert code == 2
    assert "general-covariates" in err


def test_band_general_covariates_skips_diagonal_diagnostics(capsys):
    code, out, _ = _run(
        capsys, ["band", str(DATA / "general.csv"), "--general-covariates"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is None
    assert doc["hosmer_lemeshow"] is None
    assert doc["band"]["knots"][0] == -0.5
    assert doc["band"]["knots"][-1] == 2.4
    assert doc["meta"]["general_covariates"] is True


def test_band_empty_and_headerless_files(capsys, tmp_path):
    code, _, err = _run(capsys, ["band", _write(tmp_path, "")])
    assert code == 2 and "empty" in err
    code, _, err = _run(capsys, ["band", _write(tmp_path, "a,b\n1,2\n")])
    assert code == 2 and "header" in err
    code, _, err = _run(capsys, ["band", _write(tmp_path, "prediction,outcome\n")])
    assert code == 2 and "no data rows" in err


def test_band_extra_columns_warn_but_parse(capsys, tmp_path):
    path = _write(
        tmp_path, "prediction,outcome,label\n0.2,0,a\n0.4,1,b\n0.9,1,c\n"
    )
    code, out, err = _run(capsys, ["band", path])
    assert code == 0
    assert "ignoring extra column" in err
    assert len(json.loads(out)["band"]["knots"]) == 3


def test_band_usage_errors(capsys, tmp_path):
    demo = str(DATA / "demo_small.csv")
    cases = [
        ["band", demo, "--alpha", "1.5"],
        ["band", demo, "--K", "0"],
        ["band", demo, "--hl-bins", "1"],
        ["band", demo, "--format", "csv"],
        ["band", demo, "--zoom", "0.5"],
        ["band", demo, "--zoom", "0.7,0.2"],
        ["band", demo, "--zoom", "a,b"],
        ["band", demo, "--method", "bootstrap"],
        ["band"],
        [],
    ]
    for argv in cases:
        code, _, err = _run(capsys, argv)
        assert code == 1, argv
        assert "error" in err


def test_band_zoom_outside_observed_range(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        [
            "band", str(DATA / "demo_small.csv"), "--no-extrapolate",
            "--zoom", "0.96,0.99", "--plot", str(tmp_path / "p.svg"),
        ],
    )
    assert code == 1
    assert "does not intersect" in err


def test_band_crossing_data_warns_and_reports(capsys):
    code, out, err = _run(
        capsys, ["band", str(DATA / "crossing.csv"), "--method", "raw"]
    )
    assert code == 0  # statistical rejection is not a program failure
    assert "crosses" in err
    doc = json.loads(out)
    iso = doc["isotonicity"]
    assert iso["crossing_regions"] == [[0.25, 0.75]]
    assert iso["gamma_hat"] > 0.0
    assert iso["p_value"] < 0.05
    lo = np.array(doc["band"]["lower"])
    up = np.array(doc["band"]["upper"])
    assert (lo > up).any()
    # ties leave 2 Hosmer-Lemeshow bins, hence 0 degrees of freedom
    assert "reduced 10 requested bins to 2" in err
    assert doc["hosmer_lemeshow"]["p_value"] is None
    assert '"p_value": null' in out


# ---------------------------------------------------------------------------
# vectorized ingest against the csv loop


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _float_spellings(rng):
    # Random reprs, subnormals, halfway cases between adjacent doubles and
    # strings of 17 or more digits, all as the loop would read them.
    texts = [repr(v) for v in rng.random(100_000).tolist()]
    sub = rng.integers(1, 2**52, 200) * 5e-324
    texts += [repr(v) for v in sub.tolist()]
    texts += ["5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
              "2.2250738585072011e-308", "2.2250738585072012e-308"]
    for v in rng.random(300).tolist() + sub[:100].tolist():
        half = (decimal.Decimal(v) + decimal.Decimal(np.nextafter(v, 2.0))) / 2
        tick = decimal.Decimal(1).scaleb(half.adjusted() - 40)
        texts += [str(half), str(half + tick), str(half - tick)]
    for v in rng.random(300).tolist():
        texts += [f"{v:.17f}", f"{v:.25e}", f"{v:.40f}"]
    texts += ["0." + "".join(map(str, rng.integers(0, 10, 60))) for _ in range(100)]
    texts += ["1.", ".5", "+0.25", "5E-1", "-0.0", "0", "1", "1e0", "0.5e-3"]
    texts += [" 0.5", "0.25 ", "\t0.75\t", "  .125  "]
    return texts


def test_fast_ingest_parses_like_float(tmp_path):
    texts = _float_spellings(np.random.default_rng(8))
    outcomes = ["1", "0", " 1.0", "0e0 ", "-0.0", "1.", "+1"]
    outs = [outcomes[i % len(outcomes)] for i in range(len(texts))]
    path = tmp_path / "spellings.csv"
    path.write_text(
        "prediction,outcome\n" + "".join(f"{p},{o}\n" for p, o in zip(texts, outs))
    )
    with open(path, newline="", encoding="utf-8") as fh:
        got = _read_plain(fh, general_covariates=False)
    assert got is not None
    x, y = got
    np.testing.assert_array_equal(_bits(x), _bits([float(t) for t in texts]))
    np.testing.assert_array_equal(_bits(y), _bits([float(t) for t in outs]))


# (file bytes, extra flags, whether the vectorized reader accepts the file)
_INGEST_CASES = {
    "plain": (b"prediction,outcome\n0.5,1\n0.25,0\n0.75,1\n", [], True),
    "reordered": (b"Outcome , PREDICTION\n1,0.5\n0,0.25\n", [], True),
    "crlf": (b"prediction,outcome\r\n0.5,1\r\n0.25,0\r\n", [], True),
    "lone_cr": (b"prediction,outcome\r0.5,1\r0.25,0\r", [], True),
    "blank_row": (b"prediction,outcome\n0.5,1\n\n0.25,0\n", [], True),
    "padded": (b"prediction,outcome\n 0.5 , 1 \n\t0.25\t,0\n", [], True),
    "quoted": (b'"prediction","outcome"\n"0.5","1"\n0.25,0\n', [], False),
    "quoted_value": (b'prediction,outcome\n0.5,"1"\n0.25,0\n', [], False),
    "comment_row": (b"prediction,outcome\n# note\n0.5,1\n", [], False),
    "whitespace_row": (b"prediction,outcome\n0.5,1\n   \n\t\n0.25,0\n", [], False),
    "bom": (b"\xef\xbb\xbfprediction,outcome\n0.5,1\n", [], True),
    "bad_utf8": (b"prediction,outcome\n0.5,1\n\xff,0\n", [], False),
    "extra_column": (b"prediction,outcome,label\n0.2,0,a\n0.4,1,b\n", [], False),
    "extra_numeric": (b"prediction,outcome,w\n0.2,0,3\n0.4,1,4\n", [], False),
    "duplicated": (b"prediction,outcome,prediction\n0.2,0,0.9\n0.4,1,0.1\n", [], False),
    "no_outcome": (b"prediction,prediction\n0.2,0.3\n", [], False),
    "trailing_comma": (b"prediction,outcome\n0.5,1,\n", [], False),
    "long_row": (b"prediction,outcome\n0.5,1\n0.25,0,7\n", [], False),
    "short_row": (b"prediction,outcome\n0.5,1\n0.5\n", [], False),
    "empty_field": (b"prediction,outcome\n0.5,\n", [], False),
    "header_only": (b"prediction,outcome\n", [], False),
    "empty": (b"", [], False),
    "nan": (b"prediction,outcome\nnan,1\n", [], False),
    "inf": (b"prediction,outcome\n0.5,1\ninf,0\n", [], False),
    "nan_general": (b"prediction,outcome\n0.5,1\nnan,0\n", ["--general-covariates"], False),
    "underscore": (b"prediction,outcome\n1_0,1\n", [], False),
    "underscore_general": (
        b"prediction,outcome\n1_0,1\n0.5,0\n", ["--general-covariates"], False
    ),
    "outside": (b"prediction,outcome\n0.5,1\n1.5,0\n", [], False),
    "outside_general": (b"prediction,outcome\n0.5,1\n1.5,0\n", ["--general-covariates"], True),
    "negative": (b"prediction,outcome\n-0.25,1\n", [], False),
    "outcome_two": (b"prediction,outcome\n0.5,1\n0.6,2\n", [], False),
    "outcome_half": (b"prediction,outcome\n0.5,0.5\n", [], False),
    "outcome_nan": (b"prediction,outcome\n0.5,nan\n", [], False),
}


def _ingest(path, flags, capsys):
    try:
        x, y = _read_predictions(path, "--general-covariates" in flags)
        got = ("arrays", _bits(x).tolist(), _bits(y).tolist())
    except (cli.InputError, ValueError) as exc:
        got = (type(exc).__name__, str(exc))
    return got, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_INGEST_CASES))
def test_ingest_matches_the_csv_loop(monkeypatch, capsys, tmp_path, case):
    data, flags, fast = _INGEST_CASES[case]
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        assert (_read_plain(fh, "--general-covariates" in flags) is not None) == fast

    both = _ingest(str(path), flags, capsys), _run(capsys, ["band", str(path), *flags])
    monkeypatch.setattr(cli, "_read_plain", lambda fh, general_covariates: None)
    loop = _ingest(str(path), flags, capsys), _run(capsys, ["band", str(path), *flags])
    assert both == loop


def test_band_non_utf8_input_is_io_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"prediction,outcome\n0.5,1\n\xff,0\n")
    code, out, err = _run(capsys, ["band", str(path)])
    assert code == 2
    assert out == ""
    assert str(path) in err and "UTF-8" in err and "0xff" in err


def test_band_reads_a_byte_order_mark_like_its_absence(capsys, tmp_path):
    text = (DATA / "demo_small.csv").read_bytes()
    # the quoted header sends the file through the csv loop after a rewind
    quoted = text.replace(b"prediction,outcome", b'"prediction","outcome"', 1)
    plain = tmp_path / "plain.csv"
    marked = tmp_path / "marked.csv"
    for body in (text, quoted):
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        code, want, want_err = _run(capsys, ["band", str(plain)])
        assert code == 0
        code, got, err = _run(capsys, ["band", str(marked)])
        assert code == 0 and err == want_err
        want, got = json.loads(want), json.loads(got)
        assert got["band"] == want["band"]
        del got["meta"]["input"], want["meta"]["input"]
        assert got == want


# ---------------------------------------------------------------------------
# simulate


def test_simulate_stdout_summary_and_determinism(capsys):
    argv = [
        "simulate", "--family", "monomial", "--s", "0.5", "--n", "64",
        "--reps", "3", "--seed", "5",
    ]
    code, first, err = _run(capsys, argv)
    assert code == 0 and err == ""
    code, second, _ = _run(capsys, argv)
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["config"]["family"] == "monomial"
    assert doc["config"]["base_seed"] == "5"
    assert doc["config"]["rng"] == "philox4x64"
    assert 0.0 <= doc["coverage_rate"] <= 1.0
    assert len(doc["mean_width"]) == 101


def test_simulate_writes_records_and_summary(capsys, tmp_path):
    records = tmp_path / "records.csv"
    summary = tmp_path / "summary.json"
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--family", "wave", "--s", "1.0", "--n", "48",
            "--reps", "4", "--seed", "2", "--out-csv", str(records),
            "--out-json", str(summary),
        ],
    )
    assert code == 0
    assert out == ""  # summary went to the file instead of stdout
    lines = records.read_text().splitlines()
    assert lines[0].startswith("# calband=")
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert len(lines) - header_at - 1 == 4
    doc = json.loads(summary.read_text())
    assert doc["config"]["family"] == "wave"
    assert doc["config"]["n"] == "48"


def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(
        "# experiment cell\nfamily=kink\ns=0.4\nn=32\nreps=2\nseed=3\nalpha=0.1\n"
    )
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["family"] == "kink"
    assert doc["config"]["n"] == "32"
    assert doc["config"]["alpha"] == "0.1"

    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg), "--n", "48"])
    assert code == 0
    assert json.loads(out)["config"]["n"] == "48"


def test_simulate_config_seed_alias_and_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("family=monomial\ns=0.2\nn=16\nreps=2\nbase_seed=9\nflavor=mild\n")
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    assert "unknown config key 'flavor'" in err
    assert json.loads(out)["config"]["base_seed"] == "9"


def test_simulate_usage_errors(capsys, tmp_path):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("family=monomial\ns=abc\nn=16\n")
    no_eq = tmp_path / "noeq.cfg"
    no_eq.write_text("family monomial\n")
    cases = [
        ["simulate"],
        ["simulate", "--family", "monomial", "--s", "0.5"],
        ["simulate", "--family", "monomial", "--s", "2.0", "--n", "16"],
        ["simulate", "--family", "monomial", "--s", "0.5", "--n", "0"],
        ["simulate", "--family", "monomial", "--s", "0.5", "--n", "16",
         "--alpha", "0"],
        ["simulate", "--config", str(bad_cfg)],
    ]
    for argv in cases:
        code, _, err = _run(capsys, argv)
        assert code == 1, argv
        assert "error" in err
    code, _, err = _run(capsys, ["simulate", "--config", str(no_eq)])
    assert code == 2
    assert "key=value" in err
    code, _, err = _run(capsys, ["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_simulate_missing_inputs_are_named(capsys):
    code, _, err = _run(capsys, ["simulate", "--family", "monomial"])
    assert code == 1
    assert "s" in err and "n" in err


# ---------------------------------------------------------------------------
# rejection-rate table


def test_table_requires_cells(capsys):
    code, _, err = _run(capsys, ["simulate", "--paper-table", "iso"])
    assert code == 1
    assert "--cells" in err


def test_table_rejects_malformed_cells(capsys):
    for cells in ("s=1.0", "n=64", "s=1.0:n=abc", "s=1.0:n=64:k=2", ","):
        code, _, err = _run(
            capsys, ["simulate", "--paper-table", "iso", "--cells", cells]
        )
        assert code == 1, cells


def test_table_grid_output_and_files(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    out_json = tmp_path / "table.json"
    code, out, err = _run(
        capsys,
        [
            "simulate", "--paper-table", "iso",
            "--cells", "s=1.0:n=48,s=0.5:n=48", "--reps", "3", "--seed", "1",
            "--method", "yb",
            "--out-csv", str(out_csv), "--out-json", str(out_json),
        ],
    )
    assert code == 0
    assert "--method is ignored" in err
    assert "isotonicity rejection rate" in out
    assert "48" in out and "0.5" in out
    lines = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "s,n,rejection_rate"
    assert len(lines) == 3
    doc = json.loads(out_json.read_text())
    assert doc["table"] == "iso"
    assert {c["s"] for c in doc["cells"]} == {0.5, 1.0}
    for cell in doc["cells"]:
        assert 0.0 <= cell["rejection_rate"] <= 1.0


def test_table_reads_config_and_flags_override_it(capsys, tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("alpha=0.1\nreps=2\nseed=3\nindex_family=full\n")
    argv = ["simulate", "--paper-table", "iso", "--cells", "s=1.0:n=24",
            "--config", str(cfg)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[1] == "alpha=0.1 reps=2 seed=3 index_family=full"
    code, out, _ = _run(capsys, argv + ["--seed", "4", "--index-family", "rounded"])
    assert code == 0
    assert out.splitlines()[1] == "alpha=0.1 reps=2 seed=4 index_family=rounded K=1000"


def test_table_validates_settings_like_one_cell(capsys, tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("reps=0\n")
    base = ["simulate", "--paper-table", "iso", "--cells", "s=1.0:n=24"]
    for extra in (["--config", str(cfg)], ["--reps", "0"], ["--K", "0"],
                  ["--seed", "-1"], ["--alpha", "1.5"]):
        code, _, err = _run(capsys, base + extra)
        assert code == 1, extra
        assert "error" in err


# ---------------------------------------------------------------------------
# installed entry point


@pytest.mark.skipif(
    shutil.which("calband") is None,
    reason="calband console script not on PATH; install the package with "
    "pip install -e . --no-build-isolation",
)
def test_console_script_version_and_errors():
    out = subprocess.run(
        ["calband", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "calband 0.1.0"
    bad = subprocess.run(
        ["calband", "simulate"], capture_output=True, text=True
    )
    assert bad.returncode == 1


def test_module_invocation_matches_script():
    out = subprocess.run(
        [sys.executable, "-m", "calband.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "calband 0.1.0"


def test_scipy_special_is_imported_only_to_bound_pairs():
    # scipy.special is most of calband's import time; --version and usage
    # errors must not pay for it.
    script = """
import sys
from calband.cli import main
assert "scipy.special" not in sys.modules, "import"
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
assert "scipy.special" not in sys.modules, "--version"
assert main(["band"]) == 1
assert main(["band", sys.argv[1], "--alpha", "2"]) == 1
assert "scipy.special" not in sys.modules, "usage error"
assert main(["band", sys.argv[1], "--output", sys.argv[2]]) == 0
assert "scipy.special" in sys.modules
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(calband.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "demo_small.csv"), os.devnull],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "calband 0.1.0"
