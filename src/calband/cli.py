"""Command-line front end.

Two subcommands: `band` ingests a predictions CSV and emits the band plus
diagnostics as JSON or CSV (optionally an SVG diagram); `simulate` runs a
synthetic experiment cell and writes per-repetition records and a summary.
Exit codes: 0 success (statistical rejection is still success), 1 usage
error, 2 I/O or parse error.
"""

import argparse
import csv
import decimal
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .bands import (
    full_index_family,
    noncrossing_band,
    raw_band,
    rounded_index_family,
    yb_band,
)
from .diagnostics import calibration_verdict, hosmer_lemeshow, isotonicity_report
from .isotonic import build_sorted_data, pava
from .simulation import (
    _INDEX_FAMILIES,
    _METHODS,
    FAMILY_KINDS,
    RegressionFamily,
    result_summary,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .svg import render_band_svg

__all__ = ["main", "build_parser", "UsageError", "InputError"]

_CONFIG_KEYS = (
    "family", "s", "n", "alpha", "method", "index_family", "K", "reps",
    "seed", "base_seed",
)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class InputError(Exception):
    """Unreadable or malformed input data; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="calband",
        description="Honest simultaneous confidence bands for calibration curves.",
    )
    parser.add_argument(
        "--version", action="version", version=f"calband {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{band,simulate}")

    b = sub.add_parser(
        "band", help="compute a band and diagnostics for a predictions CSV"
    )
    b.add_argument("input", help="CSV file with header columns prediction,outcome")
    b.add_argument("--alpha", type=float, default=0.05, help="band level (default 0.05)")
    b.add_argument(
        "--method", choices=_METHODS, default="nc",
        help="raw, non-crossing (default), or the wider distribution-free band",
    )
    b.add_argument(
        "--index-family", choices=_INDEX_FAMILIES, default="rounded",
        dest="index_family", help="which interval family to combine (default rounded)",
    )
    b.add_argument(
        "--K", type=int, default=1000, dest="K",
        help="grid resolution of the rounded family (default 1000)",
    )
    b.add_argument(
        "--no-extrapolate", action="store_true",
        help="restrict the plot to the observed prediction range",
    )
    b.add_argument("--format", choices=("json", "csv"), default="json", dest="format")
    b.add_argument(
        "--output", default="-",
        help="output path; '-' prints JSON to stdout (csv format needs a path)",
    )
    b.add_argument("--plot", default=None, help="write an SVG reliability diagram here")
    b.add_argument("--zoom", default=None, help="a,b window applied to both plot axes")
    b.add_argument(
        "--hl-bins", type=int, default=10, dest="hl_bins",
        help="bin count for the chi-square baseline test (default 10)",
    )
    b.add_argument(
        "--general-covariates", action="store_true",
        help="accept predictions outside [0,1]; diagonal diagnostics are skipped",
    )

    s = sub.add_parser("simulate", help="run a synthetic experiment cell")
    s.add_argument("--config", default=None, help="key=value file; flags override it")
    s.add_argument("--family", choices=FAMILY_KINDS, default=None)
    s.add_argument("--s", type=float, default=None, dest="s", help="family shape parameter")
    s.add_argument("--n", type=int, default=None, help="sample size per repetition")
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--method", choices=_METHODS, default=None)
    s.add_argument(
        "--index-family", choices=_INDEX_FAMILIES, default=None, dest="index_family"
    )
    s.add_argument("--K", type=int, default=None, dest="K")
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--seed", type=int, default=None, help="base seed (repetition r uses seed+r)")
    s.add_argument("--out-csv", default=None, dest="out_csv")
    s.add_argument("--out-json", default=None, dest="out_json")
    s.add_argument(
        "--paper-table", choices=("iso",), default=None, dest="paper_table",
        help="emit a grid of isotonicity rejection rates over --cells",
    )
    s.add_argument(
        "--cells", default=None,
        help="comma-separated cells s=<float>:n=<int> for --paper-table",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "band":
            return _cmd_band(args)
        return _cmd_simulate(args)
    except UsageError as exc:
        print(f"calband: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"calband: error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"calband: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"calband: {exc}", file=sys.stderr)
        return 2


_COLUMNS = (["prediction", "outcome"], ["outcome", "prediction"])


def _read_predictions(path, general_covariates):
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        fast = _read_plain(fh, general_covariates)
        if fast is not None:
            return fast
        fh.seek(0)
        try:
            return _read_rows(fh, path, general_covariates)
        except UnicodeDecodeError as exc:
            raise InputError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
            ) from None


def _read_rows(fh, path, general_covariates):
    """(predictions, outcomes) by the csv loop, the source of every input error."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    names = [h.strip().lower() for h in header]
    if "prediction" not in names or "outcome" not in names:
        raise InputError(
            f"{path}: header must contain prediction and outcome columns, "
            f"got {','.join(header)!r}"
        )
    pi = names.index("prediction")
    oi = names.index("outcome")
    extras = [h for h in names if h not in ("prediction", "outcome")]
    if extras:
        print(
            f"calband: warning: ignoring extra column(s) {', '.join(extras)}",
            file=sys.stderr,
        )
    xs = []
    ys = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) <= max(pi, oi):
            raise InputError(
                f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}"
            )
        ptxt = row[pi].strip()
        try:
            pred = float(ptxt)
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad prediction {ptxt!r}") from None
        if not math.isfinite(pred):
            raise InputError(f"{path}: line {lineno}: non-finite prediction {ptxt!r}")
        if not general_covariates and not 0.0 <= pred <= 1.0:
            raise InputError(
                f"{path}: line {lineno}: prediction {ptxt} outside [0, 1] "
                f"(pass --general-covariates to lift the check)"
            )
        otxt = row[oi].strip()
        try:
            out = float(otxt)
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad outcome {otxt!r}") from None
        if out not in (0.0, 1.0):
            raise InputError(
                f"{path}: line {lineno}: outcome must be 0 or 1, got {otxt}"
            )
        xs.append(pred)
        ys.append(out)
    if not xs:
        raise InputError(f"{path}: no data rows")
    return np.asarray(xs), np.asarray(ys)


def _read_plain(fh, general_covariates):
    """(predictions, outcomes) of a valid two-column file, parsed by numpy.

    Returns None, leaving fh at any position, for any file that the csv
    loop in _read_rows might read differently or reject: a header
    other than the two columns, quotes, a row numpy cannot parse, or a
    value the loop's checks refuse. The loop then reads the file again and is
    the only source of error messages and warnings. numpy parses each
    field with the same routine as float(), so the arrays are the loop's
    bit for bit.
    """
    try:
        names = [h.strip().lower() for h in fh.readline().rstrip("\r\n").split(",")]
        if names not in _COLUMNS:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "no data"
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[0] == 0 or table.shape[1] != 2:
        return None
    x = table[:, names.index("prediction")]
    y = table[:, names.index("outcome")]
    if not np.isfinite(x).all():
        return None
    if not general_covariates and not ((x >= 0.0) & (x <= 1.0)).all():
        return None
    if not ((y == 0.0) | (y == 1.0)).all():
        return None
    return x, y


def _parse_zoom(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--zoom expects a,b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--zoom expects two numbers, got {text!r}") from None
    if not a < b:
        raise UsageError(f"--zoom window ({a}, {b}) is empty")
    return a, b


def _meta_str(val):
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _interval_list(regions):
    return [[float(a), float(b)] for a, b in regions]


_DIGITS = 12
# 10**j for j = 0..22 as doubles; 10**22 is the largest power of ten a
# double holds exactly.
_POW10 = np.array([float(10**j) for j in range(23)])
_M_MIN = float(10 ** (_DIGITS - 1))
_M_MAX = float(10**_DIGITS)


def _outward(values, up):
    """Confidence bounds as printed: rounded outward to 12 significant digits.

    A lower bound (up=False) becomes the largest decimal with at most 12
    significant digits whose float64 value is <= the bound, an upper bound
    (up=True) the smallest whose value is >= it. Returns a list of floats
    whose repr is that decimal. Printed bands are never narrower than the
    computed ones, nondecreasing levels stay nondecreasing, and the text
    no longer depends on the last bits that the scipy and libm build gives
    betaincinv. Zero and one print unchanged; values that are not positive
    and finite are left as they are.
    """
    shape = np.shape(values)
    x = np.asarray(values, dtype=np.float64).ravel()
    out = x.copy()
    idx = np.flatnonzero(np.isfinite(x) & (x > 0.0))
    out[idx] = _outward_positive(x[idx], up)
    return out.reshape(shape).tolist()


def _outward_positive(a, up):
    # The answer is m / 10**j for an integer significand m in [1e11, 1e12],
    # where 11 - j is the decade of a; m and 10**j are exact doubles, so the
    # quotient is the correctly rounded value of the decimal. Where log10
    # misjudges the decade, a is within a few ulps of a power of ten: m then
    # has 11 or 13 digits, or is an end of the range and gives that power,
    # the answer either way.
    j = _DIGITS - 1 - np.floor(np.log10(a)).astype(np.int64)
    fast = np.flatnonzero((j >= 0) & (j < _POW10.size))
    scale = _POW10[j[fast]]
    m = _significand(a[fast], scale, up)
    out = np.empty_like(a)
    out[fast] = m / scale
    exact = np.ones(a.shape, dtype=bool)
    exact[fast[(m >= _M_MIN) & (m <= _M_MAX)]] = False
    # The rest, and values below 1e-11, which need powers of ten that a
    # double cannot hold, take the exact path.
    for i in np.flatnonzero(exact):
        out[i] = _outward_scalar(float(a[i]), up)
    return out


def _significand(a, scale, up):
    # Extreme integer m with m / scale on the outer side of a. The product
    # a * scale is rounded, so its floor or ceiling can be one step off.
    if up:
        m = np.ceil(a * scale)
        m += m / scale < a
        m -= (m - 1.0) / scale >= a
    else:
        m = np.floor(a * scale)
        m -= m / scale > a
        m += (m + 1.0) / scale <= a
    return m


def _outward_scalar(a, up):
    # _outward for one positive double, in exact decimal arithmetic.
    d = decimal.Decimal(a)
    q = decimal.Decimal(1).scaleb(d.adjusted() - _DIGITS + 1)
    c = d.quantize(q, decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR)
    # q is far wider than the spacing of doubles, so besides c only its
    # neighbour towards a can map to a double on the outer side of a.
    # Among subnormals the spacing is the wider one, and both map to a.
    nearer = float(c - q) if up else float(c + q)
    return nearer if (nearer >= a if up else nearer <= a) else float(c)


# What json.dump(indent=2) puts between two items of a list at depth 2.
_ITEM_SEP = ",\n      "


def _run_texts(values):
    """repr of each value, as a list of str, with one repr per run of equal values.

    Band levels are step functions: at n = 200,000 the lower, upper and
    isotonic_fit arrays hold a few hundred runs each. Runs are split on
    the bits, so 0.0 and -0.0 keep their own text. Non-finite values are
    refused, because repr prints them as nan and inf where json prints NaN
    and Infinity; band arrays are finite by construction.
    """
    a = np.asarray(values, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("cannot print a band array with non-finite values")
    bits = a.view(np.uint64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    texts = np.array(list(map(float.__repr__, a[starts].tolist())), dtype=object)
    return texts.repeat(np.diff(np.r_[starts, a.size])).tolist()


def _write_document(fh, band_block, diagnostics):
    """Write json.dump({"band": band_block, **diagnostics}, fh, indent=2) and "\\n".

    The bytes are the same. Each band array is formatted by _run_texts and
    written as one string, released before the next array; json.dumps
    renders the small rest of the document.
    """
    fh.write('{\n  "band": {')
    for i, (key, values) in enumerate(band_block.items()):
        fh.write(f'{"," if i else ""}\n    {json.dumps(key)}: [\n      ')
        fh.write(_ITEM_SEP.join(_run_texts(values)))
        fh.write("\n    ]")
    fh.write("\n  },\n")
    fh.write(json.dumps(diagnostics, indent=2)[2:])  # drops the opening "{\n"
    fh.write("\n")


def _cmd_band(args):
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    if args.K < 1:
        raise UsageError(f"--K must be >= 1, got {args.K}")
    if args.hl_bins < 2:
        raise UsageError(f"--hl-bins must be >= 2, got {args.hl_bins}")
    zoom = _parse_zoom(args.zoom) if args.zoom else None
    if args.format == "csv" and args.output == "-":
        raise UsageError("--format csv requires --output PATH")

    x, y = _read_predictions(args.input, args.general_covariates)
    data = build_sorted_data(np.column_stack((x, y)))
    fit = pava(data)
    if args.index_family == "full":
        fam = full_index_family(data)
    else:
        fam = rounded_index_family(data, args.K)
    rawb = raw_band(data, fam, args.alpha)
    if args.method == "raw":
        band = rawb
    elif args.method == "nc":
        band = noncrossing_band(rawb, fit)
    else:
        band = yb_band(data, fit, args.alpha)

    report = isotonicity_report(data, fam, rawb, args.alpha)
    if report.crossing_regions:
        print(
            f"calband: warning: raw band crosses itself at alpha={args.alpha}; "
            f"the data contradict isotonicity (p = {report.p_value:.4g})",
            file=sys.stderr,
        )

    unit_domain = not args.general_covariates
    verdict = calibration_verdict(band) if unit_domain else None
    hl = None
    if unit_domain:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                hl = hosmer_lemeshow(data, args.hl_bins)
            except ValueError as exc:
                hl = exc
        for w in caught:
            print(f"calband: warning: {w.message}", file=sys.stderr)

    fit_knots = fit.group_levels()
    meta = {
        "calband": __version__,
        "input": args.input,
        "n": data.n,
        "n_groups": data.n_groups,
        "alpha": args.alpha,
        "method": args.method,
        "index_family": args.index_family,
        "K": args.K if args.index_family == "rounded" else None,
        "correction": fam.correction,
        "extrapolate": not args.no_extrapolate,
        "hl_bins": args.hl_bins,
        "general_covariates": args.general_covariates,
    }
    # Arrays, not lists of floats: the writer's texts then take no more
    # memory than the document's lists used to.
    band_block = {
        "knots": band.knots,
        "lower": np.asarray(_outward(band.lower_levels, up=False)),
        "upper": np.asarray(_outward(band.upper_levels, up=True)),
        "isotonic_fit": fit_knots,
    }
    if verdict is None:
        verdict_block = None
    else:
        verdict_block = {
            "classical_reject": verdict.classical_reject,
            "miscalibrated_regions": _interval_list(verdict.miscalibrated_regions),
            "epsilon_certificate": _outward(verdict.epsilon_certificate, up=False),
        }
    iso_block = {
        "p_value": report.p_value,
        "gamma_hat": _outward(report.gamma_hat, up=False),
        "crossing_regions": _interval_list(report.crossing_regions),
        "alpha": report.alpha,
    }
    if hl is None:
        hl_block = None
    elif isinstance(hl, ValueError):
        hl_block = {"error": str(hl)}
    else:
        hl_block = {"statistic": hl.statistic, "p_value": hl.p_value}
    diagnostics = {
        "verdict": verdict_block,
        "isotonicity": iso_block,
        "hosmer_lemeshow": hl_block,
        "meta": meta,
    }

    if args.format == "json":
        if args.output == "-":
            _write_document(sys.stdout, band_block, diagnostics)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_document(fh, band_block, diagnostics)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            for key, val in meta.items():
                fh.write(f"# {key}={_meta_str(val)}\n")
            fh.write("x,lower,upper,isotonic_fit\n")
            columns = [_run_texts(values) for values in band_block.values()]
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
        sidecar = os.path.splitext(args.output)[0] + ".diagnostics.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(diagnostics, fh, indent=2)
            fh.write("\n")

    if args.plot:
        lo_k, hi_k = float(band.knots[0]), float(band.knots[-1])
        if zoom is not None:
            window = zoom
        elif unit_domain:
            window = (0.0, 1.0)
        elif lo_k < hi_k:
            window = (lo_k, hi_k)
        else:
            window = (lo_k - 0.5, hi_k + 0.5)
        if args.no_extrapolate and lo_k < hi_k:
            window = (max(window[0], lo_k), min(window[1], hi_k))
            if not window[0] < window[1]:
                raise UsageError(
                    "zoom window does not intersect the observed prediction range"
                )
        regions = verdict.miscalibrated_regions if verdict is not None else []
        svg = render_band_svg(
            band,
            fit_levels=fit_knots,
            regions=regions,
            zoom=window,
            title=os.path.basename(args.input),
        )
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def _read_config(path):
    conf = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, eq, val = text.partition("=")
            if not eq:
                raise InputError(f"{path}: line {lineno}: expected key=value")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                print(f"calband: warning: unknown config key {key!r}", file=sys.stderr)
            conf[key] = val.strip()
    if "base_seed" in conf and "seed" not in conf:
        conf["seed"] = conf["base_seed"]
    return conf


def _pick(flag_value, conf, key, conv, default):
    if flag_value is not None:
        return flag_value
    if key in conf:
        try:
            return conv(conf[key])
        except ValueError:
            raise UsageError(f"config value {key}={conf[key]!r} is invalid") from None
    return default


def _settings(args, conf):
    """(alpha, index_family, K, reps, seed): each flag, else config, else default."""
    alpha = _pick(args.alpha, conf, "alpha", float, 0.05)
    index_family = _pick(args.index_family, conf, "index_family", str, "rounded")
    K = _pick(args.K, conf, "K", int, 1000)
    reps = _pick(args.reps, conf, "reps", int, 200)
    seed = _pick(args.seed, conf, "seed", int, 0)
    if index_family not in _INDEX_FAMILIES:
        raise UsageError(f"unknown index family {index_family!r}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    if reps < 1 or K < 1 or seed < 0:
        raise UsageError("reps and K must be positive and seed nonnegative")
    return alpha, index_family, K, reps, seed


def _cmd_simulate(args):
    conf = _read_config(args.config) if args.config else {}
    if args.paper_table is not None:
        return _cmd_table(args, conf)
    family_kind = _pick(args.family, conf, "family", str, None)
    s = _pick(args.s, conf, "s", float, None)
    n = _pick(args.n, conf, "n", int, None)
    missing = [
        name
        for name, val in (("family", family_kind), ("s", s), ("n", n))
        if val is None
    ]
    if missing:
        raise UsageError(f"simulate needs {', '.join(missing)} (flags or --config file)")
    if family_kind not in FAMILY_KINDS:
        raise UsageError(f"unknown family {family_kind!r}")
    method = _pick(args.method, conf, "method", str, "nc")
    if method not in _METHODS:
        raise UsageError(f"unknown method {method!r}")
    if n < 1:
        raise UsageError(f"n must be positive, got {n}")
    alpha, index_family, K, reps, seed = _settings(args, conf)
    try:
        family = RegressionFamily(family_kind, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    result = run_experiment(
        family,
        n,
        alpha=alpha,
        methods=(method,),
        index_family=index_family,
        K=K,
        reps=reps,
        base_seed=seed,
    )[method]
    if args.out_csv:
        write_records_csv(result, args.out_csv)
    if args.out_json:
        write_summary_json(result, args.out_json)
    else:
        sys.stdout.write(json.dumps(result_summary(result), indent=2) + "\n")
    return 0


def _cmd_table(args, conf):
    if not args.cells or not args.cells.strip():
        raise UsageError(
            "--paper-table requires --cells with at least one s=<float>:n=<int> cell"
        )
    cells = []
    for part in args.cells.split(","):
        part = part.strip()
        if not part:
            continue
        fields = {}
        for item in part.split(":"):
            key, eq, val = item.partition("=")
            if not eq:
                raise UsageError(f"bad cell {part!r}: expected s=<float>:n=<int>")
            fields[key.strip()] = val.strip()
        if set(fields) != {"s", "n"}:
            raise UsageError(f"bad cell {part!r}: expected s=<float>:n=<int>")
        try:
            cells.append((float(fields["s"]), int(fields["n"])))
        except ValueError:
            raise UsageError(f"bad cell {part!r}: s must be a float and n an int") from None
    if not cells:
        raise UsageError(
            "--paper-table requires --cells with at least one s=<float>:n=<int> cell"
        )
    if args.method is not None:
        print(
            "calband: note: --method is ignored with --paper-table "
            "(the isotonicity test uses the raw band)",
            file=sys.stderr,
        )
    alpha, index_family, K, reps, seed = _settings(args, conf)

    rows = []
    for s, n in cells:
        try:
            family = RegressionFamily("wave", s)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        res = run_experiment(
            family,
            n,
            alpha=alpha,
            methods=("raw",),
            index_family=index_family,
            K=K,
            reps=reps,
            base_seed=seed,
        )["raw"]
        rows.append((s, n, res.rejection_rate))

    s_vals = sorted({r[0] for r in rows})
    n_vals = sorted({r[1] for r in rows})
    grid = {(s, n): rate for s, n, rate in rows}
    out = sys.stdout
    out.write("isotonicity rejection rate (wave family, raw band)\n")
    cfg = f"alpha={alpha} reps={reps} seed={seed} index_family={index_family}"
    if index_family == "rounded":
        cfg += f" K={K}"
    out.write(cfg + "\n")
    out.write("s\\n".rjust(8) + "".join(str(n).rjust(10) for n in n_vals) + "\n")
    for s in s_vals:
        line = f"{s:g}".rjust(8)
        for n in n_vals:
            rate = grid.get((s, n))
            line += ("-" if rate is None else f"{rate:.3f}").rjust(10)
        out.write(line + "\n")

    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# calband={__version__}\n")
            fh.write("# table=iso\n")
            for item in cfg.split(" "):
                fh.write(f"# {item}\n")
            fh.write("s,n,rejection_rate\n")
            for s, n, rate in rows:
                fh.write(f"{s!r},{n},{rate!r}\n")
    if args.out_json:
        doc = {
            "table": "iso",
            "alpha": alpha,
            "reps": reps,
            "seed": seed,
            "index_family": index_family,
            "K": K if index_family == "rounded" else None,
            "cells": [
                {"s": s, "n": n, "rejection_rate": rate} for s, n, rate in rows
            ],
        }
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
