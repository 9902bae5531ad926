"""Synthetic calibration experiments.

Five one-parameter regression families, a Bernoulli sampler, and a
replication loop that records per-repetition coverage, isotonicity
rejections, and band widths on a fixed grid. One loop serves several
band methods: each replication's dataset and raw band are built once and
shared by the raw, nc and yb bands. Replications are keyed by a
counter-based generator so any cell of a sweep can be reproduced in
isolation from (base_seed, rep) alone.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bands import (
    evaluate_band,
    full_index_family,
    noncrossing_band,
    raw_band,
    rounded_index_family,
    yb_band,
)
from .isotonic import build_sorted_data, pava

__all__ = [
    "FAMILY_KINDS",
    "RegressionFamily",
    "eval_p",
    "simulate_dataset",
    "ExperimentResult",
    "run_experiment",
    "result_summary",
    "write_records_csv",
    "write_summary_json",
]

FAMILY_KINDS = ("monomial", "sshaped", "kink", "step", "wave")
_METHODS = ("raw", "nc", "yb")
_INDEX_FAMILIES = ("full", "rounded")
#: Band settings a caller leaves unset: `calband band`, `calband simulate`
#: and run_experiment all read them here.
_DEFAULTS = {
    "alpha": 0.05, "index_family": "rounded", "K": 1000, "reps": 200, "seed": 0,
}
RNG_NAME = "philox4x64"

_S_RANGES = {
    "monomial": (0.0, True, 1.0, False),
    "sshaped": (0.0, True, 1.0, True),
    "kink": (0.0, True, 1.0, True),
    "step": (0.0, False, 1.0, True),
    "wave": (0.0, True, 1.0, True),
}

_WIDTH_GRID = np.arange(101) / 100.0


@dataclass(frozen=True)
class RegressionFamily:
    """True regression function p(x) = P(Y=1 | X=x), one shape knob s.

    monomial  x**(1-s); the diagonal at s=0, concave above it for s>0.
    sshaped   1/(1 + ((1-x)/x)**(1+s)); symmetric sigmoid, steeper as s grows.
    kink      piecewise linear through (0,0), (0.2+0.8s, 0.2), (1,1).
    step      right-continuous staircase with round(15-10s) steps.
    wave      cubic 0.5 - (2s-1)(x-0.5) + 8s(x-0.5)**3; isotonic iff s <= 0.5.
    """

    kind: str
    s: float

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        lo, lo_ok, hi, hi_ok = _S_RANGES[self.kind]
        s = self.s
        below = s < lo or (s == lo and not lo_ok)
        above = s > hi or (s == hi and not hi_ok)
        if not math.isfinite(s) or below or above:
            raise ValueError(f"s={s} out of range for family {self.kind!r}")
        if self.kind == "step":
            raw = 15.0 - 10.0 * s
            if abs(raw - round(raw)) > 1e-9:
                warnings.warn(
                    f"step family s={s} is off the tenths grid; "
                    f"using {self.step_count} steps",
                    stacklevel=2,
                )

    @property
    def step_count(self):
        """Number of staircase levels for the step family."""
        return min(14, max(5, int(round(15.0 - 10.0 * self.s))))

    @property
    def is_isotonic(self):
        return self.kind != "wave" or self.s <= 0.5


def eval_p(family, x):
    """Evaluate the family's regression function at x in [0, 1].

    Accepts a scalar or array and returns the matching shape.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if a.size and (not np.isfinite(a).all() or a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("x outside [0, 1]")
    kind, s = family.kind, family.s
    if kind == "monomial":
        p = a ** (1.0 - s)
    elif kind == "sshaped":
        p = np.empty_like(a)
        inner = (a > 0.0) & (a < 1.0)
        t = a[inner]
        p[inner] = 1.0 / (1.0 + ((1.0 - t) / t) ** (1.0 + s))
        p[a == 0.0] = 0.0
        p[a == 1.0] = 1.0
    elif kind == "kink":
        c = 0.2 + 0.8 * s
        if c >= 1.0:
            # the elbow degenerates onto (1, 0.2) and the second leg vanishes
            p = 0.2 * a
            p[a == 1.0] = 1.0
        else:
            p = np.interp(a, [0.0, c, 1.0], [0.0, 0.2, 1.0])
    elif kind == "step":
        count = family.step_count
        p = (np.floor(count * a) + (a != 1.0)) / count
    else:
        u = a - 0.5
        # the cubic maps [0,1] into [0,1] for every s here, but the float
        # evaluation can land a few ulp outside; clip away the dust
        p = np.clip(0.5 - (2.0 * s - 1.0) * u + 8.0 * s * u**3, 0.0, 1.0)
    return float(p[0]) if scalar else p


def _checkpoints(family):
    """x values beyond the sample knots where coverage must be checked.

    For monotone families the band's step conventions make knot coverage
    imply coverage everywhere, so only the wave's interior extrema (where
    p turns around between knots) need extra care. Endpoints are included
    for all families; they are cheap and close the argument.
    """
    pts = [0.0, 1.0]
    if not family.is_isotonic:
        d = math.sqrt((2.0 * family.s - 1.0) / (24.0 * family.s))
        pts += [0.5 - d, 0.5 + d]
    return np.asarray(pts)


def _rep_rng(base_seed, rep):
    return np.random.Generator(np.random.Philox(key=base_seed + rep))


def simulate_dataset(family, n, rng):
    """Draw n iid pairs with X uniform on [0, 1] and Y | X Bernoulli(p(X))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    x = rng.random(n)
    y = (rng.random(n) < eval_p(family, x)).astype(np.float64)
    return build_sorted_data(np.column_stack((x, y)))


@dataclass(frozen=True)
class ExperimentResult:
    """Per-repetition records plus the configuration that produced them."""

    family: RegressionFamily
    n: int
    alpha: float
    method: str
    index_family: str
    K: "int | None"
    reps: int
    base_seed: int
    rng_name: str
    width_grid: np.ndarray = field(repr=False)
    covered: np.ndarray = field(repr=False)
    knot_coverage: np.ndarray = field(repr=False)
    iso_rejected: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)

    @property
    def coverage_rate(self):
        return float(self.covered.mean())

    @property
    def mean_knot_coverage(self):
        return float(self.knot_coverage.mean())

    @property
    def rejection_rate(self):
        return float(self.iso_rejected.mean())

    @property
    def mean_width(self):
        return self.widths.mean(axis=0)


def run_experiment(
    family,
    n,
    alpha=_DEFAULTS["alpha"],
    methods=("nc",),
    index_family=_DEFAULTS["index_family"],
    K=_DEFAULTS["K"],
    reps=_DEFAULTS["reps"],
    base_seed=_DEFAULTS["seed"],
):
    """Replicate band construction on synthetic data and record outcomes.

    Returns {method: ExperimentResult} in the order of methods. Each
    replication draws one dataset and builds one raw band; every method's
    band is derived from them, so all methods are compared on the same
    data at the cost of a single raw band.

    covered asks whether the whole curve p stays inside the extrapolated
    band; knot_coverage is the fraction of sample knots covering p;
    iso_rejected reports whether the raw band crossed itself, so it is the
    same for every method. widths are upper minus lower on the percent
    grid.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("need at least one method")
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate method in {methods!r}")
    if index_family not in _INDEX_FAMILIES:
        raise ValueError(f"unknown index family {index_family!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if base_seed < 0:
        raise ValueError(f"need base_seed >= 0, got {base_seed}")

    grid = _WIDTH_GRID.copy()
    checks = _checkpoints(family)
    p_checks = eval_p(family, checks)
    shape = (len(methods), reps)
    covered = np.zeros(shape, dtype=bool)
    knot_cov = np.zeros(shape, dtype=np.float64)
    rejected = np.zeros(reps, dtype=bool)
    widths = np.zeros(shape + grid.shape, dtype=np.float64)
    needs_fit = "nc" in methods or "yb" in methods

    for rep in range(reps):
        rng = _rep_rng(base_seed, rep)
        data = simulate_dataset(family, n, rng)
        if index_family == "full":
            fam = full_index_family(data)
        else:
            fam = rounded_index_family(data, K)
        rawb = raw_band(data, fam, alpha)
        fit = pava(data) if needs_fit else None
        # every band's knots are the data's distinct x values
        p_knots = eval_p(family, rawb.knots)
        # raw_band records a crossing witness exactly when the band crosses
        rejected[rep] = rawb.witness is not None

        for j, method in enumerate(methods):
            if method == "raw":
                band = rawb
            elif method == "nc":
                band = noncrossing_band(rawb, fit)
            else:
                band = yb_band(data, fit, alpha)
            knot_ok = (band.lower_levels <= p_knots) & (p_knots <= band.upper_levels)
            ok = bool(knot_ok.all())
            if ok:
                lo, up = evaluate_band(band, checks, extrapolate=True)
                ok = bool(((lo <= p_checks) & (p_checks <= up)).all())
            covered[j, rep] = ok
            knot_cov[j, rep] = float(knot_ok.mean())
            glo, gup = evaluate_band(band, grid, extrapolate=True)
            widths[j, rep] = gup - glo

    return {
        method: ExperimentResult(
            family=family,
            n=n,
            alpha=alpha,
            method=method,
            index_family=index_family,
            K=K if index_family == "rounded" else None,
            reps=reps,
            base_seed=base_seed,
            rng_name=RNG_NAME,
            width_grid=grid.copy(),
            covered=covered[j],
            knot_coverage=knot_cov[j],
            iso_rejected=rejected.copy(),
            widths=widths[j],
        )
        for j, method in enumerate(methods)
    }


def _config_items(result):
    from calband import __version__

    items = [
        ("calband", __version__),
        ("family", result.family.kind),
        ("s", repr(result.family.s)),
        ("n", str(result.n)),
        ("alpha", repr(result.alpha)),
        ("method", result.method),
        ("index_family", result.index_family),
    ]
    if result.K is not None:
        items.append(("K", str(result.K)))
    items += [
        ("reps", str(result.reps)),
        ("base_seed", str(result.base_seed)),
        ("rng", result.rng_name),
    ]
    return items


def write_records_csv(result, path):
    """One row per repetition; `# key=value` header lines carry the config."""
    cols = ["rep", "covered", "knot_coverage", "iso_rejected"]
    cols += [f"width_{g:.2f}" for g in result.width_grid]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, val in _config_items(result):
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(cols) + "\n")
        for rep in range(result.reps):
            row = [
                str(rep),
                str(int(result.covered[rep])),
                repr(float(result.knot_coverage[rep])),
                str(int(result.iso_rejected[rep])),
            ]
            row += [repr(float(w)) for w in result.widths[rep]]
            fh.write(",".join(row) + "\n")


def result_summary(result):
    """Aggregate view of a result as plain JSON-ready types."""
    return {
        "config": dict(_config_items(result)),
        "coverage_rate": result.coverage_rate,
        "mean_knot_coverage": result.mean_knot_coverage,
        "rejection_rate": result.rejection_rate,
        "width_grid": [float(g) for g in result.width_grid],
        "mean_width": [float(w) for w in result.mean_width],
    }


def write_summary_json(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_summary(result), fh, indent=2)
        fh.write("\n")
