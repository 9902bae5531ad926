"""Workload definitions: seeded inputs, entry-point arguments and output checks.

Each workload drives one user entry point of calband. Inputs come only from
the benchmark seed, so the same seed always yields the same files. The
program under test is never imported here: the generator carries its own
copy of the regression functions, so a change to calband cannot change the
inputs it is measured on.
"""

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ENTRY_CLI = "cli"
ENTRY_SWEEP = "sweep"

# the sweep cell: sshaped family, one shape, one size, all three methods
SWEEP_FAMILY = "sshaped"
SWEEP_SHAPE = 0.5
SWEEP_METHODS = ("raw", "nc", "yb")
SWEEP_K = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str
    n: int
    truth: str = ""
    full_family: bool = False
    reps: int = 0


_WORKLOADS = (
    Workload("band-large", ENTRY_CLI, n=200_000, truth="power"),
    Workload("band-isotest", ENTRY_CLI, n=1024, truth="dip", full_family=True),
    Workload("sweep-cell", ENTRY_SWEEP, n=8192, reps=4),
)
# same code paths at sizes that finish in a few seconds each
_TOY_SIZES = {"band-large": {"n": 500}, "band-isotest": {"n": 512}, "sweep-cell": {"n": 256, "reps": 2}}

WORKLOADS = {w.name: w for w in _WORKLOADS}
TOY_WORKLOADS = {w.name: replace(w, **_TOY_SIZES[w.name]) for w in _WORKLOADS}


@dataclass
class Job:
    """One prepared workload: the entry point's arguments and what to expect."""

    workload: Workload
    argv: list
    output: Path
    expected_knots: np.ndarray = field(default=None, repr=False)


def derive_seed(name, seed):
    """A 63-bit seed for one workload, so workloads never share a stream."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def truth(kind, x):
    """P(Y=1 | x) for the band workloads' synthetic predictions."""
    if kind == "power":
        return x**0.7
    # a steeper wave: 0.5 - 1.4 u + 8 u^3 with u = x - 0.5 rises, falls
    # through the middle of [0, 1] and rises again (the wave family has
    # slope 1 at s=1)
    u = x - 0.5
    return np.clip(0.5 - 1.4 * u + 8.0 * u**3, 0.0, 1.0)


def sample(kind, n, rng):
    """n predictions uniform on [0, 1] and their binary outcomes.

    The monotone truth draws outcomes independently. The dip uses
    systematic sampling along sorted predictions instead: the running count
    of ones stays within one of the running sum of p. With independent
    draws at n=1024 the isotonicity p-value ranges over orders of magnitude
    with the seed, and on some seeds it is 1, where the bisection never
    runs. With systematic sampling it stays between 1e-6 and 1e-4.
    """
    x = rng.random(n)
    if kind == "power":
        return x, rng.random(n) < truth(kind, x)
    x.sort()
    counts = np.floor(np.cumsum(truth(kind, x)) + rng.random())
    return x, np.diff(counts, prepend=0.0) > 0


def write_predictions(path, x, y):
    """Write a prediction,outcome CSV the calband CLI accepts.

    Values go through repr(float(v)): under numpy 2 repr(np.float64) reads
    np.float64(...), which the CLI rejects as a bad prediction.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("prediction,outcome\n")
        fh.writelines(
            f"{float(a)!r},{int(b)}\n" for a, b in zip(x.tolist(), y.tolist())
        )


def prepare(workload, seed, workdir):
    """Build the workload's inputs under workdir and return the Job."""
    workdir.mkdir(parents=True, exist_ok=True)
    key = derive_seed(workload.name, seed)
    if workload.entry == ENTRY_SWEEP:
        out_dir = workdir / "sweep"
        argv = [
            "--out-dir", str(out_dir),
            "--reps", str(workload.reps),
            "--sizes", str(workload.n),
            "--families", SWEEP_FAMILY,
            "--shapes", repr(SWEEP_SHAPE),
            "--methods", ",".join(SWEEP_METHODS),
            "--K", str(SWEEP_K),
            "--seed", str(key),
        ]
        return Job(workload, argv, out_dir)

    x, y = sample(workload.truth, workload.n, np.random.Generator(np.random.PCG64(key)))
    csv_path = workdir / "predictions.csv"
    write_predictions(csv_path, x, y)
    out = workdir / "band.json"
    argv = ["band", str(csv_path), "--output", str(out)]
    if workload.full_family:
        argv += ["--index-family", "full"]
    return Job(workload, argv, out, expected_knots=np.unique(x))


def clear_outputs(job):
    """Remove what an earlier invocation wrote, so checks see fresh output."""
    if job.output.is_dir():
        shutil.rmtree(job.output)
    elif job.output.exists():
        job.output.unlink()


class CheckFailed(Exception):
    """An invocation's output broke an invariant the program promises."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check(job):
    """Validate the invocation's output and return a digest of it.

    Raises CheckFailed with the first broken invariant.
    """
    try:
        if job.workload.entry == ENTRY_SWEEP:
            return _check_sweep(job)
        return _check_band(job)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from None


def _nondecreasing(a):
    return bool((np.diff(a) >= 0).all())


def _check_band(job):
    doc = json.loads(job.output.read_text(encoding="utf-8"))
    band = doc["band"]
    knots = np.asarray(band["knots"], dtype=np.float64)
    lower = np.asarray(band["lower"], dtype=np.float64)
    upper = np.asarray(band["upper"], dtype=np.float64)
    fit = np.asarray(band["isotonic_fit"], dtype=np.float64)
    meta = doc["meta"]
    n_groups = meta["n_groups"]

    _require(meta["n"] == job.workload.n, f"meta.n={meta['n']}, expected {job.workload.n}")
    _require(
        n_groups == job.expected_knots.shape[0],
        f"n_groups={n_groups}, expected {job.expected_knots.shape[0]}",
    )
    _require(
        all(a.shape == (n_groups,) for a in (knots, lower, upper, fit)),
        "band arrays do not all have n_groups entries",
    )
    _require(bool((np.diff(knots) > 0).all()), "knots not strictly increasing")
    _require(np.array_equal(knots, job.expected_knots), "knots differ from the inputs")
    for label, arr in (("lower", lower), ("upper", upper)):
        _require(_nondecreasing(arr), f"{label} levels decrease")
        _require(bool(((arr >= 0) & (arr <= 1)).all()), f"{label} levels leave [0, 1]")
    if meta["method"] == "nc":
        _require(
            bool(((lower <= fit) & (fit <= upper)).all()),
            "nc band does not sandwich the isotonic fit",
        )
    p = doc["isotonicity"]["p_value"]
    _require(isinstance(p, float) and 0.0 <= p <= 1.0, f"p_value={p!r} outside [0, 1]")

    h = hashlib.sha256()
    for arr in (knots, lower, upper):
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _read_records(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    _require(
        header[:4] == ["rep", "covered", "knot_coverage", "iso_rejected"],
        f"{path.name}: unexpected header {header[:4]}",
    )
    return body


def _check_sweep(job):
    wl = job.workload
    h = hashlib.sha256()
    flags = {}
    for method in SWEEP_METHODS:
        stem = f"{SWEEP_FAMILY}_s{SWEEP_SHAPE:g}_n{wl.n}_{method}"
        body = _read_records(job.output / f"{stem}.records.csv")
        _require(len(body) == wl.reps, f"{stem}: {len(body)} rows, expected {wl.reps}")
        _require(
            [r[0] for r in body] == [str(i) for i in range(wl.reps)],
            f"{stem}: rep column is not 0..{wl.reps - 1}",
        )
        covered = [r[1] for r in body]
        rejected = [r[3] for r in body]
        _require(set(covered) <= {"0", "1"}, f"{stem}: covered flag outside {{0, 1}}")
        _require(set(rejected) <= {"0", "1"}, f"{stem}: iso_rejected flag outside {{0, 1}}")
        for r in body:
            _require(0.0 <= float(r[2]) <= 1.0, f"{stem}: knot_coverage outside [0, 1]")
            widths = [float(w) for w in r[4:]]
            _require(
                all(math.isfinite(w) and w <= 1.0 for w in widths),
                f"{stem}: width not finite or above 1",
            )
        summary = json.loads((job.output / f"{stem}.summary.json").read_text("utf-8"))
        _require(0.0 <= summary["coverage_rate"] <= 1.0, f"{stem}: coverage_rate outside [0, 1]")
        flags[method] = (covered, rejected)
        for r in body:
            h.update(",".join(r).encode())

    # every method is summarized on the same Philox-keyed datasets, so the
    # raw band and its crossing flag agree across cells, and the widened
    # nc band covers wherever the raw band does
    _require(
        flags["raw"][1] == flags["nc"][1] == flags["yb"][1],
        "iso_rejected differs between methods on the same datasets",
    )
    _require(
        all(c_nc == "1" for c_raw, c_nc in zip(flags["raw"][0], flags["nc"][0]) if c_raw == "1"),
        "nc band fails to cover where the raw band covers",
    )
    return h.hexdigest()[:16]
