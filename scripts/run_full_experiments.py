#!/usr/bin/env python3
"""Unattended reproduction of the full simulation sweep.

Runs every regression family over an 11-point shape grid, sample sizes up
to 32768, and all three band constructions, writing per-cell records and
summaries under --out-dir. The full sweep is expensive (hours, not
minutes); use --reps/--sizes/--families/--methods to carve out a slice,
or --quick for a fast smoke pass of the same plumbing.

A cell is one (family, shape, size). All methods of a cell run in one
pass, so each replication's dataset and raw band are built once and shared
by the raw, nc and yb bands; the records and summaries are still written
per method. After each cell a progress line gives the cell's time and an
estimate of the time left, followed by one line per method.

Every cell is independently reproducible: repetition r of a cell uses the
Philox key seed + r, so partial reruns agree with the full sweep.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

from calband.simulation import (
    _DEFAULTS,
    _METHODS,
    FAMILY_KINDS,
    RegressionFamily,
    run_experiment,
    write_records_csv,
    write_summary_json,
)

DEFAULT_SIZES = (512, 2048, 8192, 32768)
DEFAULT_SHAPES = tuple(round(i / 10, 1) for i in range(11))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    parser.add_argument("--K", type=int, default=_DEFAULTS["K"])
    parser.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    parser.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated sample sizes",
    )
    parser.add_argument(
        "--families", default=",".join(FAMILY_KINDS),
        help="comma-separated family kinds",
    )
    parser.add_argument(
        "--shapes", default=",".join(map(str, DEFAULT_SHAPES)),
        help="comma-separated s values; ones invalid for a family are skipped",
    )
    parser.add_argument(
        "--methods", default=",".join(_METHODS),
        help="comma-separated band methods",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="5 reps, n in {256, 512}, method nc only; exercises the plumbing",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.reps = 5
        args.sizes = "256,512"
        args.methods = "nc"
    return args


def _clock(seconds):
    """Render a duration as h:mm:ss."""
    minutes, secs = divmod(int(round(seconds)), 60)
    return f"{minutes // 60}:{minutes % 60:02d}:{secs:02d}"


def main(argv=None):
    args = parse_args(argv)
    sizes = [int(v) for v in args.sizes.split(",") if v]
    families = [v.strip() for v in args.families.split(",") if v.strip()]
    shapes = [float(v) for v in args.shapes.split(",") if v]
    methods = [v.strip() for v in args.methods.split(",") if v.strip()]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for kind, s in itertools.product(families, shapes):
        try:
            family = RegressionFamily(kind, s)
        except ValueError:
            print(f"skip {kind} s={s}: outside the family's range", file=sys.stderr)
            continue
        cells += [(family, n) for n in sizes]

    iso_rows = []
    start = time.perf_counter()
    for idx, (family, n) in enumerate(cells, start=1):
        cell = f"{family.kind}_s{family.s:g}_n{n}"
        t0 = time.perf_counter()
        results = run_experiment(
            family,
            n,
            alpha=args.alpha,
            methods=methods,
            index_family="rounded",
            K=args.K,
            reps=args.reps,
            base_seed=args.seed,
        )
        lines = []
        for method, result in results.items():
            stem = f"{cell}_{method}"
            write_records_csv(result, args.out_dir / f"{stem}.records.csv")
            write_summary_json(result, args.out_dir / f"{stem}.summary.json")
            lines.append(
                f"  {stem}: coverage={result.coverage_rate:.3f} "
                f"rejection={result.rejection_rate:.3f}"
            )
        if family.kind == "wave":
            iso_rows.append((family.s, n, results[methods[0]].rejection_rate))
        now = time.perf_counter()
        eta = (now - start) / idx * (len(cells) - idx)
        print(
            f"[{idx}/{len(cells)}] {cell} ({now - t0:.1f}s, eta {_clock(eta)})",
            *lines,
            sep="\n",
            flush=True,
        )

    if iso_rows:
        # rejection rates are a property of the raw band, shared by every
        # method of a cell, so the first method's result suffices
        table = args.out_dir / "iso_table.csv"
        with open(table, "w", encoding="utf-8") as fh:
            fh.write("s,n,rejection_rate\n")
            for s, n, rate in sorted(iso_rows):
                fh.write(f"{s!r},{n},{rate!r}\n")
        print(f"wrote {table}")
    print(f"done in {time.perf_counter() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
