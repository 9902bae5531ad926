"""Run one calband entry point in-process with spans around its layers.

    python perfbench/traced.py --spans SPANS.json cli band input.csv ...
    python perfbench/traced.py --spans SPANS.json sweep --out-dir ...

The public functions that each calband module imports from the next are
replaced, in the importing module's namespace, by wrappers that record a
span: name, start, end, parent span and a few work counts. calband itself
is not changed. Spans stay in memory and are written as JSON when the entry
point returns; the process exits with the entry point's exit code.
"""

import argparse
import functools
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """Span recorder; spans nest by call order in this single thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; count(args, result) returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start_ns": time.perf_counter_ns(),
                "end_ns": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end_ns"] = time.perf_counter_ns()
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return traced

    def patch(self, module, attr, name, count=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), count))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _pairs(args, result):
    return {"pairs": int(args[0].size)}


def _raw_band_groups(args, result):
    return {"n_groups": int(args[0].n_groups)}


def _family_pairs(args, result):
    return {"pairs": int(result.pair_count)}


def _data_groups(args, result):
    return {"n_groups": int(result.n_groups)}


def _patch_library(tracer):
    """Wrap every cross-module call of the library; return calband.cli."""
    import calband.bands
    import calband.cli
    import calband.diagnostics
    import calband.simulation

    bands, cli, diag, sim = (
        calband.bands, calband.cli, calband.diagnostics, calband.simulation,
    )
    tracer.patch(bands, "cp_bounds_batch", "special.cp_bounds_batch", _pairs)
    for mod in (cli, diag, sim):
        tracer.patch(mod, "raw_band", "bands.raw_band", _raw_band_groups)
    for mod in (cli, sim):
        tracer.patch(mod, "build_sorted_data", "isotonic.build_sorted_data", _data_groups)
        tracer.patch(mod, "pava", "isotonic.pava")
        tracer.patch(mod, "full_index_family", "bands.family", _family_pairs)
        tracer.patch(mod, "rounded_index_family", "bands.family", _family_pairs)
        tracer.patch(mod, "noncrossing_band", "bands.noncrossing_band")
        tracer.patch(mod, "yb_band", "bands.yb_band")
    tracer.patch(sim, "evaluate_band", "bands.evaluate_band")
    tracer.patch(sim, "simulate_dataset", "simulation.simulate_dataset")
    tracer.patch(diag, "isotonicity_pvalue", "diagnostics.isotonicity_pvalue")
    tracer.patch(cli, "isotonicity_report", "diagnostics.isotonicity_report")
    tracer.patch(cli, "calibration_verdict", "diagnostics.calibration_verdict")
    tracer.patch(cli, "hosmer_lemeshow", "diagnostics.hosmer_lemeshow")
    return cli


def _load_sweep_script():
    path = ROOT / "scripts" / "run_full_experiments.py"
    spec = importlib.util.spec_from_file_location("run_full_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(entry, argv, spans_path):
    """Trace one call of the entry point's main(argv); return its exit code."""
    tracer = Tracer()
    cli = _patch_library(tracer)
    if entry == "cli":
        main = tracer.wrap("cli.main", cli.main)
    else:
        sweep = _load_sweep_script()
        tracer.patch(sweep, "run_experiment", "simulation.run_experiment")
        tracer.patch(sweep, "write_records_csv", "sweep.write")
        tracer.patch(sweep, "write_summary_json", "sweep.write")
        main = tracer.wrap("sweep.main", sweep.main)
    try:
        code = main(argv)
    finally:
        tracer.dump(spans_path)
    return code


def main():
    parser = argparse.ArgumentParser(description="trace one calband entry point")
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("entry", choices=("cli", "sweep"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src")]
    return run(args.entry, args.argv, args.spans)


if __name__ == "__main__":
    sys.exit(main())
