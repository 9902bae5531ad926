"""Per-layer metrics derived from the spans of one traced invocation.

A span's self time is its duration minus the part of it that its child
spans cover. Layers a workload never reaches report 0.
"""

# (metric, unit) in the order they are reported
PER_LAYER = (
    ("special.cp_bounds_batch.ms", "ms"),
    ("special.cp_bounds_batch.calls", "count"),
    ("special.cp_bounds_batch.pairs", "count"),
    ("bands.raw_band.levels_per_pair", "ratio"),
    ("bands.raw_band.calls", "count"),
    ("bands.raw_band.ms", "ms"),
    ("bands.raw_band.self_ms", "ms"),
    ("bands.family.ms", "ms"),
    ("bands.family.pairs", "count"),
    ("bands.yb_band.ms", "ms"),
    ("bands.evaluate_band.ms", "ms"),
    ("bands.noncrossing_band.ms", "ms"),
    ("isotonic.build_sorted_data.ms", "ms"),
    ("isotonic.pava.ms", "ms"),
    ("isotonic.n_groups", "count"),
    ("diagnostics.isotonicity_pvalue.ms", "ms"),
    ("diagnostics.isotonicity_pvalue.rebuilds", "count"),
    ("diagnostics.calibration_verdict.ms", "ms"),
    ("diagnostics.hosmer_lemeshow.ms", "ms"),
    ("simulation.simulate_dataset.ms", "ms"),
    ("simulation.run_experiment.self_ms", "ms"),
    ("simulation.raw_band_per_rep", "count"),
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("sweep.write_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)

# layer timings that come straight from spans of one name
_TIMED = (
    "special.cp_bounds_batch",
    "bands.raw_band",
    "bands.family",
    "bands.yb_band",
    "bands.evaluate_band",
    "bands.noncrossing_band",
    "isotonic.build_sorted_data",
    "isotonic.pava",
    "diagnostics.isotonicity_pvalue",
    "diagnostics.calibration_verdict",
    "diagnostics.hosmer_lemeshow",
    "simulation.simulate_dataset",
)


def self_times_ns(spans):
    """Self time of every span, in nanoseconds, indexed like spans."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s["start_ns"]
        for k in sorted(kids, key=lambda c: c["start_ns"]):
            lo = max(k["start_ns"], cursor)
            hi = min(k["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end_ns"] - s["start_ns"] - covered)
    return out


def _has_ancestor(spans, span, name):
    p = span["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def span_metrics(spans, reps):
    """Span-derived per-layer metrics of one invocation.

    reps is the sweep's replication count (0 for the band workloads).
    """
    selfs = self_times_ns(spans)
    total_ns = {}
    self_ns = {}
    calls = {}
    counts = {}
    for s, own in zip(spans, selfs):
        name = s["name"]
        total_ns[name] = total_ns.get(name, 0) + s["end_ns"] - s["start_ns"]
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, val in s.get("counts", {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + val

    def ms(ns_by_name, name):
        return ns_by_name.get(name, 0) / 1e6

    m = {f"{name}.ms": ms(total_ns, name) for name in _TIMED}
    pairs = counts.get(("special.cp_bounds_batch", "pairs"), 0)
    band_levels = 2 * counts.get(("bands.raw_band", "n_groups"), 0)
    m["special.cp_bounds_batch.calls"] = calls.get("special.cp_bounds_batch", 0)
    m["special.cp_bounds_batch.pairs"] = pairs
    m["bands.raw_band.levels_per_pair"] = band_levels / pairs if pairs else 0.0
    m["bands.raw_band.calls"] = calls.get("bands.raw_band", 0)
    m["bands.raw_band.self_ms"] = ms(self_ns, "bands.raw_band")
    m["bands.family.pairs"] = counts.get(("bands.family", "pairs"), 0)
    n_data = calls.get("isotonic.build_sorted_data", 0)
    m["isotonic.n_groups"] = (
        counts.get(("isotonic.build_sorted_data", "n_groups"), 0) / n_data
        if n_data else 0.0
    )
    m["diagnostics.isotonicity_pvalue.rebuilds"] = sum(
        1 for s in spans
        if s["name"] == "bands.raw_band"
        and s["parent"] is not None
        and spans[s["parent"]]["name"] == "diagnostics.isotonicity_pvalue"
    )
    m["simulation.run_experiment.self_ms"] = ms(self_ns, "simulation.run_experiment")
    sweep_bands = sum(
        1 for s in spans
        if s["name"] == "bands.raw_band"
        and _has_ancestor(spans, s, "simulation.run_experiment")
    )
    m["simulation.raw_band_per_rep"] = sweep_bands / reps if reps else 0.0
    m["cli.self_ms"] = ms(self_ns, "cli.main")
    m["sweep.write_ms"] = ms(total_ns, "sweep.write")
    return m
