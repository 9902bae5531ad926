#!/usr/bin/env python3
"""calband benchmark: the CLI and the sweep script, each as fresh processes.

    python3 perfbench/run.py --workload band-large --seed 1 --seconds 35 --trace 0

Run from anywhere inside a calband checkout; the checkout is found from
this file's location and nothing is installed. Inputs come from --seed.
Invocations of the workload's entry point run one at a time, with
PYTHONPATH=src and CALBAND_THREADS unset, for about --seconds; each
invocation's output is checked.

--trace 0 reports the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
success_rate. --trace 1 alternates untraced invocations with traced ones
(perfbench/traced.py) and reports the per-layer metrics of layers.py.
The last line of stdout is one JSON object with correct, attempted, failed
and metrics. --toy runs the same code paths at tiny sizes.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/calband/cli.py", "scripts/run_full_experiments.py")
WORK_DIR = ROOT / ".perfbench_work"
THREADS_ENV = "CALBAND_THREADS"
SETUP_REPEATS = 5
# every run must be over within 180 s; no child may outlive this budget
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env():
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(cmd, env, log_path, timeout):
    """Run cmd to completion and return its wall time and resource usage.

    A child still running after timeout seconds is killed and reported with
    the kill's exit code.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )


def entry_command(job):
    if job.workload.entry == workloads.ENTRY_SWEEP:
        return [sys.executable, str(ROOT / "scripts" / "run_full_experiments.py"), *job.argv]
    return [sys.executable, "-m", "calband.cli", *job.argv]


def traced_command(job, spans_path):
    return [
        sys.executable, str(ROOT / "perfbench" / "traced.py"),
        "--spans", str(spans_path), job.workload.entry, *job.argv,
    ]


class Run:
    """One benchmark run: invocations, their checks and their digests."""

    def __init__(self, job, workdir):
        self.job = job
        self.workdir = workdir
        self.env = child_env()
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.digests = []
        self.log = []

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def _count(self, label, inv, problem):
        self.attempted += 1
        self.log.append({"label": label, **asdict(inv), "problem": problem})
        if problem is not None:
            self.failed += 1
            print(f"{label}: {problem}", file=sys.stderr)

    def _invoke(self, cmd, label):
        log = self.workdir / f"{label}.log"
        inv = invoke(cmd, self.env, log, self.remaining())
        return inv, (None if inv.exit_code == 0 else f"exit code {inv.exit_code}, see {log}")

    def run(self, cmd, label):
        """Invoke cmd and count it; returns the Invocation."""
        inv, problem = self._invoke(cmd, label)
        self._count(label, inv, problem)
        return inv

    def entry(self, cmd, label):
        """Invoke the workload's entry point and check what it wrote.

        Returns the Invocation and whether it passed.
        """
        workloads.clear_outputs(self.job)
        inv, problem = self._invoke(cmd, label)
        if problem is None:
            try:
                digest = workloads.check(self.job)
            except workloads.CheckFailed as exc:
                problem = str(exc)
            else:
                if self.digests and digest != self.digests[0]:
                    problem = f"output digest {digest} differs from {self.digests[0]}"
                self.digests.append(digest)
        self._count(label, inv, problem)
        return inv, problem is None

    def keep_going(self, seconds, t_loop, per_round):
        """Start another round if less than half of it should fall past --seconds.

        A round that would end well inside the hard limit is required too.
        """
        elapsed = time.perf_counter() - t_loop
        return elapsed + per_round / 2 <= seconds and 2 * per_round < self.remaining()


def measure_setup(run):
    """Median wall time of a fresh interpreter importing calband.cli."""
    cmd = [sys.executable, "-c", "import calband.cli"]
    run.run(cmd, "setup-warmup")  # compiles bytecode and warms the file cache
    return statistics.median(
        run.run(cmd, "setup").wall_s for _ in range(SETUP_REPEATS)
    )


def timed_run(run, seconds):
    setup_s = measure_setup(run)
    cmd = entry_command(run.job)
    invs = []
    t_loop = time.perf_counter()
    while True:
        invs.append(run.entry(cmd, f"invocation-{len(invs)}")[0])
        if not run.keep_going(seconds, t_loop, statistics.median(i.wall_s for i in invs)):
            break
    return {
        "wall_s": statistics.median(i.wall_s for i in invs),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invs),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


def traced_run(run, seconds):
    job = run.job
    reps = job.workload.reps
    spans_path = run.workdir / "spans.json"
    plain_cmd = entry_command(job)
    traced_cmd = traced_command(job, spans_path)
    is_cli = job.workload.entry == workloads.ENTRY_CLI
    plain, traced, per_invocation = [], [], []
    t_loop = time.perf_counter()
    while True:
        plain.append(run.entry(plain_cmd, f"untraced-{len(plain)}")[0])
        inv, ok = run.entry(traced_cmd, f"traced-{len(traced)}")
        traced.append(inv)
        if ok:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            m = layers.span_metrics(spans, reps)
            m["cli.output_bytes"] = job.output.stat().st_size if is_cli else 0
            per_invocation.append(m)
        per_round = statistics.median(p.wall_s + t.wall_s for p, t in zip(plain, traced))
        if not run.keep_going(seconds, t_loop, per_round):
            break
    metrics = {}
    for name, _ in layers.PER_LAYER:
        vals = [m[name] for m in per_invocation if name in m]
        metrics[name] = statistics.median(vals) if vals else 0.0
    metrics["proc.cpu_s"] = statistics.median(i.cpu_s for i in plain)
    metrics["trace.overhead_s"] = (
        statistics.median(i.wall_s for i in traced)
        - statistics.median(i.wall_s for i in plain)
    )
    return metrics


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args):
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "toy": args.toy,
        "trace": args.trace,
        THREADS_ENV: "unset",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, same code paths")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a calband checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    table = workloads.TOY_WORKLOADS if args.toy else workloads.WORKLOADS
    workload = table[args.workload]
    workdir = WORK_DIR / f"{'toy-' if args.toy else ''}{workload.name}"
    job = workloads.prepare(workload, args.seed, workdir)

    run = Run(job, workdir)
    if args.trace:
        values = traced_run(run, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        values = timed_run(run, args.seconds)
        units = dict(END_TO_END)

    env = environment(args)
    env["output_digest"] = run.digests[0] if run.digests else None
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"environment": env, "result": result, "invocations": run.log}
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    error_rate = run.failed / run.attempted
    print(f"environment {json.dumps(env)}")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':42s} {error_rate:.6g} ({run.failed}/{run.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
