"""
Benchmark of the carrierland command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports the
package from ./src and drives carrierland.cli.main in this process,
without threads, one CLI call at a time, for S seconds.

Workloads (the rationale of each is its `why` in BENCHMARK.json):
    approach     `run` of the full approach with wind, noise and ship
                 motion on, one seed per CLI call, to touchdown
    pitch_sweep  `sweep` of pitch steps with wind and noise over
                 SWEEP_RUNS consecutive seeds per CLI call
    sink_dense   `run` of a calm-air sink step, one trace row per step

`--workload all` runs the three one after another, each in a fresh
process.

--seed derives every run seed; the program sees only CLI arguments.
Each mode first makes one untimed call, which also fills the aero-model
cache, and repeats its seeds in the first measured call: the outputs
of a repeated seed must be byte-identical.

--trace 0 prints the end-to-end metrics: medians over runs of run_s
(CLI entry to the run's last output file closed), step_us
((Simulation.run wall - Environment construction) / steps) and setup_s
(Simulation construction + Environment construction), runs_per_s over
the measured calls, and the peak RSS of this process.

--trace 1 alternates traced and untraced calls of the same seeds and
prints the per-layer metrics of layers.py, medians over the traced
calls, with the tracing overhead on step_us.

Every run is checked: exit code 0, no abort, touchdown (approach) or
`settled` (the others), a finite trace.  Traced calls are also checked
for exact call counts per step, counts that repeat between calls, and
self times that add up to the call's wall time.  A run that fails a
check counts in `failed`; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SWEEP_RUNS = 8
QUICK_SWEEP_RUNS = 2

WORKLOADS = {
    "approach": ("run", "--scenario", "approach", "--controller", "opd",
                 "--wind", "on", "--noise", "on", "--ship", "on"),
    "pitch_sweep": ("sweep", "--scenario", "pitch_step", "--controller", "opd",
                    "--wind", "on", "--noise", "on", "--runs", str(SWEEP_RUNS)),
    "sink_dense": ("run", "--scenario", "sink_step", "--controller", "opd",
                   "--set", "trace_decimation=1"),
}

# shorter runs through the same code paths, for selftest.py
QUICK_ARGS = {
    "approach": ("--set", "initial_range=150", "--set", "ship_warmup_s=1"),
    "pitch_sweep": ("--duration", "2", "--runs", str(QUICK_SWEEP_RUNS)),
    "sink_dense": ("--duration", "9"),
}

# control laws each workload steps once per integration step
CONTROL_LAWS = ("pitch_opd", "velocity_pid", "sink_pi", "guidance_pid")
ACTIVE_LAWS = {
    "approach": CONTROL_LAWS,
    "pitch_sweep": ("pitch_opd", "velocity_pid"),
    "sink_dense": ("pitch_opd", "velocity_pid", "sink_pi"),
}

# exact calls per integration step on every workload
CALLS_PER_STEP = {
    "sim.derivative": 4,
    "integrate.rk4_step": 1,
    "environment.ship_filter_derivative": 8,
    "observer.observer_derivative": 4,
    "environment.wind_sample": 1,
    "environment.noise_sample": 1,
    "actuation.saturate_inputs": 1,
}

# name -> (unit, better).  fail_ratio is printed here and carried in the
# result as attempted/failed; it reads 0 when all is well, so it is not
# one of BENCHMARK.json's metrics, which must never read 0.
END_TO_END = {
    "run_s": ("s", "lower"),
    "step_us": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("ratio", "lower"),
}
REPORT_ONLY = ("fail_ratio",)


@dataclass
class Run:
    seed: int
    problems: list[str] = field(default_factory=list)
    run_s: float | None = None
    setup_s: float | None = None
    step_us: float | None = None
    hashes: dict[str, str] = field(default_factory=dict)


@dataclass
class Call:
    """One CLI call of a workload: its runs and its recorder."""
    runs: list[Run]
    recorder: object
    failed: bool = False


def call_seeds(workload: str, bench_seed: int, index: int) -> list[int]:
    """Run seeds of measured call `index`: one per `run`, consecutive per `sweep`."""
    base = random.Random(bench_seed).randrange(1_000_000)
    width = SWEEP_RUNS if WORKLOADS[workload][0] == "sweep" else 1
    return [base + index * width + k for k in range(width)]


def cli_call(workload: str, seeds: list[int], traced: bool, quick: bool) -> Call:
    """One CLI call of the workload, with its output checks."""
    from spans import Recorder

    sweep = WORKLOADS[workload][0] == "sweep"
    argv = list(WORKLOADS[workload])
    if quick:
        argv += QUICK_ARGS[workload]
        if sweep:
            seeds = seeds[:QUICK_SWEEP_RUNS]
    out = Path(tempfile.mkdtemp(dir=WORK))
    argv += ["--seed", str(seeds[0]), "--out", str(out)]
    runs = [Run(s) for s in seeds]
    recorder = Recorder(traced)
    code = None
    try:
        with recorder, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = recorder.call_cli(argv)
    except Exception:  # a traceback fails every run of the call; keep going
        traceback.print_exc(file=sys.stderr)
    try:
        if code != 0:
            for r in runs:
                r.problems.append(f"exit code {code}")
        else:
            dirs = [out / f"seed_{s}" for s in seeds] if sweep else [out]
            _check_runs(workload, runs, recorder, dirs)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Call(runs, recorder, failed=code != 0)


def _check_runs(workload: str, runs: list[Run], recorder, dirs: list[Path]) -> None:
    per_run = recorder.per_run()
    walls = recorder.run_walls()
    if not len(per_run) == len(walls) == len(runs):
        for r in runs:
            r.problems.append(f"{len(per_run)} simulations and {len(walls)} "
                              f"output emits for {len(runs)} runs")
        return
    for r, rec, wall, d in zip(runs, per_run, walls, dirs):
        r.run_s, r.setup_s, r.step_us = wall, rec["setup_s"], rec["step_us"]
        if rec["aborted"]:
            r.problems.append("aborted")
        try:
            trace = (d / "trace.csv").read_bytes()
            metrics_raw = (d / "metrics.json").read_bytes()
        except OSError as exc:
            r.problems.append(f"missing output: {exc}")
            continue
        r.hashes = {"trace.csv": hashlib.sha256(trace).hexdigest(),
                    "metrics.json": hashlib.sha256(metrics_raw).hexdigest()}
        metrics = json.loads(metrics_raw)
        if metrics.get("aborted"):
            r.problems.append("metrics.json: aborted")
        if workload == "approach":
            if metrics.get("touchdown_time") is None:
                r.problems.append("no touchdown")
        elif not metrics.get("settled"):
            r.problems.append("not settled")
        # trace floats are written with format(v, ".10g"): nan, inf, -inf
        if b"nan" in trace or b"inf" in trace:
            r.problems.append("non-finite value in trace.csv")
        if trace.count(b"\n") != rec["rows"] + 1:
            r.problems.append("trace.csv rows differ from the run's trace")


def check_repeats(calls: list[Call]) -> None:
    """Every call of the same seed must write byte-identical outputs."""
    first: dict[int, dict] = {}
    for c in calls:
        for r in c.runs:
            if not r.hashes:
                continue
            ref = first.setdefault(r.seed, r.hashes)
            if r.hashes != ref:
                r.problems.append(f"seed {r.seed}: outputs differ from an "
                                  "earlier call of the same seed")


def layer_metrics(workload: str, c: Call) -> dict | None:
    """Per-layer metrics of one traced call, after its trace checks."""
    import layers

    rec = c.recorder
    per_run = rec.per_run()
    if c.failed or not per_run:
        return None
    steps = sum(r["steps"] for r in per_run)
    rows = sum(r["rows"] for r in per_run)
    self_s, calls, by_parent = rec.tree_totals()
    problems = []
    try:
        values = layers.layer_values(
            self_s, calls, by_parent, runs=len(per_run), steps=steps, rows=rows,
            aborts=sum(r["aborted"] for r in per_run), trace_bytes=rec.trace_bytes)
    except ValueError as exc:
        problems.append(str(exc))
        values = None
    if values is not None:
        total = layers.self_time_total(values, len(per_run), steps)
        if abs(total - rec.wall) > 1e-6 * rec.wall + 1e-6:
            problems.append(f"self times add up to {total:.6f} s, "
                            f"the call took {rec.wall:.6f} s")
    expected = dict(CALLS_PER_STEP)
    for law in CONTROL_LAWS:
        expected[f"control.{law}"] = 1 if law in ACTIVE_LAWS[workload] else 0
    expected = {name: n * steps for name, n in expected.items()}
    expected["airframe.state_derivative"] = rows   # d_true of each trace row
    expected["airframe.coefficients"] = 4 * steps + rows
    expected["environment.ship_step"] = sum(
        int(round(r["config"].ship_warmup_s / r["config"].dt))
        for r in per_run
        if r["config"].scenario == "approach" and r["config"].ship_on)
    for name, n in expected.items():
        if calls.get(name, 0) != n:
            problems.append(f"{name}: {calls.get(name, 0)} calls, expected {n}")
    for r in c.runs:
        r.problems.extend(problems)
    return values


def check_counts_repeat(traced: list[Call]) -> None:
    """Call counts of traced calls of the same seeds must repeat exactly."""
    ref = traced[0].recorder.tree_totals()[1]
    for c in traced[1:]:
        counts = c.recorder.tree_totals()[1]
        if counts != ref:
            diff = sorted(k for k in set(ref) | set(counts)
                          if ref.get(k) != counts.get(k))
            for r in c.runs:
                r.problems.append(f"call counts differ between traced calls: {diff}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(calls: list[Call], attr: str) -> list[float]:
    return [getattr(r, attr) for c in calls for r in c.runs
            if getattr(r, attr) is not None]


def end_to_end(measured: list[Call], attempted: int, failed: int) -> dict:
    """name -> (value, how it was taken)."""
    out = {}
    for name in ("run_s", "step_us", "setup_s"):
        vals = _values(measured, name)
        if vals:        # none when every measured call failed
            q1, med, q3 = quartiles(vals)
            out[name] = (med, f"median of {len(vals)} runs, q1={q1:.6g} q3={q3:.6g}")
    wall = sum(c.recorder.wall for c in measured)
    runs = sum(len(c.runs) for c in measured)
    out["runs_per_s"] = (runs / wall if wall > 0 else 0.0,
                         f"{runs} runs in {len(measured)} calls over {wall:.3f} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss_mb, "of this process")
    out["fail_ratio"] = (failed / attempted, f"{failed} of {attempted} runs")
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, carrierland, numpy) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "carrierland": carrierland.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "bench_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def measure(args) -> tuple[list[Call], list[Call], list[Call]]:
    """(all calls, measured untraced calls, traced calls)."""
    w, quick = args.workload, args.quick
    seeds0 = call_seeds(w, args.seed, 0)
    calls = [cli_call(w, seeds0, False, quick)]       # warm-up, repeated below
    measured, traced = [], []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while not measured or time.perf_counter() < deadline:
            seeds = call_seeds(w, args.seed, len(measured))
            measured.append(cli_call(w, seeds, False, quick))
    else:
        while (len(traced) < 2 or not measured
               or time.perf_counter() < deadline):
            if len(traced) <= len(measured):
                traced.append(cli_call(w, seeds0, True, quick))
            else:
                measured.append(cli_call(w, seeds0, False, quick))
    calls += measured + traced
    return calls, measured, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulated runs, for selftest.py")
    args = parser.parse_args(argv)

    if not (SRC / "carrierland" / "cli.py").is_file():
        print(f"error: no carrierland sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # a fresh process per workload, so that peak_rss_mb is its own
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        return max(subprocess.run([sys.executable, __file__, "--workload", w] + rest,
                                  check=False).returncode
                   for w in WORKLOADS)
    for path in (SRC, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy

    import carrierland

    meta = metadata(args, carrierland, numpy)
    WORK.mkdir(exist_ok=True)
    try:
        calls, measured, traced = measure(args)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    check_repeats(calls)
    layer = None
    if traced:
        check_counts_repeat(traced)
        per_call = [layer_metrics(args.workload, c) for c in traced]
        per_call = [v for v in per_call if v is not None]
    runs = [r for c in calls for r in c.runs]
    attempted = len(runs)
    failed = sum(1 for r in runs if r.problems)
    meta["run_seeds"] = sorted({r.seed for r in runs})
    print("meta " + json.dumps(meta, sort_keys=True))
    print("sha256 " + json.dumps(
        {str(r.seed): r.hashes for c in calls for r in c.runs if r.hashes},
        sort_keys=True))
    for r in runs:
        for p in r.problems:
            print(f"FAIL seed {r.seed}: {p}")

    e2e = end_to_end(measured, attempted, failed)
    for name, (value, how) in e2e.items():
        unit, better = END_TO_END[name]
        print(f"{args.workload} {name} = {value:.6g} {unit} ({how}; {better} is better)")

    if traced:
        import layers

        if per_call and "step_us" in e2e:
            layer = {name: statistics.median(v[name] for v in per_call)
                     for name in per_call[0]}
            t_step = statistics.median(_values(traced, "step_us"))
            layer["tracing.overhead_pct"] = (t_step / e2e["step_us"][0] - 1.0) * 100.0
        for name, unit, better, moves in layers.LAYER_METRICS:
            value = "n/a" if layer is None else f"{layer[name]:.6g}"
            print(f"{args.workload} {name} = {value} {unit} "
                  f"({better} is better; moves {moves})")
        metrics = {} if layer is None else {
            name: {"value": layer[name], "unit": layers.UNITS[name]}
            for name, _, _, _ in layers.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": END_TO_END[name][0]}
                   for name in END_TO_END if name not in REPORT_ONLY and name in e2e}

    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
