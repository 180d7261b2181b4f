"""
Spans around calls into carrierland, installed from outside the package.

The benchmark patches names in carrierland's module namespaces and
class methods with timing wrappers; no file of the package changes.

Once-per-run boundaries (Simulation construction and run, Environment
construction, trace writing, the CLI's per-run output emit) are kept as
raw spans tagged with a run id.  That is all an untraced call installs,
and it is enough for the end-to-end metrics.

A traced call also aggregates every wrapped call into a call tree keyed
by name below its parent, as call count and inclusive time.  A node's
self time is its inclusive time minus that of its children.  Per-step
boundaries (about 35 calls per integration step) are only ever
aggregated, never stored as raw spans.
"""

from __future__ import annotations

import os
from time import perf_counter

import carrierland.cli as cli
import carrierland.environment as environment
import carrierland.sim as sim
from carrierland.airframe import AeroModel
from carrierland.control import GuidancePID, PitchOPD, SinkPI, VelocityPID
from carrierland.environment import PitchNoise, WindField

# once-per-run spans: (owner, attribute, span name)
RUN_SPANS = (
    (sim.Simulation, "__init__", "sim.construct"),
    (sim.Simulation, "run", "sim.run"),
    (sim, "Environment", "environment.construct"),
    (cli, "write_trace_csv", "sim.write_trace_csv"),
)

# aggregated-only spans, installed for traced calls
TREE_SPANS = (
    (sim, "solve_trim", "trimlin.solve_trim"),
    (sim, "linearize", "trimlin.linearize"),
    (environment, "ship_step", "environment.ship_step"),
    (WindField, "sample", "environment.wind_sample"),
    (PitchNoise, "sample", "environment.noise_sample"),
    (sim, "_ship_filter_derivative", "environment.ship_filter_derivative"),
    (AeroModel, "coefficients", "airframe.coefficients"),
    (sim, "state_derivative", "airframe.state_derivative"),
    (sim, "observer_derivative", "observer.observer_derivative"),
    (PitchOPD, "step", "control.pitch_opd"),
    (VelocityPID, "step", "control.velocity_pid"),
    (SinkPI, "step", "control.sink_pi"),
    (GuidancePID, "step", "control.guidance_pid"),
    (sim, "saturate_inputs", "actuation.saturate_inputs"),
)

RK4_SPAN = "integrate.rk4_step"
DERIVATIVE_SPAN = "sim.derivative"   # the `f` closure run() hands to rk4_step


class Node:
    __slots__ = ("children", "calls", "total")

    def __init__(self):
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0


def steps_of(result) -> int:
    """Integration steps a RunResult took: to abort, touchdown or duration."""
    cfg = result.config
    if result.aborted:
        end = result.abort_time
    elif result.metrics.touchdown_time is not None:
        end = result.metrics.touchdown_time
    else:
        end = cfg.resolved_duration()
    return int(round(end / cfg.dt))


class Recorder:
    """Records the spans of one CLI call.

    Use as a context manager: the wrappers are installed on entry and the
    original attributes restored on exit.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.root = Node()
        self.stack = [self.root]
        self.run_id = -1
        self.spans: list[tuple[int, str, float, float]] = []
        self.results: list[dict] = []       # per run: steps, rows, aborted, config
        self.emit_ends: list[float] = []    # per run: last output file closed
        self.trace_bytes = 0
        self.cli_start = self.cli_end = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def __enter__(self):
        for owner, attr, name in RUN_SPANS:
            self._patch(owner, attr, self._run_span(name, getattr(owner, attr)))
        self._patch(cli, "_emit_run", self._emit_mark(cli._emit_run))
        if self.traced:
            for owner, attr, name in TREE_SPANS:
                self._patch(owner, attr, self._tree_span(name, getattr(owner, attr)))
            self._patch(sim, "rk4_step", self._rk4(sim.rk4_step))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # ----------------------------------------------------------- wrappers
    def _tree_span(self, name, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node()
            stack.append(node)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                node.calls += 1
                stack.pop()
        return wrapper

    def _rk4(self, fn):
        traced_rk4 = self._tree_span(RK4_SPAN, fn)
        wrap_derivative = self._tree_span

        def wrapper(f, y, t, dt):
            return traced_rk4(wrap_derivative(DERIVATIVE_SPAN, f), y, t, dt)
        return wrapper

    def _run_span(self, name, fn):
        inner = self._tree_span(name, fn) if self.traced else fn
        is_construct = name == "sim.construct"
        is_run = name == "sim.run"
        is_write = name == "sim.write_trace_csv"

        def wrapper(*args, **kwargs):
            if is_construct:
                self.run_id += 1
            t0 = perf_counter()
            result = inner(*args, **kwargs)
            t1 = perf_counter()
            self.spans.append((self.run_id, name, t0, t1))
            if is_run:
                self.results.append({"steps": steps_of(result),
                                     "rows": len(result.trace),
                                     "aborted": result.aborted,
                                     "config": result.config})
            elif is_write:
                self.trace_bytes += os.stat(args[0]).st_size
            return result
        return wrapper

    def _emit_mark(self, fn):
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)
            self.emit_ends.append(perf_counter())
        return wrapper

    def call_cli(self, argv) -> int:
        """Run carrierland.cli.main(argv) as the root span; returns its exit code."""
        self.cli_start = perf_counter()
        try:
            return cli.main(argv)
        finally:
            self.cli_end = perf_counter()
            self.root.total += self.cli_end - self.cli_start
            self.root.calls += 1

    @property
    def wall(self) -> float:
        return self.cli_end - self.cli_start

    def run_walls(self) -> list[float]:
        """Seconds per run: CLI entry, each run's last output file, CLI exit.

        The last run also carries what the CLI does after its emit (the
        sweep's aggregate.csv).
        """
        marks = [self.cli_start] + self.emit_ends[:-1] + [self.cli_end]
        return [b - a for a, b in zip(marks, marks[1:])]

    # ------------------------------------------------------------ reading
    def per_run(self) -> list[dict]:
        """Setup and per-step host time of each run, from the raw spans."""
        runs = [dict(r) for r in self.results]
        for run_id, name, t0, t1 in self.spans:
            if 0 <= run_id < len(runs):
                runs[run_id][name] = runs[run_id].get(name, 0.0) + (t1 - t0)
        for r in runs:
            env = r.get("environment.construct", 0.0)
            r["setup_s"] = r["sim.construct"] + env
            r["step_us"] = (r["sim.run"] - env) / max(1, r["steps"]) * 1e6
        return runs

    def tree_totals(self) -> tuple[dict, dict, dict]:
        """(self seconds, calls, calls by parent name) per span name.

        The nodes below a trim or linearization span are folded into it:
        their time is set-up work of the trimlin layer, and keeping them
        out keeps the per-step counts of the airframe layer exact.
        """
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        by_parent: dict[tuple[str, str], int] = {}

        def walk(parent_name, node):
            for name, child in node.children.items():
                calls[name] = calls.get(name, 0) + child.calls
                key = (parent_name, name)
                by_parent[key] = by_parent.get(key, 0) + child.calls
                if name.startswith("trimlin."):
                    own = child.total
                else:
                    own = child.total - sum(c.total for c in child.children.values())
                    walk(name, child)
                self_s[name] = self_s.get(name, 0.0) + own

        walk("cli", self.root)
        self_s["cli"] = self.root.total - sum(c.total for c in self.root.children.values())
        return self_s, calls, by_parent
