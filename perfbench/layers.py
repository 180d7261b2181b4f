"""
Per-layer metrics of a traced CLI call, and the end-to-end metric each moves.

A layer is a carrierland module.  Each entry is (metric name, unit,
better, the end-to-end metric the layer metric should move and on which
workloads).  BENCHMARK.json's `per_layer` list must match the first
three fields; selftest.py checks that it does.
"""

from __future__ import annotations

ALL = "all workloads"

# spans entered on every integration step, reported per step
STEP_SPANS = (
    "environment.wind_sample",
    "environment.noise_sample",
    "environment.ship_filter_derivative",
    "airframe.coefficients",
    "airframe.state_derivative",
    "observer.observer_derivative",
    "control.pitch_opd",
    "control.velocity_pid",
    "control.sink_pi",
    "control.guidance_pid",
    "actuation.saturate_inputs",
    "integrate.rk4_step",
    "sim.derivative",
)

# spans entered once per run (ship_step: once per warm-up step), reported per run
PER_RUN_SPANS = (
    "environment.construct",
    "environment.ship_step",
    "sim.construct",
    "sim.write_trace_csv",
    "trimlin.solve_trim",
    "trimlin.linearize",
    "cli",
)

_STEP_MOVES = {
    "environment.wind_sample": f"step_us, {ALL}",
    "environment.noise_sample": f"step_us, {ALL}",
    "environment.ship_filter_derivative":
        f"step_us, {ALL}; 0 calls once the deck filters take a zero-order-hold step",
    "airframe.coefficients": f"step_us, {ALL}, most on sink_dense",
    "airframe.state_derivative": "run_s on sink_dense (one call per trace row)",
    "observer.observer_derivative": f"step_us, {ALL}",
    "control.pitch_opd": f"step_us, {ALL}",
    "control.velocity_pid": f"step_us, {ALL}",
    "control.sink_pi": "step_us on approach and sink_dense",
    "control.guidance_pid": "step_us on approach",
    "actuation.saturate_inputs": f"step_us, {ALL}",
    "integrate.rk4_step": f"step_us, {ALL} (tuple plumbing, derivative excluded)",
    "sim.derivative": f"step_us, {ALL} (inline plant physics of the RK4 closure)",
}

LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("environment.construct.self_ms", "ms/run", "lower",
     "setup_s on approach (ship warm-up); ~0 elsewhere"),
    ("environment.ship_step.calls", "1/run", "lower",
     "setup_s on approach; 0 elsewhere"),
    ("environment.ship_step.self_ms", "ms/run", "lower",
     "setup_s on approach; 0 elsewhere"),
) + tuple(
    entry
    for span in STEP_SPANS
    for entry in (
        (f"{span}.calls_per_step", "1/step", "lower", _STEP_MOVES[span]),
        (f"{span}.self_us_per_step", "us/step", "lower", _STEP_MOVES[span]),
    )
) + (
    ("airframe.coefficients.useful_ratio", "ratio", "higher",
     "step_us; RK4-stage calls out of all calls, the rest recompute k1 for "
     "trace rows (4/4.1 on approach, 4/5 on sink_dense)"),
    ("sim.loop.self_us_per_step", "us/step", "lower",
     f"step_us, {ALL}: the rest of run() (projection, finite check, "
     "histories, trace append, metrics)"),
    ("sim.construct.self_ms", "ms/run", "lower",
     f"setup_s, {ALL} (config check, aero model, gains)"),
    ("sim.steps", "1/run", "lower", "nothing: integration steps per run"),
    ("sim.trace_rows_per_step", "1/step", "lower",
     "run_s via state_derivative and write_trace_csv, most on sink_dense"),
    ("sim.aborts", "count", "lower", "nothing: runs that aborted in the traced call"),
    ("sim.write_trace_csv.self_ms", "ms/run", "lower", "run_s on sink_dense"),
    ("sim.write_trace_csv.bytes", "B/run", "lower", "run_s on sink_dense"),
    ("trimlin.solve_trim.calls", "1/run", "lower",
     "setup_s and runs_per_s on pitch_sweep"),
    ("trimlin.solve_trim.self_ms", "ms/run", "lower",
     "setup_s and runs_per_s on pitch_sweep (includes its aero calls)"),
    ("trimlin.linearize.calls", "1/run", "lower",
     "setup_s and runs_per_s on pitch_sweep"),
    ("trimlin.linearize.self_ms", "ms/run", "lower",
     "setup_s and runs_per_s on pitch_sweep (includes its aero calls)"),
    ("cli.self_ms", "ms/run", "lower",
     "runs_per_s on pitch_sweep (config resolution, JSON emits, mkdir)"),
    ("tracing.overhead_pct", "%", "lower",
     "nothing: traced step_us over the untraced step_us of the same seeds"),
)

UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


def layer_values(self_s: dict, calls: dict, by_parent: dict,
                 runs: int, steps: int, rows: int, aborts: int,
                 trace_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call (all but tracing.overhead_pct)."""
    known = set(STEP_SPANS) | set(PER_RUN_SPANS) | {"sim.run"}
    unknown = sorted(set(self_s) - known)
    if unknown:
        raise ValueError(f"spans with no per-layer metric: {unknown}")
    per_step = 1.0 / steps
    per_run = 1.0 / runs
    out: dict[str, float] = {}
    for span in STEP_SPANS:
        out[f"{span}.calls_per_step"] = calls.get(span, 0) * per_step
        out[f"{span}.self_us_per_step"] = self_s.get(span, 0.0) * per_step * 1e6
    for span in PER_RUN_SPANS:
        out[f"{span}.self_ms"] = self_s.get(span, 0.0) * per_run * 1e3
    coeff = calls.get("airframe.coefficients", 0)
    useful = by_parent.get(("sim.derivative", "airframe.coefficients"), 0)
    out["airframe.coefficients.useful_ratio"] = useful / coeff if coeff else 0.0
    out["sim.loop.self_us_per_step"] = self_s.get("sim.run", 0.0) * per_step * 1e6
    out["environment.ship_step.calls"] = calls.get("environment.ship_step", 0) * per_run
    out["trimlin.solve_trim.calls"] = calls.get("trimlin.solve_trim", 0) * per_run
    out["trimlin.linearize.calls"] = calls.get("trimlin.linearize", 0) * per_run
    out["sim.steps"] = steps * per_run
    out["sim.trace_rows_per_step"] = rows * per_step
    out["sim.aborts"] = aborts
    out["sim.write_trace_csv.bytes"] = trace_bytes * per_run
    return out


def self_time_total(values: dict, runs: int, steps: int) -> float:
    """Seconds the reported self times add up to, over the whole CLI call."""
    total = 0.0
    for name, value in values.items():
        if name.endswith(".self_us_per_step"):
            total += value * steps * 1e-6
        elif name.endswith(".self_ms"):
            total += value * runs * 1e-3
    return total
