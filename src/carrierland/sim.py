"""
Closed-loop scenario engine: fixed-step RK4 integration of the coupled
aircraft / actuator / observer / deck-motion system, scenario
orchestration and metric extraction.

The integrated state concatenates aircraft (6), engine (1), elevator
(2), observer (3) and the two deck-motion filters (8).  The RK4
derivative only concatenates the component kernels:
airframe.rigid_body_derivative, actuation.actuator_derivative,
observer.observer_derivative and the deck-filter derivative (the deck
stays in this step, where the benchmark counts its derivative calls; the
ship warm-up uses environment.ship_step's exact zero-order hold).  After each
step actuation.project_actuator_states clamps the actuator states;
environment.deck_motion gives the landing point and its rates and
environment.held_ship_inputs the held deck noise.  Controller commands,
the measured pitch, the wind sample and all white-noise draws are
computed once per step and held across the four RK4 stages.

Each step of the loop in Simulation.run runs five stages: sample (held
deck noise, deck motion, wind, pitch noise, drawn on the step index),
control, record, integrate (one RK4 step) and project (actuator clamps,
then a finite check).
Control calls each element once: the flight-path generator, guidance
and sink laws as the scenario needs them, the pitch law, the velocity
law, saturation, and then control.known_input on the saturated
elevator command, the observer's known input under every pitch law.
The observer is never overwritten: the truth law feeds the true pitch
rate and disturbance to the PD law as arguments, and x1..x3 in the
trace are the observer's estimates under every law.  Record keeps
only what the scenario's metrics read, in memory that does not grow
with the run: a trace row every trace_decimation steps, packed as
len(TRACE_HEADER) C doubles onto a Trace, an unlinked temporary file
from the first row (the saturation flags are stored, and read back, as
0.0 and 1.0); theta on pitch_step and zdot on
sink_step folded into a StepResponse; and on approach a running maximum
of |z - z_r| and a running sum of squared pitch-reference errors from
metric_skip_s on.  The loop has one abort exit: an OutOfTableRange or
NonFiniteDerivative raised in any stage ends the run at the current step
head with the exception as the reason; a non-finite state after the
step ends it with the reason "non-finite state after step".

Scenarios:
    pitch_step  step the pitch reference by a fixed angle at t = 0;
                sink and guidance loops off, velocity loop active.
    sink_step   step the commanded sink rate at t = 0; the sink loop
                generates the pitch reference, guidance off.
    approach    full cascade from a point on the glide path, ending at
                touchdown (z <= z_l once x >= x_l) or at the duration cap.

Runs are bit-reproducible: a resolved configuration and seed determine
every sample drawn and every float written to the trace.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
import weakref
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

from .airframe import (AeroModel, AircraftParams, NonFiniteDerivative,
                       OutOfTableRange, default_aero_model,
                       rigid_body_derivative, state_derivative)
from .actuation import (actuator_derivative, project_actuator_states,
                        saturate_inputs)
from .config import ConfigError, ScenarioConfig
from .control import (GuidancePID, PitchOPD, PitchPID, SinkPI, VelocityPID,
                      flight_path_generator, known_input)
from .environment import (Environment, deck_motion, _ship_filter_derivative,
                          held_ship_inputs, hold_steps)
from .integrate import rk4_step
from .observer import observer_derivative
from .trimlin import TrimNotConverged, TrimPoint, linearize, solve_trim

TRACE_HEADER = (
    "t", "v_t", "theta", "alpha", "q", "x", "z", "gamma", "delta_e",
    "thrust", "theta_r", "zdot_r", "z_r", "x1", "x2", "x3", "d_true",
    "u_g", "w_g", "u1", "u2", "u3", "w1", "w2", "w3", "z_g", "theta_s",
    "x_l", "z_l", "noise", "sat_elev", "sat_thr",
)


def load_aero_model(path: str | None) -> AeroModel:
    """The model in the JSON file at path; the default model for no path."""
    if not path:
        return default_aero_model()
    try:
        return AeroModel.from_file(path)
    except (ValueError, TypeError, RecursionError, OverflowError) as exc:
        # bad JSON, JSON nested too deep to decode, a bad model, or an
        # integer too large for a float
        raise ConfigError(f"aero model {path}: {exc}") from exc


@dataclass
class RunMetrics:
    settled: bool = False
    settle_time_2pct: float | None = None
    steady_state_error: float | None = None
    overshoot: float | None = None
    max_glidepath_deviation: float | None = None
    touchdown_time: float | None = None
    touchdown_vertical_error: float | None = None
    pitch_ref_rms_error: float | None = None   # rad
    elevator_saturation_count: int = 0
    thrust_saturation_count: int = 0
    observer_rms_error: float | None = None


# rows unpacked at a time by Trace iteration, and so by write_trace_csv
TRACE_BLOCK_ROWS = 64
_TRACE_WIDTH = len(TRACE_HEADER)
_ROW = struct.Struct(f"{_TRACE_WIDTH}d")
_CSV_ROW = ",".join(["%.10g"] * _TRACE_WIDTH) + "\n"


class Trace:
    """Trace rows packed row-major, len(TRACE_HEADER) C doubles a row, 8
    bytes a cell where a tuple of boxed floats takes about 22.  The rows
    go to an unlinked temporary file from the first row, so a run's
    memory does not grow with its length.  Each live Trace holds one file
    descriptor, closed when the Trace is dropped.

    Read in order: len, bool and iteration, which unpacks
    TRACE_BLOCK_ROWS rows at a time so that reading never boxes the whole
    trace at once; rows appended after a read follow the earlier ones.  A
    cell reads back as the float it was given, bit for bit; an int or
    bool reads back as a float, so the saturation flags read 0.0 and 1.0.
    """

    __slots__ = ("file", "__weakref__")

    def __init__(self):
        self.file = tempfile.TemporaryFile()
        weakref.finalize(self, self.file.close)

    def append(self, row) -> None:
        """Add a row of exactly len(TRACE_HEADER) numbers (struct.error
        otherwise)."""
        self.file.write(_ROW.pack(*row))

    def __len__(self) -> int:
        # every read leaves the file at its end
        return self.file.tell() // _ROW.size

    def _read(self, start: int, rows: int) -> bytes:
        """The packed rows start .. start + rows - 1 that exist; the file is
        left at its end, where append writes."""
        f = self.file
        f.seek(start * _ROW.size)
        data = f.read(rows * _ROW.size)
        f.seek(0, os.SEEK_END)
        return data

    def __iter__(self):
        for start in range(0, len(self), TRACE_BLOCK_ROWS):
            yield from _ROW.iter_unpack(self._read(start, TRACE_BLOCK_ROWS))


@dataclass
class RunResult:
    config: ScenarioConfig
    # a row of len(TRACE_HEADER) floats per record; sat_elev and sat_thr
    # read 0.0 or 1.0.  Trace has no ==, so == on RunResults compares
    # their traces by identity
    trace: Trace
    metrics: RunMetrics
    aborted: bool = False
    abort_time: float | None = None
    abort_reason: str | None = None


class StepResponse:
    """Settling, steady-state and overshoot metrics of a step response
    from `start` to `target`, folded one sample at a time, so a run keeps
    no history of the response.

    - Settle time: the time of the first sample after the last one outside
      the +-band around target, None while the last sample is outside.
      The band is 2 % of |target|, the absolute target, not the step size:
      on a 1 deg pitch step to theta* + 1 deg ~ 8.1 deg the band is
      ~0.16 deg, 16 % of the step.  A nan sample counts as inside.
    - Steady-state error: the mean of the last max(1, int(1 / dt))
      samples, the last second, relative to |target|; None at a zero
      target.
    - Overshoot: the peak excursion past the target relative to the step
      size, at least 0; None for a zero step.
    """

    __slots__ = ("target", "band", "step_size", "settle", "peak", "tail")

    def __init__(self, start: float, target: float, dt: float,
                 samples: int):
        """`samples` bounds the samples to be added.  It caps the tail's
        length, which deque needs as a C ssize_t however small dt is."""
        self.target = target
        self.band = 0.02 * abs(target)
        self.step_size = target - start
        self.settle = None
        self.peak = None
        # the last second, summed oldest first as sum() of a list is
        self.tail = deque(maxlen=max(1, int(min(1.0 / dt, samples))))

    def add(self, t: float, y: float) -> None:
        target = self.target
        if abs(y - target) > self.band:
            self.settle = None
        elif self.settle is None:
            self.settle = t
        step_size = self.step_size
        if step_size != 0.0:
            excursion = (y - target) / step_size
            # max()'s rule, nan included: first value, then only a
            # greater one
            if self.peak is None or excursion > self.peak:
                self.peak = excursion
        self.tail.append(y)

    def into(self, metrics: RunMetrics) -> None:
        """Set the metrics of the samples added; none leaves them unset."""
        tail = self.tail
        if not tail:
            return
        metrics.settle_time_2pct = self.settle
        metrics.settled = self.settle is not None
        target = self.target
        if target != 0.0:
            metrics.steady_state_error = abs(
                sum(tail) / len(tail) - target) / abs(target)
        if self.step_size != 0.0:
            metrics.overshoot = max(0.0, self.peak)


def _square(x: float) -> float:
    """x ** 2, or inf where that overflows.

    ``x ** 2`` and ``x * x`` can differ in the last bit; the power is
    kept so that metric values stay as they were.
    """
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=8)
def _trim(params: AircraftParams, model: AeroModel) -> TrimPoint:
    """solve_trim, once per airframe and aero model in a process: both
    are frozen and hashable, and the TrimPoint is frozen, so runs share
    it.  A failing solve raises and is not cached."""
    return solve_trim(params, model)


class Simulation:
    """One configured closed-loop run."""

    def __init__(self, config: ScenarioConfig):
        self.model = load_aero_model(config.aero_model_path)
        self.cfg = config
        self.params = params = (AircraftParams(t_max=config.t_max)
                                if config.t_max else AircraftParams())
        try:
            self.trim = _trim(params, self.model)
        except TrimNotConverged as exc:
            raise ConfigError(f"no trim point: {exc}") from exc
        # the config the pitch laws read: the run's, or a copy with the
        # linearized partials; RunResult keeps the run's
        self.pitch_cfg = config
        if config.use_local_partials:
            try:
                linear = linearize(self.trim, params, self.model)
            except OverflowError as exc:
                raise ConfigError(f"use_local_partials: {exc}") from exc
            if linear.dqdot_dde_deg == 0.0:   # the pitch laws divide by it
                raise ConfigError("use_local_partials: the linearized "
                                  "pitch.dqdot_dde at trim is 0")
            self.pitch_cfg = replace(config, dqdot_dq=linear.dqdot_dq,
                                     dqdot_dde=linear.dqdot_dde_deg)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        cfg = self.cfg
        params = self.params
        model = self.model
        trim = self.trim
        pitch_cfg = self.pitch_cfg
        dt = cfg.dt
        n_steps = int(round(cfg.resolved_duration() / dt))
        approach = cfg.scenario == "approach"
        sink_scenario = cfg.scenario == "sink_step"

        env = Environment(cfg, trim.v_t_star,
                          cfg.ship_warmup_s if approach else 0.0)
        # the first landing point, on the warmed-up deck filters
        _, _, x_l0, z_l0, _, _ = deck_motion(
            *env.ship.heave_filter[:2], *env.ship.pitch_filter[2:])
        glide_slope = math.radians(cfg.glide_slope_deg)
        tan_gs = math.tan(glide_slope)
        x0 = x_l0 - cfg.initial_range
        if approach:
            # only the altitude is read, so the rates are left at zero
            z0, _ = flight_path_generator(x_l0, z_l0, 0.0, 0.0, x0, 0.0,
                                          tan_gs)
            gamma0 = -glide_slope
        else:
            z0 = cfg.initial_altitude
            gamma0 = 0.0

        theta_star = trim.theta_star
        v_star = trim.v_t_star
        theta_cmd = theta_star + math.radians(cfg.pitch_step_deg)
        zdot_cmd = -cfg.sink_rate_cmd  # descent positive at the interface
        theta_r_lo = theta_star + math.radians(cfg.theta_r_low_deg)
        theta_r_hi = theta_star + math.radians(cfg.theta_r_high_deg)

        opd = PitchOPD(pitch_cfg, trim)
        pid = PitchPID(pitch_cfg, trim, dt)
        vel = VelocityPID(cfg, trim, params, dt)
        sink = SinkPI(cfg, trim, dt)
        guid = GuidancePID(cfg, dt)
        use_pid = cfg.controller == "pid"
        use_truth = cfg.controller == "opd_truth"

        # descending starts carry the matching equilibrium thrust and
        # pre-loaded integrators so the path capture is bumpless
        theta0 = trim.alpha_star + gamma0
        thrust0 = trim.thrust_star
        if gamma0 != 0.0:
            drag_star = trim.thrust_star * math.cos(trim.alpha_star)
            thrust0 = max(0.0, (drag_star + params.m * params.g
                                * math.sin(gamma0)) / math.cos(trim.alpha_star))
            sink.preload((theta0 - theta_star) / cfg.ki_s)
            vel.preload((thrust0 - trim.thrust_star)
                        / (params.m * cfg.ki_v))

        obs_p = cfg._obs_params
        # concatenated state: aircraft 6, engine 1, elevator 2, observer 3,
        # heave filter 4, pitch filter 4
        y = (v_star, theta0, trim.alpha_star, 0.0, x0, z0,
             thrust0, trim.delta_e_star, 0.0,
             theta0 - theta_star, 0.0, 0.0) \
            + env.ship.heave_filter + env.ship.pitch_filter

        ship_rng = env.ship_rng
        ship_params = env.ship_params
        hold = hold_steps(cfg.dt_noise, dt)
        ship_steps = env.ship.steps
        wind_sample = env.wind.sample
        noise_sample = env.noise.sample
        guid_step, sink_step = guid.step, sink.step
        opd_step, pid_step, vel_step = opd.step, pid.step, vel.step

        # run constants, read into locals once
        sin, cos = math.sin, math.cos
        isfinite = math.isfinite
        delta_e_trim = trim.delta_e_star
        metric_skip = cfg.metric_skip_s

        # inputs held over the four RK4 stages of a step; f reads them
        # from its closure and the loop sets them once per step
        u_g = w_g = 0.0
        de_cmd = thrust_cmd = 0.0
        y_op = h_theta = 0.0
        u_h = env.ship.u_heave
        u_p = env.ship.u_pitch

        def f(_t, s):
            """Coupled derivative of the 20-state system with held inputs."""
            (sv, sth, sal, sq, _sx, _sz, st_eng, sde, sde_rate,
             sx1, sx2, sx3, h0, h1, h2, h3, p0, p1, p2, p3) = s
            return (rigid_body_derivative(sv, sth, sal, sq, sde, st_eng,
                                          u_g, w_g, model, params)
                    + actuator_derivative(st_eng, sde, sde_rate,
                                          thrust_cmd, de_cmd)
                    + observer_derivative((sx1, sx2, sx3), y_op, h_theta,
                                          obs_p)
                    + _ship_filter_derivative((h0, h1, h2, h3), u_h)
                    + _ship_filter_derivative((p0, p1, p2, p3), u_p))

        trace = Trace()
        add_row = trace.append
        # the step response: theta from trim on pitch_step, zdot from
        # level flight on sink_step
        step_response = StepResponse(
            *((0.0, zdot_cmd) if sink_scenario else (theta_star, theta_cmd)),
            dt, n_steps)
        add_sample = step_response.add
        dev_max = None
        theta_err_sq = 0.0
        theta_err_n = 0
        obs_err_sq = 0.0
        sat_e_count = 0
        sat_t_count = 0
        metrics = RunMetrics()
        abort_reason = None
        touchdown = False

        t = 0.0
        decim = cfg.trace_decimation
        try:
            for k in range(n_steps):
                (v, th, al, q, x, z, t_eng, de, de_rate,
                 ox1, ox2, ox3, h0, h1, _, _, _, _, p2, p3) = y

                # --- sample: per-step draws, held over the four RK4 stages
                u_h, u_p = held_ship_inputs(ship_steps + k, u_h, u_p, hold,
                                            ship_rng, ship_params)
                z_g, theta_s, lp_x, lp_z, xl_rate, zl_rate = deck_motion(
                    h0, h1, p2, p3)
                wind = wind_sample(k, t, x)
                noise = noise_sample(k, t)
                u_g = wind.u_g
                w_g = wind.w_g

                gamma = th - al
                theta_meas = th + noise
                y_op = theta_meas - theta_star
                zdot = v * sin(gamma) + w_g
                xdot = v * cos(gamma) + u_g

                # --- control stack (zero-order hold over the step)
                z_r = 0.0
                zdot_r = 0.0
                if approach:
                    z_r, ff = flight_path_generator(lp_x, lp_z, xl_rate,
                                                    zl_rate, x, xdot, tan_gs)
                    zdot_r = guid_step(z_r, z, ff)
                    theta_r = sink_step(zdot_r, zdot)
                elif sink_scenario:
                    zdot_r = zdot_cmd
                    theta_r = sink_step(zdot_r, zdot)
                else:
                    theta_r = theta_cmd
                if theta_r < theta_r_lo:
                    theta_r = theta_r_lo
                elif theta_r > theta_r_hi:
                    theta_r = theta_r_hi

                if use_pid:
                    de_cmd = pid_step(theta_r, theta_meas)
                elif use_truth:
                    qdot_now = state_derivative(v, th, al, q, de, t_eng, u_g,
                                                w_g, model, params)[3]
                    d_truth = qdot_now - known_input(q, de, delta_e_trim,
                                                     pitch_cfg)
                    de_cmd = opd_step(theta_r, theta_meas, q, d_truth)
                else:
                    de_cmd = opd_step(theta_r, theta_meas, ox2, ox3)

                thrust_cmd = vel_step(v_star, v)
                de_cmd, thrust_cmd, sat_e, sat_t = saturate_inputs(
                    de_cmd, thrust_cmd, params)
                h_theta = known_input(ox2, de_cmd, delta_e_trim, pitch_cfg)
                if sat_e:
                    sat_e_count += 1
                if sat_t:
                    sat_t_count += 1

                # --- record: trace row and metric accumulators, step head
                if k % decim == 0:
                    # the truth law already evaluated it this step
                    if not use_truth:
                        qdot_now = state_derivative(v, th, al, q, de, t_eng,
                                                    u_g, w_g, model, params)[3]
                    d_true = qdot_now - h_theta
                    add_row((
                        t, v, th, al, q, x, z, gamma, de, t_eng, theta_r,
                        zdot_r, z_r, ox1, ox2, ox3, d_true, u_g, w_g,
                        wind.u1, wind.u2, wind.u3, wind.w1, wind.w2, wind.w3,
                        z_g, theta_s, lp_x, lp_z, noise, sat_e, sat_t))
                    obs_err_sq += _square(ox3 - d_true)

                if approach:
                    if t >= metric_skip:
                        dev = abs(z - z_r)
                        # max()'s rule, nan included: first value, then
                        # only a greater one
                        if dev_max is None or dev > dev_max:
                            dev_max = dev
                        theta_err_sq += _square(th - theta_r)
                        theta_err_n += 1
                else:
                    add_sample(t, zdot if sink_scenario else th)

                # --- integrate the coupled derivative with held inputs
                y = rk4_step(f, y, t, dt)

                # --- project the actuator states and check finiteness
                t_eng, de, de_rate, projected = project_actuator_states(
                    y[6], y[7], y[8], params)
                if projected:
                    y = y[:6] + (t_eng, de, de_rate) + y[9:]
                # a finite sum implies finite terms; finite terms can still
                # overflow the sum, so a non-finite sum checks each term
                if not isfinite(sum(y)) and not all(map(isfinite, y)):
                    abort_reason = "non-finite state after step"
                    break

                t += dt

                if approach and y[4] >= lp_x and y[5] <= lp_z:
                    touchdown = True
                    metrics.touchdown_time = t
                    metrics.touchdown_vertical_error = lp_z - y[5]
                    break
        except (OutOfTableRange, NonFiniteDerivative) as exc:
            abort_reason = f"{type(exc).__name__}: {exc}"
        aborted = abort_reason is not None

        # ------------------------------------------------ metrics
        metrics.elevator_saturation_count = sat_e_count
        metrics.thrust_saturation_count = sat_t_count
        if trace:
            metrics.observer_rms_error = math.sqrt(obs_err_sq / len(trace))
        if approach:
            metrics.max_glidepath_deviation = dev_max
            if theta_err_n:
                metrics.pitch_ref_rms_error = math.sqrt(
                    theta_err_sq / theta_err_n)
            metrics.settled = touchdown
        else:
            step_response.into(metrics)

        return RunResult(config=self.cfg, trace=trace, metrics=metrics,
                         aborted=aborted, abort_time=t if aborted else None,
                         abort_reason=abort_reason)


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Run one scenario to completion (duration, touchdown or abort)."""
    return Simulation(config).run()


class ComparisonResult(NamedTuple):
    opd: RunResult
    pid: RunResult


def compare_controllers(config: ScenarioConfig) -> ComparisonResult:
    """Run the observer-PD and PID laws against identical environments.
    Each run's config is config with only its controller replaced by
    dataclasses.replace, which builds, and so checks, a new config."""
    return ComparisonResult(*(run_scenario(replace(config, controller=law))
                              for law in ComparisonResult._fields))


def write_trace_csv(path, trace: Trace) -> None:
    """Write a Trace as CSV: the TRACE_HEADER line, then one line a row
    with every cell printed %.10g, so the saturation flags read 0 or 1.

    Rows are read as Trace iteration unboxes them, TRACE_BLOCK_ROWS at a
    time, and each is formatted by the one template _CSV_ROW."""
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        fh.writelines(map(_CSV_ROW.__mod__, trace))
