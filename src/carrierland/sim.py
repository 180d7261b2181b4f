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
deck noise, deck motion, wind, pitch noise), control, record, integrate
(one RK4 step) and project (actuator clamps, then a finite check).
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

A ScenarioConfig is frozen and checked as it is built: by
config_from_dict, by its constructor, or by dataclasses.replace, which
derives compare's run of each law and sweep's run of each seed.

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
from operator import attrgetter
from typing import Callable, NamedTuple

from .airframe import (AeroModel, AircraftParams, NonFiniteDerivative,
                       OutOfTableRange, default_aero_model,
                       rigid_body_derivative, state_derivative)
from .actuation import (actuator_derivative, project_actuator_states,
                        saturate_inputs)
from .control import (GuidancePID, OuterGains, PitchGains, PitchOPD,
                      PitchPID, SinkPI, VelocityPID, flight_path_generator,
                      known_input, notch_coefficients)
from .environment import (DEFAULT_DT_NOISE, DEFAULT_PITCH_NOISE_DT,
                          DEFAULT_SHIP_NOISE_GAIN, DEFAULT_WAKE_EXTENT,
                          Environment, deck_motion,
                          _ship_filter_derivative, held_noise_scales,
                          held_ship_inputs, hold_steps, wake_phase)
from .integrate import rk4_step
from .observer import ObserverParams, observer_derivative
from .trimlin import TrimNotConverged, TrimPoint, linearize, solve_trim

TRACE_HEADER = (
    "t", "v_t", "theta", "alpha", "q", "x", "z", "gamma", "delta_e",
    "thrust", "theta_r", "zdot_r", "z_r", "x1", "x2", "x3", "d_true",
    "u_g", "w_g", "u1", "u2", "u3", "w1", "w2", "w3", "z_g", "theta_s",
    "x_l", "z_l", "noise", "sat_elev", "sat_thr",
)

SCENARIOS = ("pitch_step", "sink_step", "approach")
CONTROLLERS = ("opd", "pid", "opd_truth")

_DEFAULT_DURATION = {"pitch_step": 10.0, "sink_step": 20.0, "approach": 90.0}

# most integration steps a run or its ship warm-up may ask for; a tiny
# positive dt would otherwise ask for a run that never ends
MAX_STEPS = 1e8


class ConfigError(ValueError):
    """A scenario configuration field violates its constraint."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "pitch_step"
    controller: str = "opd"
    wind_on: bool = False
    noise_on: bool = False
    ship_on: bool = True
    seed: int = 0
    duration: float | None = None      # None: scenario default
    dt: float = 0.001
    initial_range: float = 2000.0      # m ahead of the landing point
    initial_altitude: float = 300.0    # m, pitch/sink scenarios
    pitch_step_deg: float = 1.0
    sink_rate_cmd: float = 10.0        # m/s, descent positive
    glide_slope_deg: float = 3.5
    trace_decimation: int = 10
    ship_warmup_s: float = 60.0
    metric_skip_s: float = 5.0         # transient excluded from path metrics
    dt_noise: float = DEFAULT_DT_NOISE
    noise_dt: float = DEFAULT_PITCH_NOISE_DT  # hold of the pitch-noise sensor
    ship_noise_gain: float = DEFAULT_SHIP_NOISE_GAIN
    v_wd: float = 10.0
    turb_norm: float = 0.5
    wake_extent: float = DEFAULT_WAKE_EXTENT
    t_max: float | None = None         # thrust-limit override, N
    aero_model_path: str | None = None
    use_local_partials: bool = False   # pitch laws use the recomputed Jacobian
    theta_r_low_deg: float = -12.0    # pitch-command clamp about trim
    theta_r_high_deg: float = 8.0
    obs_k1: float = ObserverParams.k1
    obs_k2: float = ObserverParams.k2
    obs_k3: float = ObserverParams.k3
    obs_alpha1: float = ObserverParams.alpha1
    obs_epsilon: float = ObserverParams.epsilon
    pitch: PitchGains = PitchGains()
    outer: OuterGains = OuterGains()

    def resolved_duration(self) -> float:
        if self.duration is not None:
            return self.duration
        return _DEFAULT_DURATION[self.scenario]

    def __post_init__(self):
        """Raise a one-line ConfigError naming the key unless every value
        lies in its CONFIG_KEYS domain and the rules across keys hold: dt
        divides the noise holds; the run and the ship warm-up take at most
        MAX_STEPS steps; theta_r_low_deg <= theta_r_high_deg; the approach,
        which preloads integrators through 1 / ki, has vel.ki and sink.ki
        nonzero; a sink step has a nonzero command; with wind on, v_wd > 0
        and wake_phase(duration, wake_extent, v_wd), which bounds the run's
        wake phases, is finite; the held noise sigmas of the ship and the
        wind, each while on, are finite; an enabled sink notch has finite
        coefficients at dt; and the observer parameters, their injection
        gains included, are valid.  Keeps the run's observer
        parameters, built by that last check, as _obs_params.  Reads no
        file: the aero model file is load_aero_model's to check, where
        the run is built."""
        _check_domains(self)
        dt = self.dt
        for key in ("dt_noise", "noise_dt"):
            # each noise sample is held for a whole number of steps
            steps = getattr(self, key) / dt
            if steps < 1.0:
                raise ConfigError(f"{key} must be >= dt")
            if not math.isfinite(steps):
                raise ConfigError(f"{key} / dt must be finite")
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ConfigError(f"dt must divide {key}")
        for key, span in (("duration", self.resolved_duration()),
                          ("ship_warmup_s", self.ship_warmup_s)):
            if span / dt > MAX_STEPS:
                raise ConfigError(f"{key} / dt must be <= {MAX_STEPS:g} "
                                  "steps")
        if not self.theta_r_low_deg <= self.theta_r_high_deg:
            raise ConfigError("theta_r_low_deg must be <= theta_r_high_deg")
        if self.scenario == "approach" and (self.outer.ki_v == 0.0
                                            or self.outer.ki_s == 0.0):
            raise ConfigError("vel.ki and sink.ki must be nonzero for "
                              "approach")
        if self.scenario == "sink_step" and self.sink_rate_cmd == 0.0:
            raise ConfigError("sink_rate_cmd must be nonzero for sink_step")
        if self.wind_on and not self.v_wd > 0.0:
            raise ConfigError("v_wd must be > 0 when wind is on")
        if self.wind_on and not math.isfinite(wake_phase(
                self.resolved_duration(), self.wake_extent, self.v_wd)):
            raise ConfigError("wake_extent / v_wd or duration is too large: "
                              "the wake phase is not finite with wind on")
        for source, on, key in (("ship", self.ship_on, "ship_noise_gain"),
                                ("wind", self.wind_on, "turb_norm")):
            sigmas = held_noise_scales(source, self.dt_noise,
                                       getattr(self, key))
            if on and not all(map(math.isfinite, sigmas)):
                unscaled = held_noise_scales(source, self.dt_noise, 1.0)
                problem = (f"{key} is too large"
                           if all(map(math.isfinite, unscaled))
                           else "dt_noise is too small")
                raise ConfigError(f"{problem}: the held {source} noise's "
                                  f"sigmas at dt_noise = {self.dt_noise!r} "
                                  "are not finite")
        omega, zeta = self.outer.sink_notch_omega, self.outer.sink_notch_zeta
        if omega > 0.0 and not _finite_notch(omega, zeta, dt):
            # (2 / dt)^2 overflows exactly when the coefficients of the
            # zero notch do; zeta only scales the damping terms, which
            # vanish at zeta = 0
            if not _finite_notch(0.0, 0.0, dt):
                raise ConfigError(f"dt is too small: the sink notch's "
                                  f"coefficients at dt = {dt!r} are not "
                                  "finite")
            key = ("sink.notch_zeta" if _finite_notch(omega, 0.0, dt)
                   else "sink.notch_omega")
            raise ConfigError(f"{key} is too large: the sink notch's "
                              f"coefficients at dt = {dt!r} are not finite")
        try:
            obs_params = ObserverParams(self.obs_k1, self.obs_k2, self.obs_k3,
                                        self.obs_alpha1, self.obs_epsilon)
        except ValueError as exc:
            raise ConfigError(f"obs.*: {exc}") from exc
        object.__setattr__(self, "_obs_params", obs_params)


def _finite_notch(omega: float, zeta: float, dt: float) -> bool:
    b, a = notch_coefficients(omega, zeta, dt)
    return all(map(math.isfinite, b + a))


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


_MAX = math.nextafter(math.inf, 0.0)   # the largest float


class Domain(NamedTuple):
    """The values of a config key: numbers lo <= v <= hi, so "> 0" is
    lo = 5e-324, or, where `test` is set, what it passes; and None where
    nullable.  `text` states the domain in errors and in `run --help`."""
    text: str
    lo: float = -_MAX
    hi: float = _MAX
    test: Callable[[object], bool] | None = None
    nullable: bool = False

    def error(self, key: str, value) -> str:
        message = f"{key} must be {self.text}"
        below, _, above = self.text.rpartition(" and ")
        if below and isinstance(value, float) and value > self.hi:
            return f"{key} must be {above} ({message})"  # the bound broken
        return message


_FINITE = Domain("finite")
_POSITIVE = Domain("> 0 and finite", math.ulp(0.0))
_NON_NEGATIVE = Domain(">= 0 and finite", 0.0)
# a time constant or a clamp: inf freezes the filter or lifts the clamp
_AT_LEAST_ZERO = Domain(">= 0", 0.0, math.inf)
_UNIT = Domain("> 0 and < 1", math.ulp(0.0), math.nextafter(1.0, 0.0))
_ON_OFF = Domain("on or off", False, True)
_POSITIVE_OR_NULL = Domain("> 0 and finite, or null", math.ulp(0.0),
                           nullable=True)


class ConfigKey(NamedTuple):
    """A config key's dotted attribute path, type and domain."""
    path: str
    typ: type
    domain: Domain


# Dotted override keys accepted by config files and the CLI, mapped to
# (attribute path, type, domain).  This registry is the single
# source of truth for serialization and validation.
CONFIG_KEYS: dict[str, ConfigKey] = {key: ConfigKey(*entry) for key, entry in {
    "scenario": ("scenario", str, Domain(f"one of {SCENARIOS}",
                                         test=SCENARIOS.__contains__)),
    "controller": ("controller", str, Domain(f"one of {CONTROLLERS}",
                                             test=CONTROLLERS.__contains__)),
    "wind_on": ("wind_on", bool, _ON_OFF),
    "noise_on": ("noise_on", bool, _ON_OFF),
    "ship_on": ("ship_on", bool, _ON_OFF),
    "seed": ("seed", int, Domain(">= 0", 0, math.inf)),
    "duration": ("duration", float, _POSITIVE_OR_NULL),
    "dt": ("dt", float, _POSITIVE),
    "initial_range": ("initial_range", float, _POSITIVE),
    "initial_altitude": ("initial_altitude", float, _FINITE),
    "pitch_step_deg": ("pitch_step_deg", float, _FINITE),
    "sink_rate_cmd": ("sink_rate_cmd", float, _FINITE),
    "glide_slope_deg": ("glide_slope_deg", float, _FINITE),
    "theta_r_low_deg": ("theta_r_low_deg", float, _FINITE),
    "theta_r_high_deg": ("theta_r_high_deg", float, _FINITE),
    "trace_decimation": ("trace_decimation", int, Domain(">= 1", 1, math.inf)),
    "ship_warmup_s": ("ship_warmup_s", float, _NON_NEGATIVE),
    "metric_skip_s": ("metric_skip_s", float, _FINITE),
    "dt_noise": ("dt_noise", float, _FINITE),
    "noise_dt": ("noise_dt", float, _FINITE),
    # numpy rejects a negative scale, -0.0 included
    "ship_noise_gain": ("ship_noise_gain", float, Domain(
        ">= +0.0 and finite", 0.0,
        test=lambda v: math.copysign(1.0, v) > 0.0 and v <= _MAX)),
    "v_wd": ("v_wd", float, _FINITE),
    "turb_norm": ("turb_norm", float, _NON_NEGATIVE),
    "wake_extent": ("wake_extent", float, _FINITE),
    "t_max": ("t_max", float, _POSITIVE_OR_NULL),
    "aero_model_path": ("aero_model_path", str, Domain(
        "a JSON aero model file, or null", nullable=True,
        test=lambda v: isinstance(v, str))),
    "use_local_partials": ("use_local_partials", bool, _ON_OFF),
    "obs.k1": ("obs_k1", float, _POSITIVE),
    "obs.k2": ("obs_k2", float, _FINITE),
    "obs.k3": ("obs_k3", float, _POSITIVE),
    "obs.alpha1": ("obs_alpha1", float, _UNIT),
    "obs.epsilon": ("obs_epsilon", float, _UNIT),
    "pitch.kp": ("pitch.kp_theta", float, _FINITE),
    "pitch.kd": ("pitch.kd_theta", float, _FINITE),
    "pitch.dqdot_dq": ("pitch.dqdot_dq", float, _FINITE),
    "pitch.dqdot_dde": ("pitch.dqdot_dde", float, Domain(
        "nonzero and finite", test=lambda v: v != 0.0 and -_MAX <= v <= _MAX)),
    "pid.kp": ("pitch.kp_theta2", float, _FINITE),
    "pid.ki": ("pitch.ki_theta", float, _FINITE),
    "pid.kd": ("pitch.kd_theta2", float, _FINITE),
    "pid.tau": ("pitch.rate_filter_tau", float, _AT_LEAST_ZERO),
    "vel.kp": ("outer.kp_v", float, _FINITE),
    "vel.ki": ("outer.ki_v", float, _FINITE),
    "vel.kd": ("outer.kd_v", float, _FINITE),
    "sink.kp": ("outer.kp_s", float, _FINITE),
    "sink.ki": ("outer.ki_s", float, _FINITE),
    "sink.tau": ("outer.sink_filter_tau", float, _AT_LEAST_ZERO),
    "sink.notch_omega": ("outer.sink_notch_omega", float, _NON_NEGATIVE),
    "sink.notch_zeta": ("outer.sink_notch_zeta", float, _NON_NEGATIVE),
    "guid.kp": ("outer.kp_z", float, _FINITE),
    "guid.ki": ("outer.ki_z", float, _FINITE),
    "guid.kd": ("outer.kd_z", float, _FINITE),
    "guid.tau": ("outer.deriv_filter_tau", float, _AT_LEAST_ZERO),
    "integrator_limit": ("outer.integrator_limit", float, _AT_LEAST_ZERO),
}.items()}

_VALUES = attrgetter(*(entry.path for entry in CONFIG_KEYS.values()))


def _check_domains(c) -> None:
    """Raise ConfigError(domain.error(key, v)) for the first key, in
    CONFIG_KEYS order, whose value v lies outside its domain; None passes
    a nullable key."""
    for (key, entry), v in zip(CONFIG_KEYS.items(), _VALUES(c)):
        d = entry.domain
        if v is None and d.nullable:
            continue
        if not (d.test(v) if d.test else d.lo <= v <= d.hi):
            raise ConfigError(d.error(key, v))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Flat, canonical key-value form of a configuration."""
    return dict(zip(CONFIG_KEYS, _VALUES(cfg)))


def config_from_dict(*layers: dict) -> ScenarioConfig:
    """Build a configuration once from the defaults and layers of
    canonical keys, a later layer overriding an earlier one.  A layer
    with an unknown key is rejected before any of its values is parsed;
    every value is parsed by parse_config_value in turn, and then the
    config is built a single time, which checks it."""
    groups: dict = {"": {}, "pitch": {}, "outer": {}}   # by path head
    for d in layers:
        unknown = [k for k in d if k not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid keys: "
                              f"{sorted(CONFIG_KEYS)}")
        for key, value in d.items():
            head, _, leaf = CONFIG_KEYS[key].path.rpartition(".")
            groups[head][leaf] = parse_config_value(key, value)
    return ScenarioConfig(**groups[""], pitch=PitchGains(**groups["pitch"]),
                          outer=OuterGains(**groups["outer"]))


def parse_config_value(key: str, value):
    """value as a known key's type: a bool key takes a bool or an on/off
    string, an int key no fraction, a number key no bool, and only a
    nullable key null; building the config checks the domain."""
    _, typ, domain = CONFIG_KEYS[key]
    if value is None:
        if not domain.nullable:
            raise ConfigError(f"{key} may not be null")
    elif typ is bool:
        low = value.strip().lower() if isinstance(value, str) else None
        if low in ("1", "true", "on", "yes"):
            value = True
        elif low in ("0", "false", "off", "no"):
            value = False
        elif not isinstance(value, bool):
            raise ConfigError(f"{key}: cannot parse {value!r} as on/off")
    elif typ is not str and isinstance(value, bool) or (
            typ is int and isinstance(value, float)
            and not value.is_integer()):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {value!r}")
    else:
        try:
            value = typ(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return value


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
        self.gains = config.pitch
        if config.use_local_partials:
            try:
                linear = linearize(self.trim, params, self.model)
            except OverflowError as exc:
                raise ConfigError(f"use_local_partials: {exc}") from exc
            if linear.dqdot_dde_deg == 0.0:   # the pitch laws divide by it
                raise ConfigError("use_local_partials: the linearized "
                                  "pitch.dqdot_dde at trim is 0")
            self.gains = replace(config.pitch, dqdot_dq=linear.dqdot_dq,
                                 dqdot_dde=linear.dqdot_dde_deg)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        cfg = self.cfg
        params = self.params
        model = self.model
        trim = self.trim
        gains = self.gains
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

        outer = cfg.outer
        opd = PitchOPD(gains, trim)
        pid = PitchPID(gains, trim, outer.integrator_limit, dt)
        vel = VelocityPID(outer, trim, params, dt)
        sink = SinkPI(outer, trim, dt)
        guid = GuidancePID(outer, dt)
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
            sink.preload((theta0 - theta_star) / outer.ki_s)
            vel.preload((thrust0 - trim.thrust_star)
                        / (params.m * outer.ki_v))

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
        ship_since_draw = env.ship.steps_since_draw
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
                ship_since_draw, u_h, u_p = held_ship_inputs(
                    ship_since_draw, u_h, u_p, hold, ship_rng, ship_params)
                z_g, theta_s, lp_x, lp_z, xl_rate, zl_rate = deck_motion(
                    h0, h1, p2, p3)
                wind = wind_sample(t, x)
                noise = noise_sample(t)
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
                                                     gains)
                    de_cmd = opd_step(theta_r, theta_meas, q, d_truth)
                else:
                    de_cmd = opd_step(theta_r, theta_meas, ox2, ox3)

                thrust_cmd = vel_step(v_star, v)
                de_cmd, thrust_cmd, sat_e, sat_t = saturate_inputs(
                    de_cmd, thrust_cmd, params)
                h_theta = known_input(ox2, de_cmd, delta_e_trim, gains)
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
