"""
The checked configuration of a run.

A ScenarioConfig is frozen and checked as it is built: by
config_from_dict, by its constructor, or by dataclasses.replace, which
derives compare's run of each law and sweep's run of each seed.

Each config key is declared once, as a field made by key(): the field's
annotation is the key's type, and its metadata holds the key's domain
and, where it is not the field's name, the key's name.  The control
laws' gains and pitch partials are fields like any other, and each law
is built from the run's config.  CONFIG_KEYS walks the fields of
ScenarioConfig, so field order is key order: the order in which values
are checked and written, and so which bad key an error names first.
The rules across keys are code, in __post_init__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, NamedTuple

from .control import notch_coefficients
from .environment import (DEFAULT_DT_NOISE, DEFAULT_PITCH_NOISE_DT,
                          DEFAULT_SHIP_NOISE_GAIN, DEFAULT_WAKE_EXTENT,
                          held_noise_scales, wake_phase)
from .observer import ObserverParams

SCENARIOS = ("pitch_step", "sink_step", "approach")
CONTROLLERS = ("opd", "pid", "opd_truth")

_DEFAULT_DURATION = {"pitch_step": 10.0, "sink_step": 20.0, "approach": 90.0}

# most integration steps a run or its ship warm-up may ask for; a tiny
# positive dt would otherwise ask for a run that never ends
MAX_STEPS = 1e8


class ConfigError(ValueError):
    """A scenario configuration field violates its constraint."""


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


def key(domain: Domain, default, name: str | None = None):
    """A config field: its default, its key's domain, and its key's name
    where that is not the field's name."""
    return field(default=default, metadata={"key": name, "domain": domain})


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = key(Domain(f"one of {SCENARIOS}",
                               test=SCENARIOS.__contains__), "pitch_step")
    controller: str = key(Domain(f"one of {CONTROLLERS}",
                                 test=CONTROLLERS.__contains__), "opd")
    wind_on: bool = key(_ON_OFF, False)
    noise_on: bool = key(_ON_OFF, False)
    ship_on: bool = key(_ON_OFF, True)
    seed: int = key(Domain(">= 0", 0, math.inf), 0)
    duration: float | None = key(_POSITIVE_OR_NULL, None)  # None: by scenario
    dt: float = key(_POSITIVE, 0.001)
    initial_range: float = key(_POSITIVE, 2000.0)  # m to the landing point
    initial_altitude: float = key(_FINITE, 300.0)  # m, pitch/sink scenarios
    pitch_step_deg: float = key(_FINITE, 1.0)
    sink_rate_cmd: float = key(_FINITE, 10.0)      # m/s, descent positive
    glide_slope_deg: float = key(_FINITE, 3.5)
    theta_r_low_deg: float = key(_FINITE, -12.0)   # theta_r clamp about trim
    theta_r_high_deg: float = key(_FINITE, 8.0)
    trace_decimation: int = key(Domain(">= 1", 1, math.inf), 10)
    ship_warmup_s: float = key(_NON_NEGATIVE, 60.0)
    metric_skip_s: float = key(_FINITE, 5.0)  # transient the path metrics skip
    dt_noise: float = key(_FINITE, DEFAULT_DT_NOISE)
    noise_dt: float = key(_FINITE, DEFAULT_PITCH_NOISE_DT)  # pitch-noise hold
    # numpy rejects a negative scale, -0.0 included
    ship_noise_gain: float = key(Domain(
        ">= +0.0 and finite", 0.0,
        test=lambda v: math.copysign(1.0, v) > 0.0 and v <= _MAX),
        DEFAULT_SHIP_NOISE_GAIN)
    v_wd: float = key(_FINITE, 10.0)
    turb_norm: float = key(_NON_NEGATIVE, 0.5)
    wake_extent: float = key(_FINITE, DEFAULT_WAKE_EXTENT)
    t_max: float | None = key(_POSITIVE_OR_NULL, None)  # thrust-limit override
    aero_model_path: str | None = key(Domain(
        "a JSON aero model file, or null", nullable=True,
        test=lambda v: isinstance(v, str)), None)
    # the pitch laws take their partials from the linearization at trim
    use_local_partials: bool = key(_ON_OFF, False)
    obs_k1: float = key(_POSITIVE, ObserverParams.k1, "obs.k1")
    obs_k2: float = key(_FINITE, ObserverParams.k2, "obs.k2")
    obs_k3: float = key(_POSITIVE, ObserverParams.k3, "obs.k3")
    obs_alpha1: float = key(_UNIT, ObserverParams.alpha1, "obs.alpha1")
    obs_epsilon: float = key(_UNIT, ObserverParams.epsilon, "obs.epsilon")
    kp_theta: float = key(_FINITE, 88.89, "pitch.kp")     # observer-PD
    kd_theta: float = key(_FINITE, 26.5186, "pitch.kd")
    dqdot_dq: float = key(_FINITE, -0.15, "pitch.dqdot_dq")  # plant, 1/s
    dqdot_dde: float = key(Domain(   # plant, rad s^-2 per deg of elevator
        "nonzero and finite", test=lambda v: v != 0.0 and -_MAX <= v <= _MAX),
        -0.015, "pitch.dqdot_dde")
    kp_theta2: float = key(_FINITE, 57.01, "pid.kp")      # PID baseline
    ki_theta: float = key(_FINITE, 50.0, "pid.ki")
    kd_theta2: float = key(_FINITE, 17.19, "pid.kd")
    rate_filter_tau: float = key(_AT_LEAST_ZERO, 0.01, "pid.tau")   # s
    kp_v: float = key(_FINITE, 1.2, "vel.kp")
    ki_v: float = key(_FINITE, 0.4, "vel.ki")
    kd_v: float = key(_FINITE, 0.5, "vel.kd")
    kp_s: float = key(_FINITE, 0.0061, "sink.kp")
    ki_s: float = key(_FINITE, 0.018, "sink.ki")
    sink_filter_tau: float = key(_AT_LEAST_ZERO, 0.0, "sink.tau")  # s, 0: off
    # notch on the sink error at the wake ripple frequency seen by the
    # closing aircraft (pattern pumping Doppler-shifted by the closure
    # rate), rad/s; 0 disables
    sink_notch_omega: float = key(_NON_NEGATIVE, 7.1, "sink.notch_omega")
    sink_notch_zeta: float = key(_NON_NEGATIVE, 0.25, "sink.notch_zeta")
    kp_z: float = key(_FINITE, 0.3, "guid.kp")
    ki_z: float = key(_FINITE, 0.02, "guid.ki")
    kd_z: float = key(_FINITE, 0.3, "guid.kd")
    deriv_filter_tau: float = key(_AT_LEAST_ZERO, 0.05, "guid.tau")  # s
    integrator_limit: float = key(_AT_LEAST_ZERO, 10.0)  # per-integrator clamp

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
        if self.scenario == "approach" and (self.ki_v == 0.0
                                            or self.ki_s == 0.0):
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
        omega, zeta = self.sink_notch_omega, self.sink_notch_zeta
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


class ConfigKey(NamedTuple):
    """A config key's ScenarioConfig attribute, type and domain."""
    path: str
    typ: type
    domain: Domain


_TYPES = {"bool": bool, "int": int, "float": float, "str": str}


# Dotted override keys accepted by config files and the CLI, mapped to
# (attribute name, type, domain), derived from the fields' declarations
# in field order; read by serialization, parsing and validation.
CONFIG_KEYS: dict[str, ConfigKey] = {
    f.metadata["key"] or f.name: ConfigKey(
        f.name, _TYPES[f.type.removesuffix(" | None")], f.metadata["domain"])
    for f in fields(ScenarioConfig)}

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
    values = {}
    for d in layers:
        unknown = [k for k in d if k not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid keys: "
                              f"{sorted(CONFIG_KEYS)}")
        for key, value in d.items():
            values[CONFIG_KEYS[key].path] = parse_config_value(key, value)
    return ScenarioConfig(**values)


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
