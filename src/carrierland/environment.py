"""
Stochastic environment: carrier deck motion, landing-point kinematics,
air-wake wind and pitch measurement noise.  Everything is driven by
named RNG sub-streams derived from one run seed, so each source can be
toggled without disturbing the samples the others draw.

Ship motion.  Heave z_g and deck pitch theta_s come from two
fourth-order shaping filters sharing the denominator

    s^4 + 2.08 s^3 + 1.32 s^2 + 0.4 s + 0.16

with numerators 1.21 (heave) and 0.773 s^2 (pitch), realized in
controllable canonical form and driven by zero-order-held Gaussian
noise.  The nominal noise powers are +4.5 dB (heave) and -20 dB
(pitch); a common input gain (default 0.16) calibrates the long-run
extremes to roughly 4 m of heave and 3 deg of deck pitch, matching the
published sea-state targets for this filter set.

Landing point.  The touchdown point sits 81 m aft of the ship's centre
of mass:  x_L = x_G - 81 cos(theta_s),  z_L = z_G - 81 sin(theta_s).

Wind.  Total gust (u_g, w_g) sums free-air turbulence (u1, w1) shaped
by first-order low-pass filters matched to the spatial spectra
200/(1+(100 Ohm)^2) and 71.6/(1+(100 Ohm)^2), a steady wake profile
(u2, w2) linear in the distance X ahead of the ship's pitch centre, and
a periodic wake component (u3, w3) phase-locked to the deck-pitch
frequency.  Wake terms vanish outside 0 <= X < 914 m.  The random wake
component is omitted.

Measurement noise.  Pitch measurement noise is 0.001 sin(7 t) plus
zero-order-held Gaussian noise of power -60 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SHIP_DENOM = (2.08, 1.32, 0.4, 0.16)   # s^3, s^2, s^1, s^0 coefficients
SHIP_HEAVE_NUM = 1.21
SHIP_PITCH_NUM = 0.773                 # multiplies s^2
LANDING_POINT_OFFSET = 81.0            # m aft of the centre of mass

DEFAULT_DT_NOISE = 0.1                 # s, zero-order hold for all white sources
DEFAULT_SHIP_NOISE_GAIN = 0.16         # calibrated amplitude factor, see module doc
SHIP_HEAVE_POWER_DB = 4.5
SHIP_PITCH_POWER_DB = -20.0
PITCH_NOISE_POWER_DB = -60.0


def _held_sigma(power_db: float, dt_noise: float) -> float:
    return math.sqrt(10.0 ** (power_db / 10.0) / dt_noise)


@dataclass
class ShipParams:
    x_g: float = 0.0                       # ship centre of mass, m (speed 0)
    dt_noise: float = DEFAULT_DT_NOISE
    noise_gain: float = DEFAULT_SHIP_NOISE_GAIN
    heave_power_db: float = SHIP_HEAVE_POWER_DB
    pitch_power_db: float = SHIP_PITCH_POWER_DB


@dataclass
class ShipState:
    heave_filter: tuple = (0.0, 0.0, 0.0, 0.0)
    pitch_filter: tuple = (0.0, 0.0, 0.0, 0.0)
    u_heave: float = 0.0                   # held white-noise inputs
    u_pitch: float = 0.0
    steps_since_draw: int = -1

    # the filter outputs, as deck_motion forms them; kept as plain
    # expressions because long deck runs read them every step
    @property
    def z_g(self) -> float:
        return SHIP_HEAVE_NUM * self.heave_filter[0]

    @property
    def theta_s(self) -> float:
        return SHIP_PITCH_NUM * self.pitch_filter[2]


class WindSample(NamedTuple):
    """Total gust (u_g, w_g) and its components, inertial axes, m/s."""

    u_g: float
    w_g: float
    u1: float = 0.0
    u2: float = 0.0
    u3: float = 0.0
    w1: float = 0.0
    w2: float = 0.0
    w3: float = 0.0


CALM = WindSample(0.0, 0.0)


def deck_motion(h0, h1, p2, p3, x_g):
    """Deck attitude and landing point from the deck-filter states.

    Takes the heave filter's first two states (h0, h1), the pitch
    filter's last two (p2, p3) and the ship's centre of mass x_g.
    Returns (z_g, theta_s, x_l, z_l, x_l', z_l'): heave, deck pitch, the
    landing point and its rates.
    """
    z_g = SHIP_HEAVE_NUM * h0
    theta_s = SHIP_PITCH_NUM * p2
    sin_s = math.sin(theta_s)
    cos_s = math.cos(theta_s)
    theta_s_rate = SHIP_PITCH_NUM * p3
    return (z_g, theta_s,
            x_g - LANDING_POINT_OFFSET * cos_s,
            z_g - LANDING_POINT_OFFSET * sin_s,
            LANDING_POINT_OFFSET * sin_s * theta_s_rate,
            SHIP_HEAVE_NUM * h1 - LANDING_POINT_OFFSET * cos_s * theta_s_rate)


def held_ship_inputs(k, u_heave, u_pitch, hold, rng, p: ShipParams):
    """Advance the held white-noise inputs of the deck filters one step.

    k counts the steps since the last draw (-1: none yet).  When the
    hold of `hold` steps runs out, both inputs are redrawn from rng, or
    kept when rng is None (ship motion off).  Returns
    (k, u_heave, u_pitch).
    """
    if k < 0 or k + 1 >= hold:
        if rng is not None:
            u_heave = rng.normal(
                0.0, _held_sigma(p.heave_power_db, p.dt_noise) * p.noise_gain)
            u_pitch = rng.normal(
                0.0, _held_sigma(p.pitch_power_db, p.dt_noise) * p.noise_gain)
        return 0, u_heave, u_pitch
    return k + 1, u_heave, u_pitch


def _ship_filter_derivative(x, u):
    a3, a2, a1, a0 = SHIP_DENOM
    return (x[1], x[2], x[3],
            u - a0 * x[0] - a1 * x[1] - a2 * x[2] - a3 * x[3])


def _ship_filter_rk4(x, u, dt):
    # unrolled RK4 of the canonical-form filter; hot path of long runs
    a3, a2, a1, a0 = SHIP_DENOM
    x0, x1, x2, x3 = x
    half = 0.5 * dt

    k10, k11, k12 = x1, x2, x3
    k13 = u - a0 * x0 - a1 * x1 - a2 * x2 - a3 * x3

    y0 = x0 + half * k10; y1 = x1 + half * k11
    y2 = x2 + half * k12; y3 = x3 + half * k13
    k20, k21, k22 = y1, y2, y3
    k23 = u - a0 * y0 - a1 * y1 - a2 * y2 - a3 * y3

    y0 = x0 + half * k20; y1 = x1 + half * k21
    y2 = x2 + half * k22; y3 = x3 + half * k23
    k30, k31, k32 = y1, y2, y3
    k33 = u - a0 * y0 - a1 * y1 - a2 * y2 - a3 * y3

    y0 = x0 + dt * k30; y1 = x1 + dt * k31
    y2 = x2 + dt * k32; y3 = x3 + dt * k33
    k40, k41, k42 = y1, y2, y3
    k43 = u - a0 * y0 - a1 * y1 - a2 * y2 - a3 * y3

    sixth = dt / 6.0
    return (x0 + sixth * (k10 + 2.0 * (k20 + k30) + k40),
            x1 + sixth * (k11 + 2.0 * (k21 + k31) + k41),
            x2 + sixth * (k12 + 2.0 * (k22 + k32) + k42),
            x3 + sixth * (k13 + 2.0 * (k23 + k33) + k43))


def ship_step(state: ShipState, dt: float, rng: np.random.Generator,
              params: ShipParams | None = None) -> ShipState:
    """Advance both deck-motion filters one RK4 step of size dt.

    White-noise inputs are redrawn every dt_noise seconds and held in
    between; dt must divide dt_noise.
    """
    p = params or ShipParams()
    k, u_h, u_p = held_ship_inputs(state.steps_since_draw, state.u_heave,
                                   state.u_pitch, max(1, round(p.dt_noise / dt)),
                                   rng, p)
    hf = _ship_filter_rk4(state.heave_filter, u_h, dt)
    pf = _ship_filter_rk4(state.pitch_filter, u_p, dt)
    return ShipState(heave_filter=hf, pitch_filter=pf,
                     u_heave=u_h, u_pitch=u_p, steps_since_draw=k)


@dataclass
class WindParams:
    v_wd: float = 10.0                  # wind over deck, m/s
    u1_psd: float = 200.0               # spatial PSD heights
    w1_psd: float = 71.6
    length_scale: float = 100.0         # spatial corner: Omega = omega/V
    # turbulence sigma^2 = turb_norm * psd / length_scale; the default
    # 0.5 is the two-sided rad/m spectral convention, giving
    # sigma_u1 = 1.0 m/s and sigma_w1 = 0.60 m/s (pi/2 would treat the
    # integral as one-sided, scaling both up by sqrt(pi))
    turb_norm: float = 0.5
    omega_p: float = 1.25               # periodic wake frequency, rad/s
    theta_s_amp: float = 0.05           # deck-pitch amplitude used by the wake, rad
    wake_extent: float = 914.0          # m; wake terms are zero beyond this
    dt_noise: float = DEFAULT_DT_NOISE


def wake_steady(x_dist: float, wake_extent: float = 914.0):
    """Steady wake components (u2, w2) at distance X ahead of the pitch centre."""
    if 0.0 < x_dist < wake_extent:
        u2 = 0.002 * x_dist
    else:
        u2 = 0.0
    if 0.0 <= x_dist < wake_extent:
        w2 = -1.0 + 0.0013 * x_dist
    else:
        w2 = 0.0
    return u2, w2


def wake_periodic(t: float, x_dist: float, p: WindParams):
    """Periodic wake components (u3, w3), zero outside the wake extent."""
    if not 0.0 <= x_dist < p.wake_extent:
        return 0.0, 0.0
    c = math.cos(p.omega_p * (2.28 * t + x_dist / (0.85 * p.v_wd)) + 0.1)
    scale = p.theta_s_amp * p.v_wd
    u3 = scale * (2.22 + 0.000091 * x_dist) * c
    w3 = scale * (4.98 + 0.0018 * x_dist) * c
    return u3, w3


class WindField:
    """Stateful wind model: turbulence filters plus wake terms.

    The turbulence filters are exact zero-order-hold discretizations of
    first-order lags with corner frequency v_ref/length_scale, scaled so
    the stationary output variance matches the spatial-spectrum level
    (sigma^2 = turb_norm * psd / length_scale; see WindParams.turb_norm,
    default 0.5).
    """

    def __init__(self, params: WindParams, rng_u: np.random.Generator,
                 rng_w: np.random.Generator, dt: float, v_ref: float,
                 enabled: bool = True):
        self.p = params
        self.rng_u = rng_u
        self.rng_w = rng_w
        self.dt = dt
        self.enabled = enabled
        tau = params.length_scale / v_ref
        self._phi = math.exp(-dt / tau)
        self._hold_steps = max(1, round(params.dt_noise / dt))
        self._since_draw = -1
        sigma_u = math.sqrt(params.turb_norm * params.u1_psd / params.length_scale)
        sigma_w = math.sqrt(params.turb_norm * params.w1_psd / params.length_scale)
        # input gain giving the target stationary output variance
        self._gain_u = sigma_u * math.sqrt(2.0 * tau)
        self._gain_w = sigma_w * math.sqrt(2.0 * tau)
        self._in_sigma = math.sqrt(1.0 / params.dt_noise)
        self._held_u = 0.0
        self._held_w = 0.0
        self.u1 = 0.0
        self.w1 = 0.0

    def sample(self, t: float, aircraft_x: float, ship_x: float) -> WindSample:
        """Advance the turbulence filters by dt and sample the total wind."""
        if self._since_draw < 0 or self._since_draw + 1 >= self._hold_steps:
            self._held_u = self.rng_u.normal(0.0, self._in_sigma)
            self._held_w = self.rng_w.normal(0.0, self._in_sigma)
            self._since_draw = 0
        else:
            self._since_draw += 1
        phi = self._phi
        self.u1 = phi * self.u1 + (1.0 - phi) * self._gain_u * self._held_u
        self.w1 = phi * self.w1 + (1.0 - phi) * self._gain_w * self._held_w
        if not self.enabled:
            return CALM
        x_dist = ship_x - aircraft_x
        u2, w2 = wake_steady(x_dist, self.p.wake_extent)
        u3, w3 = wake_periodic(t, x_dist, self.p)
        # positional: keyword construction of the NamedTuple costs ~3x
        return WindSample(self.u1 + u2 + u3, self.w1 + w2 + w3,
                          self.u1, u2, u3, self.w1, w2, w3)


class PitchNoise:
    """Pitch measurement noise: periodic term plus held Gaussian noise.

    The stated noise power is taken as the sample variance of the held
    random component (sigma = 1 mrad at -60 dB, matching the amplitude
    of the 1 mrad periodic term), not as a spectral density.
    """

    def __init__(self, rng: np.random.Generator, dt: float,
                 dt_noise: float = DEFAULT_DT_NOISE,
                 power_db: float = PITCH_NOISE_POWER_DB,
                 enabled: bool = True):
        self.rng = rng
        self.enabled = enabled
        self._sigma = math.sqrt(10.0 ** (power_db / 10.0))
        self._hold_steps = max(1, round(dt_noise / dt))
        self._since_draw = -1
        self._held = 0.0

    def sample(self, t: float) -> float:
        if self._since_draw < 0 or self._since_draw + 1 >= self._hold_steps:
            self._held = self.rng.normal(0.0, self._sigma)
            self._since_draw = 0
        else:
            self._since_draw += 1
        if not self.enabled:
            return 0.0
        return 0.001 * math.sin(7.0 * t) + self._held


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent, reproducible generators for each stochastic source."""
    root = np.random.SeedSequence(seed)
    names = ("ship", "wind_u", "wind_w", "noise")
    children = root.spawn(len(names))
    return {name: np.random.default_rng(child)
            for name, child in zip(names, children)}


@dataclass
class Environment:
    """Bundles the stochastic sources for one simulation run."""

    ship_params: ShipParams
    wind_params: WindParams
    dt: float
    seed: int
    v_ref: float
    ship_on: bool = True
    wind_on: bool = True
    noise_on: bool = True
    warmup_s: float = 0.0
    noise_dt: float = 0.01
    ship: ShipState = field(init=False)
    wind: WindField = field(init=False)
    noise: PitchNoise = field(init=False)

    def __post_init__(self):
        streams = rng_streams(self.seed)
        # the deck-noise stream; None with ship motion off, so the held
        # inputs are never redrawn and the deck stays level
        self.ship_rng = streams["ship"] if self.ship_on else None
        self.ship = ShipState()
        self.wind = WindField(self.wind_params, streams["wind_u"],
                              streams["wind_w"], self.dt, self.v_ref,
                              enabled=self.wind_on)
        self.noise = PitchNoise(streams["noise"], self.dt,
                                dt_noise=self.noise_dt,
                                enabled=self.noise_on)
        if self.ship_rng is not None and self.warmup_s > 0.0:
            n = int(round(self.warmup_s / self.dt))
            for _ in range(n):
                self.ship = ship_step(self.ship, self.dt, self.ship_rng,
                                      self.ship_params)
