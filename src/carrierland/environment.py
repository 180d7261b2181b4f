"""
Stochastic environment: carrier deck motion, landing-point kinematics,
air-wake wind and pitch measurement noise.  Each white source is held:
it draws on step n exactly when n % hold == 0 (hold_steps), so its draws
depend only on the step index and the hold.  It draws from its own RNG
stream of one run seed: child i of SeedSequence(seed), ship 0, wind_u 1,
wind_w 2, noise 3 (rng_stream).  A source is off exactly when it has no
generator; it then draws nothing, so toggling one leaves the samples the
others draw unchanged.

Ship motion.  Heave z_g and deck pitch theta_s come from two
fourth-order shaping filters sharing the denominator

    s^4 + 2.08 s^3 + 1.32 s^2 + 0.4 s + 0.16

with numerators 1.21 (heave) and 0.773 s^2 (pitch), realized in
controllable canonical form and driven by zero-order-held Gaussian
noise.  The nominal noise powers are +4.5 dB (heave) and -20 dB
(pitch); a common input gain (default 0.16) calibrates the long-run
extremes to roughly 4 m of heave and 3 deg of deck pitch, matching the
published sea-state targets for this filter set.  ship_step takes the
exact zero-order-hold step x <- Phi x + Gamma u (see _deck_zoh).

Landing point.  The touchdown point sits 81 m aft of the ship's centre
of mass at the origin:  x_L = -81 cos(theta_s),  z_L = z_G - 81 sin(theta_s).

Wind.  Total gust (u_g, w_g) sums free-air turbulence (u1, w1) shaped
by first-order low-pass filters matched to the spatial spectra
200/(1+(100 Ohm)^2) and 71.6/(1+(100 Ohm)^2), a steady wake profile
(u2, w2) linear in the distance X ahead of the ship's pitch centre, and
a periodic wake component (u3, w3) phase-locked to the deck-pitch
frequency.  One call, wake, gives all four wake terms, which vanish
outside 0 <= X < wake_extent (914 m).  The random wake component is
omitted.

Measurement noise.  Pitch measurement noise is 0.001 sin(7 t) plus
zero-order-held Gaussian noise of power -60 dB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig

SHIP_DENOM = (2.08, 1.32, 0.4, 0.16)   # s^3, s^2, s^1, s^0 coefficients
SHIP_HEAVE_NUM = 1.21
SHIP_PITCH_NUM = 0.773                 # multiplies s^2
LANDING_POINT_OFFSET = 81.0            # m aft of the centre of mass

DEFAULT_DT_NOISE = 0.1                 # s, zero-order hold of the deck and wind inputs
DEFAULT_PITCH_NOISE_DT = 0.01          # s, zero-order hold of the pitch-sensor noise
DEFAULT_SHIP_NOISE_GAIN = 0.16         # calibrated amplitude factor, see module doc
SHIP_HEAVE_POWER_DB = 4.5
SHIP_PITCH_POWER_DB = -20.0
PITCH_NOISE_POWER_DB = -60.0
WIND_U1_PSD, WIND_W1_PSD = 200.0, 71.6  # turbulence spatial PSD heights
WIND_LENGTH_SCALE = 100.0              # m; spatial corner Omega = omega / V
WAKE_OMEGA_P = 1.25                    # periodic wake frequency, rad/s
WAKE_THETA_S_AMP = 0.05                # deck-pitch amplitude of the wake, rad
DEFAULT_WAKE_EXTENT = 914.0            # m; wake terms are zero beyond this
STREAM_NAMES = ("ship", "wind_u", "wind_w", "noise")  # child i of the run seed


def hold_steps(dt_noise: float, dt: float) -> int:
    """Steps of size dt that one held noise sample lasts."""
    return max(1, round(dt_noise / dt))


def _held_sigma(power_db: float, dt_noise: float) -> float:
    return math.sqrt(10.0 ** (power_db / 10.0) / dt_noise)


def held_noise_scales(source: str, dt_noise: float, gain: float) -> tuple:
    """Sigmas of a held source at hold dt_noise and its gain: "ship"
    (gain ship_noise_gain) the deck inputs' (heave, pitch); "wind" (gain
    turb_norm) the unit input's, then the turbulence's (u1, w1), sigma^2 =
    turb_norm * psd / length scale (0.5, the two-sided rad/m convention,
    gives 1.0 and 0.60 m/s)."""
    if source == "ship":
        return (_held_sigma(SHIP_HEAVE_POWER_DB, dt_noise) * gain,
                _held_sigma(SHIP_PITCH_POWER_DB, dt_noise) * gain)
    return (math.sqrt(1.0 / dt_noise),
            math.sqrt(gain * WIND_U1_PSD / WIND_LENGTH_SCALE),
            math.sqrt(gain * WIND_W1_PSD / WIND_LENGTH_SCALE))


@dataclass
class ShipParams:
    dt_noise: float = DEFAULT_DT_NOISE
    noise_gain: float = DEFAULT_SHIP_NOISE_GAIN


@dataclass
class ShipState:
    heave_filter: tuple = (0.0, 0.0, 0.0, 0.0)
    pitch_filter: tuple = (0.0, 0.0, 0.0, 0.0)
    u_heave: float = 0.0                   # held white-noise inputs
    u_pitch: float = 0.0
    steps: int = 0                         # deck steps taken

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


def deck_motion(h0, h1, p2, p3):
    """Deck attitude and landing point from the deck-filter states.

    Takes the heave filter's first two states (h0, h1) and the pitch
    filter's last two (p2, p3); the ship's centre of mass is the origin.
    Returns (z_g, theta_s, x_l, z_l, x_l', z_l'): heave, deck pitch, the
    landing point and its rates.
    """
    z_g = SHIP_HEAVE_NUM * h0
    theta_s = SHIP_PITCH_NUM * p2
    sin_s = math.sin(theta_s)
    cos_s = math.cos(theta_s)
    theta_s_rate = SHIP_PITCH_NUM * p3
    return (z_g, theta_s,
            0.0 - LANDING_POINT_OFFSET * cos_s,
            z_g - LANDING_POINT_OFFSET * sin_s,
            LANDING_POINT_OFFSET * sin_s * theta_s_rate,
            SHIP_HEAVE_NUM * h1 - LANDING_POINT_OFFSET * cos_s * theta_s_rate)


def held_ship_inputs(n, u_heave, u_pitch, hold, rng, p: ShipParams):
    """The held white-noise inputs of the deck filters on deck step n.

    On a draw step, n % hold == 0, both inputs are redrawn from rng, or
    kept when rng is None (ship motion off).  Returns (u_heave, u_pitch).
    """
    if n % hold == 0 and rng is not None:
        sigma_h, sigma_p = held_noise_scales("ship", p.dt_noise, p.noise_gain)
        u_heave = rng.normal(0.0, sigma_h)
        u_pitch = rng.normal(0.0, sigma_p)
    return u_heave, u_pitch


def _ship_filter_derivative(x, u):
    a3, a2, a1, a0 = SHIP_DENOM
    return (x[1], x[2], x[3],
            u - a0 * x[0] - a1 * x[1] - a2 * x[2] - a3 * x[3])


def _matmul5(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
             + a[i][3] * b[3][j] + a[i][4] * b[4][j] for j in range(5)]
            for i in range(5)]


@functools.lru_cache(maxsize=16)
def _deck_zoh(dt, dt_noise):
    """Hold length, Phi(dt) (16 floats, row-major) and Gamma(dt) (4).

    Phi = exp(A dt), Gamma = integral of exp(A s) e4 over [0, dt], A the
    filters' canonical form: the top block of exp([[A, e4], [0, 0]] dt)
    (Van Loan, IEEE TAC 23(3), 1978), a 16-term Horner-form Taylor series
    of the matrix scaled to row-sum norm < 0.5, then squared back; plain
    floats, so the constants do not depend on a BLAS summation order.
    """
    squarings = max(0, math.frexp(dt * (1.0 + sum(SHIP_DENOM)))[1] + 1)
    h = dt * 0.5 ** squarings
    m = [[h * float(j == i + 1) for j in range(5)] for i in range(3)] + [
        [-c * h for c in SHIP_DENOM[::-1]] + [h], [0.0] * 5]
    e = eye = [[float(i == j) for j in range(5)] for i in range(5)]
    for k in range(16, 0, -1):
        e = [[eye[i][j] + v / k for j, v in enumerate(row)]
             for i, row in enumerate(_matmul5(m, e))]
    for _ in range(squarings):
        e = _matmul5(e, e)
    return (hold_steps(dt_noise, dt),
            tuple(v for r in e[:4] for v in r[:4]), tuple(r[4] for r in e[:4]))


def ship_step(state: ShipState, dt: float, rng: np.random.Generator,
              params: ShipParams | None = None) -> ShipState:
    """Advance both deck-motion filters one step of size dt.

    White-noise inputs are redrawn every dt_noise seconds and held in
    between (held_ship_inputs on step state.steps); dt must divide
    dt_noise.  The step is the exact zero-order hold x <- Phi x + Gamma u,
    with the constants of _deck_zoh.  The new state counts one step more.
    """
    p = params or ShipParams()
    hold, phi, gam = _deck_zoh(dt, p.dt_noise)
    n = state.steps
    u_h, u_p = held_ship_inputs(n, state.u_heave, state.u_pitch, hold, rng, p)
    (f00, f01, f02, f03, f10, f11, f12, f13, f20, f21, f22, f23,
     f30, f31, f32, f33), (g0, g1, g2, g3) = phi, gam
    h0, h1, h2, h3 = state.heave_filter
    p0, p1, p2, p3 = state.pitch_filter
    return ShipState(
        (f00 * h0 + f01 * h1 + f02 * h2 + f03 * h3 + g0 * u_h,
         f10 * h0 + f11 * h1 + f12 * h2 + f13 * h3 + g1 * u_h,
         f20 * h0 + f21 * h1 + f22 * h2 + f23 * h3 + g2 * u_h,
         f30 * h0 + f31 * h1 + f32 * h2 + f33 * h3 + g3 * u_h),
        (f00 * p0 + f01 * p1 + f02 * p2 + f03 * p3 + g0 * u_p,
         f10 * p0 + f11 * p1 + f12 * p2 + f13 * p3 + g1 * u_p,
         f20 * p0 + f21 * p1 + f22 * p2 + f23 * p3 + g2 * u_p,
         f30 * p0 + f31 * p1 + f32 * p2 + f33 * p3 + g3 * u_p),
        u_h, u_p, n + 1)


def wake_phase(t: float, x_dist: float, v_wd: float) -> float:
    """The periodic wake's phase, rad: rises in t and in X once v_wd > 0."""
    return WAKE_OMEGA_P * (2.28 * t + x_dist / (0.85 * v_wd)) + 0.1


def wake(t: float, x_dist: float, cfg: ScenarioConfig):
    """Wake components (u2, w2, u3, w3) at time t and distance X ahead of
    the pitch centre: the steady profile, then the periodic term, the
    cosine of wake_phase; all zero outside the config's wake extent."""
    if not 0.0 <= x_dist < cfg.wake_extent:
        return 0.0, 0.0, 0.0, 0.0
    c = math.cos(wake_phase(t, x_dist, cfg.v_wd))
    scale = WAKE_THETA_S_AMP * cfg.v_wd
    return ((0.002 * x_dist if x_dist > 0.0 else 0.0), -1.0 + 0.0013 * x_dist,
            scale * (2.22 + 0.000091 * x_dist) * c,
            scale * (4.98 + 0.0018 * x_dist) * c)


class WindField:
    """Stateful wind model: turbulence filters plus wake terms.

    The turbulence filters are exact zero-order-hold discretizations of
    first-order lags with corner frequency v_ref / WIND_LENGTH_SCALE,
    scaled so the stationary output variance matches the spatial-spectrum
    level (held_noise_scales).  The config gives dt, dt_noise, turb_norm,
    v_wd and wake_extent.  Off, with no generators (rng_u None), the field
    is calm and draws nothing.
    """

    def __init__(self, cfg: ScenarioConfig, rng_u: np.random.Generator | None,
                 rng_w: np.random.Generator | None, v_ref: float):
        self.cfg = cfg
        self.rng_u = rng_u
        self.rng_w = rng_w
        tau = WIND_LENGTH_SCALE / v_ref
        self._phi = math.exp(-cfg.dt / tau)
        self._hold = hold_steps(cfg.dt_noise, cfg.dt)
        self._in_sigma, sigma_u, sigma_w = held_noise_scales(
            "wind", cfg.dt_noise, cfg.turb_norm)
        # input gain giving the target stationary output variance
        self._gain_u = sigma_u * math.sqrt(2.0 * tau)
        self._gain_w = sigma_w * math.sqrt(2.0 * tau)
        self._held_u = self._held_w = self.u1 = self.w1 = 0.0

    def sample(self, k: int, t: float, aircraft_x: float) -> WindSample:
        """Advance the turbulence filters by dt to step k of the run and
        sample the total wind; the held inputs are redrawn on k % hold == 0."""
        if self.rng_u is None:
            return CALM
        if k % self._hold == 0:
            self._held_u = self.rng_u.normal(0.0, self._in_sigma)
            self._held_w = self.rng_w.normal(0.0, self._in_sigma)
        phi = self._phi
        self.u1 = phi * self.u1 + (1.0 - phi) * self._gain_u * self._held_u
        self.w1 = phi * self.w1 + (1.0 - phi) * self._gain_w * self._held_w
        x_dist = 0.0 - aircraft_x   # ahead of the ship; X = +0.0 at x = 0.0
        u2, w2, u3, w3 = wake(t, x_dist, self.cfg)
        # positional: keyword construction of the NamedTuple costs ~3x
        return WindSample(self.u1 + u2 + u3, self.w1 + w2 + w3,
                          self.u1, u2, u3, self.w1, w2, w3)


class PitchNoise:
    """Pitch measurement noise: periodic term plus held Gaussian noise.

    The stated noise power is taken as the sample variance of the held
    random component (sigma = 1 mrad at -60 dB, matching the amplitude
    of the 1 mrad periodic term), not as a spectral density.  The config
    gives dt and the hold noise_dt.  Off, with no generator (rng None),
    the noise is zero and draws nothing.
    """

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator | None):
        self.rng = rng
        self._sigma = math.sqrt(10.0 ** (PITCH_NOISE_POWER_DB / 10.0))
        self._hold = hold_steps(cfg.noise_dt, cfg.dt)
        self._held = 0.0

    def sample(self, k: int, t: float) -> float:
        """The noise at step k of the run, time t; the held component is
        redrawn on k % hold == 0."""
        if self.rng is None:
            return 0.0
        if k % self._hold == 0:
            self._held = self.rng.normal(0.0, self._sigma)
        return 0.001 * math.sin(7.0 * t) + self._held


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """The generator of one stochastic source: child i of
    SeedSequence(seed), i the index of name in STREAM_NAMES.  Built from
    its spawn key alone, it is bit-identical to SeedSequence(seed).spawn(4)[i]
    without building the other three."""
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(STREAM_NAMES.index(name),)))


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent, reproducible generators for each stochastic source."""
    return {name: rng_stream(seed, name) for name in STREAM_NAMES}


class Environment:
    """The stochastic sources of one run, from its resolved config: the
    deck filters, warmed up for warmup_s seconds when ship motion is on,
    the wind field about the reference airspeed v_ref, and the pitch
    noise.  Each source that is on gets its generator from the config's
    seed (rng_stream); one that is off gets none.  With ship motion off
    the held deck inputs stay 0: a level deck."""

    def __init__(self, cfg: ScenarioConfig, v_ref: float, warmup_s: float):
        def stream(name, on):
            return rng_stream(cfg.seed, name) if on else None

        dt = cfg.dt
        self.ship_params = p = ShipParams(cfg.dt_noise, cfg.ship_noise_gain)
        self.ship_rng = rng = stream("ship", cfg.ship_on)
        self.wind = WindField(cfg, stream("wind_u", cfg.wind_on),
                              stream("wind_w", cfg.wind_on), v_ref)
        self.noise = PitchNoise(cfg, stream("noise", cfg.noise_on))
        st = ShipState()
        if rng is not None and warmup_s > 0.0:
            step = ship_step
            for _ in range(int(round(warmup_s / dt))):
                st = step(st, dt, rng, p)
        self.ship = st
