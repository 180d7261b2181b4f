"""
Five-element landing control stack.

A flight-path generator projects the ideal glide path from the moving
landing point.  A guidance PID turns vertical deviation into a sink-rate
command, a sink PI turns sink-rate error into a pitch command, and the
pitch loop turns pitch error into elevator.  A velocity PID holds
airspeed with thrust.  Two pitch controllers are provided: the
observer-compensated PD law (primary) and a plain PID baseline.

Elevator-channel convention: the published pitch-loop partials are
expressed per degree of elevator (dqdot_dq = -0.15 1/s,
dqdot_dde = -0.015 rad s^-2 deg^-1), so the pitch laws compute their
elevator perturbation in degrees and convert to radians when forming
the command.  The plant-facing command and trim offset are radians.

The observer-based law, with e = theta_r - theta_meas and the observer
supplying the rate estimate x2 and disturbance estimate x3:

    U  = kp e - kd x2
    dde_deg = (U - x3) / dqdot_dde
    delta_e_cmd = delta_e_trim + radians(dde_deg)

The pitch laws return only their command.  known_input gives the
known part of the pitch acceleration, h = dqdot_dq x2 + dqdot_dde
dde_deg.  The engine forms h once per step under every law, from the
saturated command, so the observer sees the input actually applied
(anti-windup at the authority limit); the truth law subtracts h, at
the true rate and deflection, from the true pitch acceleration.

The PID-family laws (PitchPID, VelocityPID, SinkPI, GuidancePID) share
one element, _PIDElement: a trapezoidal integrator clamped at +-limit
(anti-windup), preload, and a first-order error filter.  Derivative
terms act on the filtered error, never on raw differences of noisy
measurements; the sink law runs the same filter as an optional lag.
Each law keeps only its error, prefilters and output map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .airframe import AircraftParams
from .trimlin import TrimPoint

RAD2DEG = 180.0 / math.pi
DEG2RAD = math.pi / 180.0


@dataclass
class PitchGains:
    kp_theta: float = 88.89          # observer-PD proportional
    kd_theta: float = 26.5186        # observer-PD derivative
    kp_theta2: float = 57.01         # PID baseline
    ki_theta: float = 50.0
    kd_theta2: float = 17.19
    dqdot_dq: float = -0.15          # plant pitch-damping partial, 1/s
    dqdot_dde: float = -0.015        # plant elevator partial, rad s^-2 per deg
    rate_filter_tau: float = 0.01    # s, derivative filter for the PID baseline

    def __post_init__(self):
        if self.dqdot_dde == 0.0:
            raise ValueError("dqdot_dde must be nonzero")


@dataclass
class OuterGains:
    kp_v: float = 1.2
    ki_v: float = 0.4
    kd_v: float = 0.5
    kp_s: float = 0.0061
    ki_s: float = 0.018
    kp_z: float = 0.3
    ki_z: float = 0.02
    kd_z: float = 0.3
    deriv_filter_tau: float = 0.05   # s, guidance derivative filter
    sink_filter_tau: float = 0.0     # s, sink-error smoothing (0 = off)
    # notch on the sink error at the wake ripple frequency seen by the
    # closing aircraft (pattern pumping Doppler-shifted by the closure
    # rate); 0 disables
    sink_notch_omega: float = 7.1    # rad/s
    sink_notch_zeta: float = 0.25
    integrator_limit: float = 10.0   # clamp on each integrator state


class PitchOPD:
    """Observer-compensated PD pitch law."""

    def __init__(self, gains: PitchGains, trim: TrimPoint):
        self.g = gains
        self.delta_e_trim = trim.delta_e_star

    def step(self, theta_r: float, theta_meas: float, x2: float,
             x3: float) -> float:
        """Elevator command [rad], left unsaturated for the limiter.

        x2 and x3 are the pitch rate and lumped disturbance the law
        compensates: the observer's estimates, or truth under opd_truth.
        """
        g = self.g
        e = theta_r - theta_meas
        e_rate = -x2
        u = g.kp_theta * e + g.kd_theta * e_rate
        dde_deg = (u - x3) / g.dqdot_dde
        return self.delta_e_trim + dde_deg * DEG2RAD


def known_input(x2: float, delta_e: float, delta_e_trim: float,
                gains: PitchGains) -> float:
    """Known part h of the pitch acceleration [rad/s^2].

    h = dqdot_dq x2 + dqdot_dde dde_deg, with dde_deg the elevator's
    offset from trim in degrees.
    """
    return (gains.dqdot_dq * x2
            + gains.dqdot_dde * ((delta_e - delta_e_trim) * RAD2DEG))


class _PIDElement:
    """State shared by the PID-family laws.

    One trapezoidal integrator of the error, clamped at +-limit, and one
    first-order error filter.  The filter is primed on its first sample
    and holds whenever dt <= 0; its rate is zero on both.
    """

    def __init__(self, integrator_limit: float):
        self._int = 0.0
        self._int_limit = integrator_limit
        self._e_prev = 0.0
        self._e_filt = None

    def preload(self, integral: float) -> None:
        """Seed the integrator (bumpless start away from the trim point)."""
        self._int = integral

    def _integrate(self, e: float, dt: float) -> float:
        """Advance the integral of e by one trapezoid and return it."""
        i = self._int + 0.5 * (e + self._e_prev) * dt
        lim = self._int_limit
        if i > lim:
            i = lim
        elif i < -lim:
            i = -lim
        self._int = i
        self._e_prev = e
        return i

    def _filter(self, e: float, tau: float, dt: float) -> float:
        """Advance the lag tau of e by dt and return the lagged error's rate."""
        prev = self._e_filt
        if prev is None:
            self._e_filt = e
            return 0.0
        if dt <= 0.0:
            return 0.0
        self._e_filt = new = prev + dt / (tau + dt) * (e - prev)
        return (new - prev) / dt


class PitchPID(_PIDElement):
    """Plain PID pitch baseline (observer-free).

    The derivative term differentiates the first-order-filtered pitch
    error, so measurement noise is attenuated but not removed.
    """

    def __init__(self, gains: PitchGains, trim: TrimPoint,
                 integrator_limit: float):
        super().__init__(integrator_limit)
        self.g = gains
        self.delta_e_trim = trim.delta_e_star

    def step(self, theta_r: float, theta_meas: float, dt: float) -> float:
        g = self.g
        e = theta_r - theta_meas
        e_rate = self._filter(e, g.rate_filter_tau, dt)
        u = (g.kp_theta2 * e + g.ki_theta * self._integrate(e, dt)
             + g.kd_theta2 * e_rate)
        dde_deg = u / g.dqdot_dde
        return self.delta_e_trim + dde_deg * DEG2RAD


class VelocityPID(_PIDElement):
    """Airspeed hold: PID acceleration demand mapped to thrust.

    Zero error commands the trim thrust (feedforward), so the integrator
    only works against disturbances.
    """

    def __init__(self, gains: OuterGains, trim: TrimPoint,
                 params: AircraftParams):
        super().__init__(gains.integrator_limit)
        self.g = gains
        self.thrust_trim = trim.thrust_star
        self.m = params.m

    def step(self, v_r: float, v_meas: float, vdot_meas: float,
             dt: float) -> float:
        g = self.g
        e = v_r - v_meas
        e_rate = -vdot_meas
        u = g.kp_v * e + g.ki_v * self._integrate(e, dt) + g.kd_v * e_rate
        return self.thrust_trim + self.m * u


class SinkPI(_PIDElement):
    """Sink-rate to pitch-command PI with trim-pitch feedforward.

    An optional notch and an optional first-order lag smooth the
    sink-rate error before the PI acts on it, keeping wake-frequency
    ripple out of the pitch command (the loop cannot reject it anyway).
    """

    def __init__(self, gains: OuterGains, trim: TrimPoint, dt: float):
        super().__init__(gains.integrator_limit)
        self.g = gains
        self.theta_trim = trim.theta_star
        self._notch = (NotchFilter(gains.sink_notch_omega,
                                   gains.sink_notch_zeta, dt)
                       if gains.sink_notch_omega > 0.0 else None)

    def step(self, zdot_r: float, zdot_meas: float, dt: float) -> float:
        g = self.g
        e = zdot_r - zdot_meas
        if self._notch is not None:
            e = self._notch.step(e)
        if g.sink_filter_tau > 0.0:
            # short smoothing keeps residual ripple out of the pitch
            # command; kept well below the loop time constant
            self._filter(e, g.sink_filter_tau, dt)
            e = self._e_filt
        return self.theta_trim + g.kp_s * e + g.ki_s * self._integrate(e, dt)


class GuidancePID(_PIDElement):
    """Vertical-deviation to sink-rate-command PID.

    The derivative acts on a first-order-filtered error; an optional
    feedforward carries the reference path's own vertical rate so zero
    deviation commands the path rate itself.
    """

    def __init__(self, gains: OuterGains):
        super().__init__(gains.integrator_limit)
        self.g = gains

    def step(self, z_r: float, z_meas: float, dt: float,
             feedforward: float = 0.0) -> float:
        g = self.g
        e = z_r - z_meas
        e_rate = self._filter(e, g.deriv_filter_tau, dt)
        return (feedforward + g.kp_z * e + g.ki_z * self._integrate(e, dt)
                + g.kd_z * e_rate)


class NotchFilter:
    """Discrete biquad notch (s^2 + w0^2)/(s^2 + 2 zeta w0 s + w0^2).

    Tustin-discretized at the fixed step; unity gain away from w0.
    """

    def __init__(self, omega0: float, zeta: float, dt: float):
        self.b, self.a = notch_coefficients(omega0, zeta, dt)
        self._x1 = self._x2 = 0.0
        self._y1 = self._y2 = 0.0
        self._primed = False

    def step(self, x: float) -> float:
        if not self._primed:
            # start at steady state for the first sample (unity DC gain)
            self._x1 = self._x2 = x
            self._y1 = self._y2 = x
            self._primed = True
        y = (self.b[0] * x + self.b[1] * self._x1 + self.b[2] * self._x2
             - self.a[0] * self._y1 - self.a[1] * self._y2)
        self._x2, self._x1 = self._x1, x
        self._y2, self._y1 = self._y1, y
        return y


def notch_coefficients(omega0: float, zeta: float, dt: float):
    """((b0, b1, b2), (a1, a2)) of NotchFilter's Tustin biquad at step dt;
    a large omega0 or zeta overflows them to inf or nan."""
    k = 2.0 / dt
    k2 = k * k
    w2 = omega0 * omega0
    a0 = k2 + 2.0 * zeta * omega0 * k + w2
    return (((k2 + w2) / a0, (2.0 * (w2 - k2)) / a0, (k2 + w2) / a0),
            ((2.0 * (w2 - k2)) / a0, (k2 - 2.0 * zeta * omega0 * k + w2) / a0))


def flight_path_generator(x_l, z_l, x_l_rate, z_l_rate, x, xdot, tan_gs):
    """Glide-path reference altitude at the aircraft and its rate.

    The path is anchored at the moving landing point (x_l, z_l):
    z_r = z_l + tan_gs (x_l - x), valid for an approaching aircraft
    (x below x_l), so z_r' = z_l' + tan_gs (x_l' - x').  Returns
    (z_r, z_r').
    """
    return (z_l + tan_gs * (x_l - x),
            z_l_rate + tan_gs * (x_l_rate - xdot))

