"""
Steady-level-flight trim and small-perturbation linear model.

Trim solves level flight (gamma = 0, q = 0, theta = alpha) at the
airspeed asked for.  There the pitching moment is linear in elevator and
the along-path force linear in thrust, so both have closed forms at any
alpha:

    delta_e = -cm_base(alpha) / cm_de          (M = 0)
    T       = q_bar S C_D(alpha, delta_e) / cos(alpha)    (V_T' = 0)

and one scalar Newton iteration on alpha, with a central-difference
slope, drives alpha' of airframe.rigid_body_derivative to zero.  The
airframe's force balance is evaluated in one place: the kernel.

Linearization builds the 4x4/4x2 small-perturbation model over
(dV_T, dtheta, dalpha, dq) and (ddelta_e, ddelta_t) by central finite
differences of the nonlinear state derivative; its eigenvalues come from
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actuation import saturate_inputs
from .airframe import (AeroModel, AircraftParams, OutOfTableRange,
                       dynamic_pressure, rigid_body_derivative,
                       state_derivative)

TRIM_AIRSPEED = 69.1  # m/s, nominal approach speed
TRIM_MAX_ITER = 200   # Newton iterations on alpha
TRIM_TOL = 1e-10      # rad/s, the |alpha'| a trim point leaves


class TrimNotConverged(RuntimeError):
    """No trim point at the airspeed asked for; the message says why."""


@dataclass(frozen=True)
class TrimPoint:
    v_t_star: float
    theta_star: float
    alpha_star: float
    q_star: float
    gamma_star: float
    delta_e_star: float
    thrust_star: float
    # (alpha', q', V_T') of rigid_body_derivative at the trim point
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class LinearModel:
    a: np.ndarray  # 4x4 over (dV_T, dtheta, dalpha, dq)
    b: np.ndarray  # 4x2 over (ddelta_e [rad], ddelta_t [fraction])

    @property
    def dqdot_dq(self) -> float:
        return float(self.a[3, 3])

    @property
    def dqdot_dde(self) -> float:
        """Pitch-acceleration sensitivity to elevator, per radian."""
        return float(self.b[3, 0])

    @property
    def dqdot_dde_deg(self) -> float:
        """Same sensitivity expressed per degree of elevator."""
        return self.dqdot_dde * math.pi / 180.0


def _level_flight(v: float, alpha: float, params: AircraftParams,
                  model: AeroModel):
    """(delta_e, thrust, rigid-body derivative) of level flight at alpha.

    The elevator nulls the pitching moment and the thrust the
    along-path force; alpha' is what is left to zero.
    """
    delta_e = -model.coefficients(alpha, 0.0, 0.0)[2] / model.cm_de
    c_d = model.coefficients(alpha, 0.0, delta_e)[1]
    thrust = (dynamic_pressure(v, params.rho) * params.s_ref * c_d
              / math.cos(alpha))
    return delta_e, thrust, rigid_body_derivative(
        v, alpha, alpha, 0.0, delta_e, thrust, 0.0, 0.0, model, params)


def _newton_alpha(v: float, params: AircraftParams, model: AeroModel,
                  alpha: float):
    """(alpha, delta_e, thrust, residuals) of level flight at airspeed v.

    An alpha off the aero table raises OutOfTableRange.
    """
    h = 1e-7
    for _ in range(TRIM_MAX_ITER):
        delta_e, thrust, xdot = _level_flight(v, alpha, params, model)
        if abs(xdot[2]) < TRIM_TOL:
            return alpha, delta_e, thrust, (xdot[2], xdot[3], xdot[0])
        slope = (_level_flight(v, alpha + h, params, model)[2][2]
                 - _level_flight(v, alpha - h, params, model)[2][2]) / (2 * h)
        if slope == 0.0:
            raise TrimNotConverged("alpha' does not depend on alpha")
        alpha -= xdot[2] / slope
    raise TrimNotConverged(f"no convergence after {TRIM_MAX_ITER} iterations")


def solve_trim(params: AircraftParams, model: AeroModel,
               v: float = TRIM_AIRSPEED) -> TrimPoint:
    """Solve steady level flight at airspeed v.

    Raises TrimNotConverged, naming v and the reason, when v is not
    positive or so small or large that the moment scale q S c_bar
    underflows to 0 or overflows, when the model does not balance at v
    (lift ceiling, an alpha iterate off the table), or when the trim
    thrust or elevator lies outside the range saturate_inputs clamps to.
    """
    try:
        if not (v > 0.0 and 0.0 < dynamic_pressure(v, params.rho)
                * params.s_ref * params.c_bar < math.inf):
            raise TrimNotConverged(
                "airspeed must be > 0 with q S c_bar in float range")
        alpha, delta_e, thrust, res = _newton_alpha(v, params, model,
                                                    math.radians(5.0))
        _, _, sat_e, sat_t = saturate_inputs(delta_e, thrust, params)
        if sat_t:
            raise TrimNotConverged(
                f"trim thrust {thrust:.0f} N outside [0, {params.t_max:.0f}]")
        if sat_e:
            raise TrimNotConverged("trim elevator outside deflection range")
    except (TrimNotConverged, OutOfTableRange) as exc:
        raise TrimNotConverged(f"no trim point at {v:g} m/s: {exc}") from exc
    return TrimPoint(v_t_star=v, theta_star=alpha, alpha_star=alpha,
                     q_star=0.0, gamma_star=0.0, delta_e_star=delta_e,
                     thrust_star=thrust, residuals=res)


@np.errstate(all="ignore")   # an overflow is raised below, not warned
def linearize(trim: TrimPoint, params: AircraftParams,
              model: AeroModel) -> LinearModel:
    """Central-difference Jacobian [A | B] of the dynamic states at the trim
    point, one column per state and input; OverflowError if an entry is
    not finite."""
    z0 = np.array([trim.v_t_star, trim.theta_star, trim.alpha_star,
                   trim.q_star, trim.delta_e_star,
                   trim.thrust_star / params.t_max])

    def f(z):
        return np.array(state_derivative(z[0], z[1], z[2], z[3], z[4],
                                         z[5] * params.t_max, 0.0, 0.0,
                                         model, params)[:4])

    ab = np.empty((4, 6))
    for j, scale in enumerate((max(abs(trim.v_t_star), 1.0), 1, 1, 1, 1, 1)):
        h = 1e-6 * scale
        dz = np.zeros(6)
        dz[j] = h
        ab[:, j] = (f(z0 + dz) - f(z0 - dz)) / (2.0 * h)
    ab[1] = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)   # theta' = q, pinned exactly
    if not np.isfinite(ab).all():
        raise OverflowError("the linearized model at trim is not finite")
    return LinearModel(a=ab[:, :4], b=ab[:, 4:])


def eigenvalues_4x4(a: np.ndarray) -> list[complex]:
    """Eigenvalues of the 4x4 state matrix, as Python complex numbers."""
    return [complex(z) for z in np.linalg.eigvals(a)]


@dataclass(frozen=True)
class EigenModes:
    eigenvalues: tuple[complex, ...]
    labels: tuple[str | None, ...]


def eigenmodes(a) -> EigenModes:
    """Label the conjugate pairs of the 4x4 state matrix a's spectrum as
    short-period and phugoid.

    numpy returns the complex eigenvalues of a real matrix as exact
    conjugate pairs, so sorted by descending magnitude, then imaginary
    part, two pairs of different magnitude read (sp, conj sp, ph, conj
    ph): the faster pair (larger natural frequency) is the short-period
    mode.  Any other spectrum (a real eigenvalue, or two pairs of exactly
    one magnitude, such as a repeated pair) is degenerate, and the raw
    eigenvalues are returned with the labels (None,) * 4.
    """
    ev = tuple(sorted(eigenvalues_4x4(a), key=lambda z: (-abs(z), -z.imag)))
    upper = [abs(z) for z in ev if z.imag > 0.0]
    if len(upper) != 2 or upper[0] == upper[1]:
        return EigenModes(ev, (None,) * 4)
    return EigenModes(ev, ("short-period",) * 2 + ("phugoid",) * 2)
