"""
Steady-level-flight trim and small-perturbation linear model.

Trim solves the force/moment balance of level flight (gamma = 0, q = 0):

    T sin(alpha) + L = m g          (vertical balance)
    T cos(alpha)     = D            (along-path balance)
    M                = 0            (pitch balance)

over (alpha, delta_e, T) at a fixed candidate airspeed, by damped Newton
iteration on the normalized residuals.  With the thrust-tilt terms kept,
the solved point zeroes all four dynamic state derivatives exactly.

Linearization builds the 4x4/4x2 small-perturbation model over
(dV_T, dtheta, dalpha, dq) and (ddelta_e, ddelta_t) by central finite
differences of the nonlinear state derivative; its eigenvalues come from
numpy.

The trim residuals evaluate lift, drag and moment themselves rather than
through airframe.rigid_body_derivative: routing them through the kernel
would move the trim point by a few ulps, and with it every output byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airframe import (AeroModel, AircraftParams, OutOfTableRange,
                       dynamic_pressure, state_derivative)

TRIM_AIRSPEED = 69.1  # m/s, nominal approach speed


class TrimNotConverged(RuntimeError):
    """The trim iteration failed to reach the residual tolerance."""


@dataclass(frozen=True)
class TrimPoint:
    v_t_star: float
    theta_star: float
    alpha_star: float
    q_star: float
    gamma_star: float
    delta_e_star: float
    thrust_star: float
    residuals: tuple[float, float, float]  # (vertical, moment, along-path)


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


def _trim_residuals(v: float, alpha: float, delta_e: float, thrust: float,
                    params: AircraftParams, model: AeroModel):
    q_s = dynamic_pressure(v, params.rho) * params.s_ref
    cl, cd, cm = model.coefficients(alpha, 0.0, delta_e)
    lift, drag = q_s * cl, q_s * cd
    moment = q_s * params.c_bar * cm
    mg = params.m * params.g
    r_vert = (thrust * math.sin(alpha) + lift - mg) / mg
    r_mom = moment / (q_s * params.c_bar)
    r_path = (thrust * math.cos(alpha) - drag) / mg
    return np.array([r_vert, r_mom, r_path])


def _newton_trim(v: float, params: AircraftParams, model: AeroModel,
                 max_iter: int, tol: float,
                 alpha_guess: float = math.radians(5.0)):
    # unknowns scaled to comparable magnitudes: (alpha, delta_e, T/mg)
    mg = params.m * params.g
    u = np.array([alpha_guess, 0.0, 0.3])
    for _ in range(max_iter):
        alpha, delta_e, t_frac = u
        if not (model.alpha_min < alpha < model.alpha_max):
            raise TrimNotConverged("trim iterate left the aero table range")
        r = _trim_residuals(v, alpha, delta_e, t_frac * mg, params, model)
        if np.max(np.abs(r)) < tol:
            return float(alpha), float(delta_e), float(t_frac * mg), tuple(r)
        jac = np.empty((3, 3))
        for j, h in enumerate((1e-7, 1e-7, 1e-7)):
            du = np.zeros(3)
            du[j] = h
            up, um = u + du, u - du
            rp = _trim_residuals(v, up[0], up[1], up[2] * mg, params, model)
            rm = _trim_residuals(v, um[0], um[1], um[2] * mg, params, model)
            jac[:, j] = (rp - rm) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise TrimNotConverged(f"singular trim Jacobian: {exc}") from exc
        # damped update: backtrack until the residual norm decreases
        norm0 = float(np.dot(r, r))
        lam = 1.0
        for _ in range(30):
            u_try = u + lam * step
            try:
                r_try = _trim_residuals(v, u_try[0], u_try[1], u_try[2] * mg,
                                        params, model)
            except OutOfTableRange:
                lam *= 0.5
                continue
            if float(np.dot(r_try, r_try)) < norm0 or lam < 1e-6:
                u = u_try
                break
            lam *= 0.5
        else:
            raise TrimNotConverged("trim line search stalled")
    raise TrimNotConverged(f"no convergence after {max_iter} iterations")


def solve_trim(params: AircraftParams, model: AeroModel,
               v_target: float = TRIM_AIRSPEED,
               max_iter: int = 200, tol: float = 1e-10,
               alpha_guess: float = math.radians(5.0)) -> TrimPoint:
    """Solve steady level flight at (or as near as feasible to) v_target.

    Tries the candidate airspeed first; if the model cannot balance
    there (lift ceiling, thrust limit), walks the airspeed outward until
    a feasible point is found.

    Raises TrimNotConverged when no candidate admits a solution, or when
    v_target is not positive or so small or large that the moment scale
    q S c_bar of a candidate underflows to 0 or overflows.
    """
    scale = params.s_ref * params.c_bar
    if not (v_target > 0.0
            and dynamic_pressure(v_target, params.rho) * scale > 0.0
            and math.isfinite(dynamic_pressure(v_target + 50.0, params.rho)
                              * scale)):
        raise TrimNotConverged(
            f"airspeed must be > 0 with q S c_bar in float range, "
            f"got {v_target!r}")
    candidates = [v_target]
    for k in range(1, 26):
        candidates.append(v_target + 2.0 * k)
        if v_target - 2.0 * k > 10.0:
            candidates.append(v_target - 2.0 * k)
    last_err = None
    for v in candidates:
        try:
            alpha, delta_e, thrust, res = _newton_trim(v, params, model,
                                                       max_iter, tol,
                                                       alpha_guess)
        except (TrimNotConverged, OutOfTableRange) as exc:
            last_err = exc if isinstance(exc, TrimNotConverged) \
                else TrimNotConverged(str(exc))
            continue
        if not (0.0 <= thrust <= params.t_max):
            last_err = TrimNotConverged(
                f"trim thrust {thrust:.0f} N outside [0, {params.t_max:.0f}]")
            continue
        if not (params.elevator_min <= delta_e <= params.elevator_max):
            last_err = TrimNotConverged("trim elevator outside deflection range")
            continue
        return TrimPoint(v_t_star=v, theta_star=alpha, alpha_star=alpha,
                         q_star=0.0, gamma_star=0.0, delta_e_star=delta_e,
                         thrust_star=thrust, residuals=res)
    raise TrimNotConverged(str(last_err) if last_err else "no feasible trim")


def linearize(trim: TrimPoint, params: AircraftParams,
              model: AeroModel) -> LinearModel:
    """Central-difference Jacobian of the dynamic states at the trim point."""
    x0 = np.array([trim.v_t_star, trim.theta_star, trim.alpha_star, trim.q_star])
    u0 = np.array([trim.delta_e_star, trim.thrust_star / params.t_max])

    def f(x, u):
        return np.array(state_derivative(x[0], x[1], x[2], x[3], u[0],
                                         u[1] * params.t_max, 0.0, 0.0,
                                         model, params)[:4])

    a = np.empty((4, 4))
    b = np.empty((4, 2))
    x_scale = (max(abs(trim.v_t_star), 1.0), 1.0, 1.0, 1.0)
    for j in range(4):
        h = 1e-6 * x_scale[j]
        dx = np.zeros(4)
        dx[j] = h
        a[:, j] = (f(x0 + dx, u0) - f(x0 - dx, u0)) / (2.0 * h)
    for j in range(2):
        h = 1e-6
        du = np.zeros(2)
        du[j] = h
        b[:, j] = (f(x0, u0 + du) - f(x0, u0 - du)) / (2.0 * h)
    # theta' = q is an identity; pin the row exactly
    a[1, :] = (0.0, 0.0, 0.0, 1.0)
    b[1, :] = 0.0
    return LinearModel(a=a, b=b)


def eigenvalues_4x4(a: np.ndarray) -> list[complex]:
    """Eigenvalues of the 4x4 state matrix, as Python complex numbers."""
    return [complex(z) for z in np.linalg.eigvals(a)]


@dataclass(frozen=True)
class EigenModes:
    eigenvalues: tuple[complex, ...]
    labels: tuple[str | None, ...]
    degenerate: bool


def eigenmodes(linear) -> EigenModes:
    """Label the spectrum's conjugate pairs as short-period and phugoid.

    Accepts a LinearModel or a raw 4x4 matrix.  numpy returns the complex
    eigenvalues of a real matrix as exact conjugate pairs, so sorted by
    descending magnitude, then imaginary part, two pairs of different
    magnitude read (sp, conj sp, ph, conj ph): the faster pair (larger
    natural frequency) is the short-period mode.  Any other spectrum (a
    real eigenvalue, or two pairs of exactly one magnitude, such as a
    repeated pair) is degenerate, and the raw eigenvalues are returned
    unlabeled.
    """
    a = linear.a if isinstance(linear, LinearModel) else np.asarray(linear, float)
    ev = tuple(sorted(eigenvalues_4x4(a), key=lambda z: (-abs(z), -z.imag)))
    upper = [abs(z) for z in ev if z.imag > 0.0]
    if len(upper) != 2 or upper[0] == upper[1]:
        return EigenModes(ev, (None, None, None, None), True)
    return EigenModes(ev, ("short-period",) * 2 + ("phugoid",) * 2, False)
