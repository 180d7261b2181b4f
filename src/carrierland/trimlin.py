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
differences of the nonlinear state derivative.  Eigenvalues come from an
in-repo characteristic-polynomial solver so the module has no linear
algebra dependency beyond basic array handling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .airframe import (AeroModel, AircraftParams, AircraftState, OutOfTableRange,
                       ControlInputs, dynamic_pressure, state_derivative)

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

    def state(self) -> AircraftState:
        return AircraftState(self.v_t_star, self.theta_star, self.alpha_star,
                             self.q_star)

    def inputs(self) -> ControlInputs:
        return ControlInputs(self.delta_e_star, self.thrust_star)


@dataclass(frozen=True)
class LinearModel:
    a: np.ndarray  # 4x4 over (dV_T, dtheta, dalpha, dq)
    b: np.ndarray  # 4x2 over (ddelta_e [rad], ddelta_t [fraction])

    @property
    def dqdot_dq(self) -> float:
        return float(self.a[3, 3])

    @property
    def dqdot_dalpha(self) -> float:
        return float(self.a[3, 2])

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
            except Exception:
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
        st = AircraftState(x[0], x[1], x[2], x[3])
        inp = ControlInputs(u[0], u[1] * params.t_max)
        return np.array(state_derivative(st, inp, None, model, params)[:4])

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


def characteristic_polynomial(a: np.ndarray) -> list[float]:
    """Monic characteristic polynomial coefficients (descending powers).

    Faddeev-LeVerrier recursion; exact for any square real matrix.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[-1] * np.eye(n)
        ck = -np.trace(a @ mk) / k
        coeffs.append(float(ck))
    return coeffs


def polynomial_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial by Durand-Kerner iteration.

    `coeffs` are descending-power coefficients; the polynomial must have
    nonzero leading coefficient.
    """
    c = [complex(x) for x in coeffs]
    lead = c[0]
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    c = [x / lead for x in c]
    n = len(c) - 1
    if n == 0:
        return []

    def p(z):
        acc = 0j
        for ck in c:
            acc = acc * z + ck
        return acc

    # scale the starting circle to the root magnitude bound
    bound = 1.0 + max(abs(x) for x in c[1:]) if n > 0 else 1.0
    roots = [bound * cmath.exp(2j * math.pi * k / n + 0.4j) for k in range(n)]
    for _ in range(500):
        moved = 0.0
        for i in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                roots[i] += 1e-8 * (1 + 1j)
                continue
            delta = p(roots[i]) / denom
            roots[i] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-13 * max(1.0, bound):
            break
    return roots


def eigenvalues_4x4(a: np.ndarray) -> list[complex]:
    """Eigenvalues via the in-repo characteristic-polynomial route."""
    return polynomial_roots(characteristic_polynomial(a))


@dataclass(frozen=True)
class EigenModes:
    eigenvalues: tuple[complex, ...]
    labels: tuple[str | None, ...]
    degenerate: bool


def eigenmodes(linear) -> EigenModes:
    """Label the spectrum's conjugate pairs as short-period and phugoid.

    Accepts a LinearModel or a raw 4x4 matrix.  When the spectrum is not
    two strict conjugate pairs (a degenerate spectrum), labelling is
    skipped and the raw eigenvalues are returned unlabeled.
    """
    a = linear.a if isinstance(linear, LinearModel) else np.asarray(linear, float)
    ev = eigenvalues_4x4(a)
    ev_sorted = sorted(ev, key=lambda z: (-abs(z), -z.imag))
    scale = max(1.0, max(abs(z) for z in ev_sorted))
    tol = 1e-6 * scale
    pairs = []
    used = [False] * 4
    for i in range(4):
        if used[i] or abs(ev_sorted[i].imag) < tol:
            continue
        for j in range(i + 1, 4):
            if not used[j] and abs(ev_sorted[i] - ev_sorted[j].conjugate()) < tol:
                pairs.append((i, j))
                used[i] = used[j] = True
                break
    if len(pairs) != 2:
        return EigenModes(tuple(ev_sorted), (None, None, None, None), True)
    # faster pair (larger natural frequency) is the short-period mode
    freq = [abs(ev_sorted[i]) for i, _ in pairs]
    order = sorted(range(2), key=lambda k: -freq[k])
    labels: list[str | None] = [None] * 4
    names = ("short-period", "phugoid")
    for rank, k in enumerate(order):
        i, j = pairs[k]
        labels[i] = labels[j] = names[rank]
    return EigenModes(tuple(ev_sorted), tuple(labels), False)
