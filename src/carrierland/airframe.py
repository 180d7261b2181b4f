"""
Nonlinear longitudinal rigid-body dynamics of an F/A-18-class airframe.

State variables (SI units, angles in radians):
    V_T    airspeed
    theta  pitch angle
    alpha  angle of attack
    q      pitch rate
    x, z   inertial position (x positive toward the ship, z positive up)

Flight path angle is derived: gamma = theta - alpha.

Equations of motion (body thrust along the longitudinal axis):
    V_T'   = (T cos(alpha) - D)/m - g sin(gamma)
    theta' = q
    alpha' = q - (T sin(alpha) + L)/(m V_T) + g cos(gamma)/V_T
    q'     = M / J_y

Aerodynamic forces use dynamic pressure q_bar = 0.5 rho V^2 with
coefficient build-up

    C_L = cl_base(alpha) + cl_q * q_hat + cl_de * delta_e
    C_D = cd_base(alpha)               + cd_de * delta_e
    C_M = cm_base(alpha) + cm_q * q_hat + cm_de * delta_e

where q_hat = q c_bar / (2 V) is the nondimensional pitch rate and the
base curves are cubic polynomials in alpha, valid on a bounded alpha
range.  Evaluation outside that range raises OutOfTableRange rather
than extrapolating silently.

Gusts perturb the aerodynamics through the relative wind: the airspeed
and angle of attack used for the coefficient lookup are recomputed from
the state velocity minus the local wind vector.  The same wind vector
displaces the inertial trajectory (x' = V_T cos(gamma) + u_wind,
z' = V_T sin(gamma) + w_wind).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from importlib import resources

_sin, _cos, _atan2, _hypot = math.sin, math.cos, math.atan2, math.hypot


class OutOfTableRange(RuntimeError):
    """Angle of attack left the aerodynamic table's valid range."""


class NonFiniteDerivative(RuntimeError):
    """A state derivative evaluated to NaN or infinity (model blow-up)."""


@dataclass(frozen=True)
class AircraftParams:
    """Physical constants of the airframe (defaults: 15-tonne strike fighter)."""

    m: float = 15000.0        # mass, kg
    rho: float = 1.33         # air density, kg/m^3 (constant at approach altitude)
    g: float = 9.75           # gravity, m/s^2
    t_max: float = 71172.0    # thrust saturation limit, N
    s_ref: float = 37.16      # wing reference area, m^2
    j_y: float = 205000.0     # pitch-axis inertia, kg m^2
    c_bar: float = 3.51       # mean aerodynamic chord, m
    elevator_min: float = math.radians(-25.0)  # rad
    elevator_max: float = math.radians(10.0)   # rad

    def __post_init__(self):
        for name in ("m", "rho", "g", "t_max", "s_ref", "j_y", "c_bar"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.elevator_min < 0.0 < self.elevator_max:
            raise ValueError("elevator range must straddle zero")
        # constants of rigid_body_derivative, unpacked once per call;
        # 0.5 * rho is the first product of the dynamic pressure anyway
        object.__setattr__(self, "_rigid_body", (
            self.c_bar, 0.5 * self.rho, self.s_ref, self.m, self.g, self.j_y))


@dataclass(frozen=True)
class AeroModel:
    """Aerodynamic coefficient model: cubic base curves plus linear derivatives.

    Polynomial coefficients are ascending powers of alpha in radians.
    Rate derivatives apply to q_hat = q c_bar/(2 V); deflection
    derivatives are per radian of elevator.
    """

    cl_base: tuple[float, ...]
    cd_base: tuple[float, ...]
    cm_base: tuple[float, ...]
    cl_q: float
    cm_q: float
    cl_de: float
    cd_de: float
    cm_de: float
    alpha_min: float  # rad
    alpha_max: float  # rad

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not self.alpha_min < self.alpha_max:
            raise ValueError("alpha_min must be below alpha_max")
        if self.cm_de >= 0.0:
            raise ValueError("cm_de must be negative (nose-down elevator authority)")
        # Cubic tables are evaluated in unrolled Horner form.  A nonzero
        # leading coefficient c3 makes it bit-identical to _polyval,
        # whose first step is 0.0 * alpha + c3 == c3.  The tuple also
        # carries the linear derivatives and the alpha bounds, so the
        # cubic branch of coefficients reads one attribute.
        tables = (self.cl_base, self.cd_base, self.cm_base)
        cubic = all(len(c) == 4 and c[3] != 0.0 for c in tables)
        object.__setattr__(
            self, "_cubic",
            tuple(c for table in tables for c in table)
            + (self.cl_q, self.cm_q, self.cl_de, self.cd_de, self.cm_de,
               self.alpha_min, self.alpha_max) if cubic else None)

    def check_alpha(self, alpha: float) -> None:
        if not (self.alpha_min <= alpha <= self.alpha_max):
            raise OutOfTableRange(
                f"alpha = {math.degrees(alpha)!r} deg outside table range "
                f"[{math.degrees(self.alpha_min):.1f}, {math.degrees(self.alpha_max):.1f}] deg"
            )

    def coefficients(self, alpha: float, q_hat: float, delta_e: float):
        """Return (C_L, C_D, C_M) at the given alpha, q_hat and elevator."""
        cubic = self._cubic
        if cubic is not None:
            (l0, l1, l2, l3, d0, d1, d2, d3, m0, m1, m2, m3,
             cl_q, cm_q, cl_de, cd_de, cm_de, alpha_min, alpha_max) = cubic
            if not (alpha_min <= alpha <= alpha_max):
                self.check_alpha(alpha)
            cl_a = ((l3 * alpha + l2) * alpha + l1) * alpha + l0
            cd_a = ((d3 * alpha + d2) * alpha + d1) * alpha + d0
            cm_a = ((m3 * alpha + m2) * alpha + m1) * alpha + m0
            return (cl_a + cl_q * q_hat + cl_de * delta_e,
                    cd_a + cd_de * delta_e,
                    cm_a + cm_q * q_hat + cm_de * delta_e)
        self.check_alpha(alpha)
        cl_a = _polyval(self.cl_base, alpha)
        cd_a = _polyval(self.cd_base, alpha)
        cm_a = _polyval(self.cm_base, alpha)
        cl = cl_a + self.cl_q * q_hat + self.cl_de * delta_e
        cd = cd_a + self.cd_de * delta_e
        cm = cm_a + self.cm_q * q_hat + self.cm_de * delta_e
        return cl, cd, cm

    @classmethod
    def from_dict(cls, d: dict) -> "AeroModel":
        if not isinstance(d, dict):
            raise ValueError("expected a JSON object of model fields, "
                             f"got {type(d).__name__}")
        tables = ("cl_base", "cd_base", "cm_base")
        scalars = ("cl_q", "cm_q", "cl_de", "cd_de", "cm_de")
        angles = ("alpha_min_deg", "alpha_max_deg")
        missing = set(tables + scalars + angles) - set(d)
        if missing:
            raise ValueError(f"aero model file missing keys: {sorted(missing)}")

        def number(key, value):
            # a JSON number; a bool is not one
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key}: expected a number, got {value!r}")
            return float(value)

        for key in tables:
            if not isinstance(d[key], list):
                raise ValueError(
                    f"{key}: expected a list of numbers, got {d[key]!r}")
        return cls(
            **{key: tuple(number(key, c) for c in d[key]) for key in tables},
            **{key: number(key, d[key]) for key in scalars},
            **{key.removesuffix("_deg"): math.radians(number(key, d[key]))
               for key in angles})

    @classmethod
    def from_file(cls, path) -> "AeroModel":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@functools.cache
def default_aero_model() -> AeroModel:
    """The calibrated default model shipped with the package."""
    text = resources.files("carrierland.data").joinpath("fa18_aero.json").read_text()
    return AeroModel.from_dict(json.loads(text))


def _polyval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dynamic_pressure(v_t: float, rho: float) -> float:
    """Dynamic pressure 0.5 rho V^2 in Pa."""
    return 0.5 * rho * v_t * v_t


def rigid_body_derivative(v, theta, alpha, q, delta_e, thrust, u_g, w_g,
                          model: AeroModel, params: AircraftParams):
    """(V_T', theta', alpha', q', x', z') on flat floats, no finite check.

    (u_g, w_g) is the wind in inertial axes, m/s; (0.0, 0.0) is calm
    air.  Wind shifts the airspeed and angle of attack of the
    aerodynamic lookup and advects the inertial trajectory.  The
    scenario engine's RK4 derivative calls this kernel directly;
    state_derivative adds a finite check for one-off callers.
    """
    gamma = theta - alpha
    try:
        sin_g = _sin(gamma)
        cos_g = _cos(gamma)
    except ValueError:   # infinite; an infinite alpha fails the table below
        raise NonFiniteDerivative(
            f"non-finite flight-path angle: {gamma!r}") from None
    if u_g != 0.0 or w_g != 0.0:
        vax = v * cos_g - u_g
        vaz = v * sin_g - w_g
        v_air = _hypot(vax, vaz)
        alpha_air = theta - _atan2(vaz, vax)
    else:
        v_air = v
        alpha_air = alpha

    c_bar, half_rho, s_ref, m, g, j_y = params._rigid_body
    q_hat = q * c_bar / (2.0 * v_air) if v_air > 0.0 else 0.0
    cl, cd, cm = model.coefficients(alpha_air, q_hat, delta_e)
    qbar_s = half_rho * v_air * v_air * s_ref
    lift = qbar_s * cl
    drag = qbar_s * cd
    moment = qbar_s * c_bar * cm
    return ((thrust * _cos(alpha) - drag) / m - g * sin_g,
            q,
            q - (thrust * _sin(alpha) + lift) / (m * v) + g * cos_g / v,
            moment / j_y,
            v * cos_g + u_g,
            v * sin_g + w_g)


def state_derivative(v, theta, alpha, q, delta_e, thrust, u_g, w_g,
                     model: AeroModel, params: AircraftParams):
    """rigid_body_derivative with a finite check on the result.

    Raises NonFiniteDerivative when a component is NaN or infinite.
    """
    out = rigid_body_derivative(v, theta, alpha, q, delta_e, thrust, u_g, w_g,
                                model, params)
    for d in out:
        if not math.isfinite(d):
            raise NonFiniteDerivative(f"non-finite state derivative: {out}")
    return out
