"""
Engine and elevator actuator dynamics with saturation.

Engine: first-order lag on commanded thrust,
    T' = (T_cmd - T) / tau_eng,        tau_eng = 0.625 s

Elevator: unit-DC-gain second-order servo,
    defl'' = w_a^2 (cmd - defl) - 2 zeta_a w_a defl'
with w_a = 30.74 rad/s, zeta_a = 0.509.

Commands are clamped to the physical limits before entering the
actuator dynamics, and the actuator states are clamped after each
integration step by the commands' rule, saturate_inputs, so the servo
cannot integrate past its stops.  saturate_inputs is the one statement
of the range, elevator in [elevator_min, elevator_max] and thrust in
[0, t_max]; trim feasibility reads it too.
"""

from __future__ import annotations

from .airframe import AircraftParams

ENGINE_TAU = 0.625          # s, non-afterburner lag
ELEVATOR_OMEGA = 30.74      # rad/s
ELEVATOR_ZETA = 0.509


# elevator servo terms, computed once
_W2 = ELEVATOR_OMEGA * ELEVATOR_OMEGA
_TWO_ZW = 2.0 * ELEVATOR_ZETA * ELEVATOR_OMEGA


def actuator_derivative(thrust, de, de_rate, thrust_cmd, de_cmd):
    """(T', delta_e', delta_e'') of the engine lag and the elevator servo."""
    return ((thrust_cmd - thrust) / ENGINE_TAU, de_rate,
            _W2 * (de_cmd - de) - _TWO_ZW * de_rate)


def saturate_inputs(delta_e_cmd: float, thrust_cmd: float,
                    params: AircraftParams):
    """Clamp raw commands to physical limits.

    Returns (delta_e, thrust, sat_elevator, sat_thrust); the flags tell
    whether each channel was clamped, for run diagnostics.
    """
    de = delta_e_cmd
    sat_elevator = False
    if de < params.elevator_min:
        de = params.elevator_min
        sat_elevator = True
    elif de > params.elevator_max:
        de = params.elevator_max
        sat_elevator = True
    th = thrust_cmd
    sat_thrust = False
    if th < 0.0:
        th = 0.0
        sat_thrust = True
    elif th > params.t_max:
        th = params.t_max
        sat_thrust = True
    return de, th, sat_elevator, sat_thrust


def project_actuator_states(thrust, de, de_rate, params: AircraftParams):
    """Project actuator states back onto their physical ranges.

    Returns (thrust, de, de_rate, projected).  The states are clamped by
    saturate_inputs, the commands' rule; the elevator rate is zeroed
    when it drives the surface further into the stop it is pinned at.
    `projected` tells whether any state was moved.
    """
    de_sat, thrust, sat_e, sat_t = saturate_inputs(de, thrust, params)
    # pinned at the lower stop exactly when the clamp raised de
    if sat_e and (de_rate < 0.0 if de < de_sat else de_rate > 0.0):
        de_rate = 0.0
    return thrust, de_sat, de_rate, sat_e or sat_t
