import math

import pytest

from carrierland.actuation import (ELEVATOR_ZETA, actuator_derivative,
                                   elevator_peak_overshoot,
                                   project_actuator_states, saturate_inputs)
from carrierland.airframe import AircraftParams
from carrierland.integrate import rk4_step

PARAMS = AircraftParams()


def engine_derivative(thrust, thrust_cmd):
    return actuator_derivative(thrust, 0.0, 0.0, thrust_cmd, 0.0)[0]


def elevator_derivative(de, de_rate, de_cmd):
    return actuator_derivative(0.0, de, de_rate, 0.0, de_cmd)[1:]


def test_engine_steady_state():
    assert engine_derivative(5000.0, 5000.0) == 0.0


def test_engine_rate_example():
    assert engine_derivative(1000.0, 0.0) == pytest.approx(-1600.0)


def test_engine_step_reaches_one_e_fold():
    cmd = 40000.0
    y = (0.0,)
    dt = 0.001
    for k in range(625):
        y = rk4_step(lambda _t, s: (engine_derivative(s[0], cmd),),
                     y, k * dt, dt)
    assert y[0] / cmd == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_engine_step_monotone():
    cmd = 40000.0
    y = (0.0,)
    prev = 0.0
    for k in range(2000):
        y = rk4_step(lambda _t, s: (engine_derivative(s[0], cmd),),
                     y, k * 0.001, 0.001)
        assert y[0] >= prev
        prev = y[0]
    assert prev <= cmd


def test_elevator_steady_state():
    assert elevator_derivative(0.05, 0.0, 0.05) == (0.0, 0.0)


def test_elevator_rate_example():
    dd, dr = elevator_derivative(0.0, 0.0, 0.1)
    assert dd == 0.0
    assert dr == pytest.approx(30.74 ** 2 * 0.1, rel=1e-12)  # ~94.49


def test_elevator_overshoot_matches_second_order_formula():
    cmd = 0.1
    y = (0.0, 0.0)
    peak = 0.0
    dt = 0.0005
    for k in range(8000):
        def f(_t, s):
            return elevator_derivative(s[0], s[1], cmd)
        y = rk4_step(f, y, k * dt, dt)
        peak = max(peak, y[0])
    expected = elevator_peak_overshoot(ELEVATOR_ZETA)  # ~15.6 %
    assert expected == pytest.approx(
        math.exp(-math.pi * 0.509 / math.sqrt(1 - 0.509 ** 2)), rel=1e-12)
    assert (peak - cmd) / cmd == pytest.approx(expected, abs=1e-3)
    # DC gain is exactly one: deflection ends on the command
    assert y[0] == pytest.approx(cmd, rel=1e-6)


def test_saturate_lower_clamp_flags():
    de, th, sat_e, sat_t = saturate_inputs(math.radians(-30.0), 10000.0,
                                           PARAMS)
    assert de == PARAMS.elevator_min
    assert sat_e is True and sat_t is False


def test_saturate_interior_point_untouched():
    de, th, sat_e, sat_t = saturate_inputs(0.0, 0.5 * PARAMS.t_max, PARAMS)
    assert de == 0.0 and th == 0.5 * PARAMS.t_max
    assert sat_e is False and sat_t is False


def test_saturate_upper_thrust_clamp():
    de, th, sat_e, sat_t = saturate_inputs(0.0, 2.0 * PARAMS.t_max, PARAMS)
    assert th == PARAMS.t_max
    assert sat_e is False and sat_t is True


@pytest.mark.parametrize("de,thrust", [
    (-3.0, -5.0e5), (0.9, 2.0e5), (0.0, 3.0e4), (-0.1, 0.0),
])
def test_saturation_idempotent(de, thrust):
    d1, t1, _, _ = saturate_inputs(de, thrust, PARAMS)
    d2, t2, _, _ = saturate_inputs(d1, t1, PARAMS)
    assert (d1, t1) == (d2, t2)


def test_actuator_state_projection():
    thrust, de, de_rate, projected = project_actuator_states(
        2 * PARAMS.t_max, -1.0, -2.0, PARAMS)
    assert thrust == PARAMS.t_max
    assert de == PARAMS.elevator_min
    assert de_rate == 0.0  # pinned at the stop
    assert projected


def test_actuator_projection_keeps_rate_leaving_the_stop():
    thrust, de, de_rate, projected = project_actuator_states(
        -5.0, 1.0, -2.0, PARAMS)
    assert (thrust, de, de_rate) == (0.0, PARAMS.elevator_max, -2.0)
    assert projected


def test_actuator_projection_interior_untouched():
    state = (0.5 * PARAMS.t_max, -0.1, 3.0)
    assert project_actuator_states(*state, PARAMS) == state + (False,)
