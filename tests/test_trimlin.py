import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from carrierland import trimlin
from carrierland.airframe import (AeroModel, OutOfTableRange, dynamic_pressure,
                                  state_derivative)
from carrierland.integrate import rk4_step
from carrierland.trimlin import TrimNotConverged, eigenmodes, solve_trim

# small-perturbation model of the published reference linearization;
# elevator column in degrees
REFERENCE_A = np.array([
    [-0.18, -9.81, -0.274, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-0.0041, 0.0, -0.59, 1.0],
    [0.0, 0.0, -0.26, -0.15],
])


def test_trim_matches_operating_point(trim):
    assert trim.v_t_star == pytest.approx(69.1, abs=3.5)
    assert math.degrees(trim.alpha_star) == pytest.approx(7.1, abs=0.5)
    assert trim.theta_star == trim.alpha_star
    assert trim.q_star == 0.0
    assert trim.gamma_star == 0.0
    for r in trim.residuals:
        assert abs(r) < 1e-8


def test_trim_inside_actuator_envelope(trim, params):
    assert 0.0 < trim.thrust_star < params.t_max
    assert params.elevator_min < trim.delta_e_star < params.elevator_max


def test_trim_guess_independent(params, model, trim):
    # solve_trim's Newton solve for alpha, from two guesses, at the
    # trim airspeed
    a, b = (trimlin._newton_alpha(trim.v_t_star, params, model,
                                  math.radians(guess)) for guess in (3.0, 9.0))
    assert a[0] == pytest.approx(b[0], abs=1e-6)            # alpha
    assert a[1] == pytest.approx(b[1], abs=1e-6)            # elevator
    assert a[2] == pytest.approx(b[2], rel=1e-6)            # thrust


def test_trim_infeasible_moment_raises(params):
    # constant nose-up moment that no elevator deflection can null
    stub = AeroModel(cl_base=(1.2,), cd_base=(0.1,), cm_base=(0.5,),
                     cl_q=0.0, cm_q=0.0, cl_de=0.0, cd_de=0.0, cm_de=-1e-9,
                     alpha_min=-1.0, alpha_max=1.0)
    with pytest.raises(TrimNotConverged):
        solve_trim(params, stub)


@pytest.mark.parametrize("limits, message", [
    ({"t_max": 1000.0},
     "no trim point at 69.1 m/s: trim thrust 22592 N outside [0, 1000]"),
    ({"elevator_min": -1e-6, "elevator_max": 1e-6},
     "no trim point at 69.1 m/s: trim elevator outside deflection range"),
], ids=["thrust", "elevator"])
def test_trim_outside_actuator_range_names_the_channel(params, model, limits,
                                                       message):
    with pytest.raises(TrimNotConverged) as info:
        solve_trim(replace(params, **limits), model)
    assert str(info.value) == message


@pytest.mark.parametrize("v_target, v_trim", [(5.0, 43.0), (30.0, 42.0)])
def test_trim_takes_the_first_feasible_candidate_airspeed(params, model,
                                                          v_target, v_trim):
    # the airspeed asked is the only candidate: 5 and 30 m/s do not trim
    # and raise naming themselves, though 43 and 42 m/s trim at themselves
    with pytest.raises(TrimNotConverged,
                       match=f"^no trim point at {v_target:g} m/s: "):
        solve_trim(params, model, v_target)
    assert solve_trim(params, model, v_trim).v_t_star == v_trim


@pytest.mark.parametrize("alpha_deg", [-4.9, -2.0, 0.0, 7.1, 20.0, 39.9])
@pytest.mark.parametrize("v", [40.0, 69.1, 120.0])
def test_closed_forms_zero_pitch_and_path_rates(params, model, v, alpha_deg):
    alpha = math.radians(alpha_deg)
    delta_e, _, xdot = trimlin._level_flight(v, alpha, params, model)
    v_dot, theta_dot, _, q_dot = xdot[:4]
    q_s = dynamic_pressure(v, params.rho) * params.s_ref
    cm_base = model.coefficients(alpha, 0.0, 0.0)[2]
    c_d = model.coefficients(alpha, 0.0, delta_e)[1]
    # a few ulps of the terms that cancel
    ulps = 4.0 * sys.float_info.epsilon
    assert abs(q_dot) <= ulps * q_s * params.c_bar * abs(cm_base) / params.j_y
    assert abs(v_dot) <= ulps * q_s * abs(c_d) / params.m
    assert theta_dot == 0.0


def test_default_model_residuals_at_rounding(trim):
    assert max(abs(r) for r in trim.residuals) <= 1e-12


def test_trim_off_table_iterate_names_the_airspeed(params, model, trim):
    # the table ends just below the trim alpha of 69.1 m/s
    narrow = replace(model, alpha_max=trim.alpha_star - math.radians(0.05))
    with pytest.raises(OutOfTableRange) as table:
        trimlin._newton_alpha(trim.v_t_star, params, narrow,
                              math.radians(5.0))
    with pytest.raises(TrimNotConverged) as info:
        solve_trim(params, narrow)
    assert str(info.value) == f"no trim point at 69.1 m/s: {table.value}"


def test_trim_propagates_balance_bugs(monkeypatch, params, model):
    real = trimlin.rigid_body_derivative
    calls = []

    def kernel(*args):
        calls.append(args)
        if len(calls) == 2:   # the first slope evaluation
            raise ZeroDivisionError("bug")
        return real(*args)

    monkeypatch.setattr(trimlin, "rigid_body_derivative", kernel)
    with pytest.raises(ZeroDivisionError, match="bug"):
        solve_trim(params, model)
    assert len(calls) == 2


def test_linearize_theta_row_is_identity(linear):
    assert list(linear.a[1]) == [0.0, 0.0, 0.0, 1.0]
    assert linear.a[1, 3] == 1.0


def _analytic_jacobian(trim, params, model):
    v, al = trim.v_t_star, trim.alpha_star
    thrust = trim.thrust_star
    de = trim.delta_e_star
    q_s = dynamic_pressure(v, params.rho) * params.s_ref
    q_sc = q_s * params.c_bar
    m, g, jy = params.m, params.g, params.j_y

    def polyval(c, x):
        acc = 0.0
        for ck in reversed(c):
            acc = acc * x + ck
        return acc

    def polyder(c, x):
        acc = 0.0
        for k in range(len(c) - 1, 0, -1):
            acc = acc * x + k * c[k]
        return acc

    cl = polyval(model.cl_base, al) + model.cl_de * de
    cd = polyval(model.cd_base, al) + model.cd_de * de
    cl_a = polyder(model.cl_base, al)
    cd_a = polyder(model.cd_base, al)
    cm_a = polyder(model.cm_base, al)
    lift, drag = q_s * cl, q_s * cd

    a = np.zeros((4, 4))
    b = np.zeros((4, 2))
    a[0, 0] = -2.0 * drag / (m * v)
    a[0, 1] = -g
    a[0, 2] = -thrust * math.sin(al) / m - q_s * cd_a / m + g
    a[1, 3] = 1.0
    a[2, 0] = (thrust * math.sin(al) - lift) / (m * v * v) - g / (v * v)
    a[2, 2] = -(thrust * math.cos(al) + q_s * cl_a) / (m * v)
    a[2, 3] = 1.0 - q_s * model.cl_q * params.c_bar / (2.0 * v * m * v)
    a[3, 2] = q_sc * cm_a / jy
    a[3, 3] = q_sc * model.cm_q * params.c_bar / (2.0 * v * jy)
    b[0, 0] = -q_s * model.cd_de / m
    b[0, 1] = params.t_max * math.cos(al) / m
    b[2, 0] = -q_s * model.cl_de / (m * v)
    b[2, 1] = -params.t_max * math.sin(al) / (m * v)
    b[3, 0] = q_sc * model.cm_de / jy
    return a, b


def test_finite_difference_matches_analytic_jacobian(trim, params, model, linear):
    a_ref, b_ref = _analytic_jacobian(trim, params, model)
    for i in range(4):
        for j in range(4):
            if a_ref[i, j] == 0.0:
                assert abs(linear.a[i, j]) < 1e-8
            else:
                assert linear.a[i, j] == pytest.approx(a_ref[i, j], rel=1e-4)
        for j in range(2):
            if b_ref[i, j] == 0.0:
                assert abs(linear.b[i, j]) < 1e-8
            else:
                assert linear.b[i, j] == pytest.approx(b_ref[i, j], rel=1e-4)


def test_default_model_matches_reference_linearization(linear):
    """Calibration target: pitch-dynamics entries of the reference model
    within +-20 % (most are matched near-exactly).

    Three entries are excluded by design and asserted at their
    physically consistent values instead: the airspeed-damping entry
    A[0,0] would require trim drag above the thrust limit, and the two
    thrust-column entries scale with the single-engine thrust limit
    rather than the reference's effective two-engine value.
    """
    d2r = math.pi / 180.0
    checked = {(0, 1): -9.81, (0, 2): -0.274, (2, 0): -0.0041,
               (2, 2): -0.59, (2, 3): 1.0, (3, 2): -0.26, (3, 3): -0.15}
    for (i, j), ref in checked.items():
        assert abs(linear.a[i, j] - ref) <= 0.2 * abs(ref), (i, j)
    b_deg = {(0, 0): -0.001, (2, 0): -0.00075, (3, 0): -0.015}
    for (i, j), ref in b_deg.items():
        assert abs(linear.b[i, j] * d2r - ref) <= 0.2 * abs(ref), (i, j)
    # excluded entries at their single-engine-consistent values
    assert linear.a[0, 0] == pytest.approx(-0.0433, abs=0.005)
    assert linear.b[0, 1] == pytest.approx(4.708, rel=0.02)
    assert linear.b[2, 1] == pytest.approx(-0.00849, rel=0.05)


def test_eigenmodes_labels_reference_matrix():
    modes = eigenmodes(REFERENCE_A)
    assert modes.labels == ("short-period",) * 2 + ("phugoid",) * 2
    by_label = {}
    for ev, label in zip(modes.eigenvalues, modes.labels):
        by_label.setdefault(label, []).append(ev)
    sp = by_label["short-period"]
    ph = by_label["phugoid"]
    assert len(sp) == 2 and len(ph) == 2
    assert abs(sp[0]) > abs(ph[0])
    assert sp[0].real == pytest.approx(-0.406, abs=1e-3)
    assert abs(ph[0].imag) == pytest.approx(0.1606, abs=1e-3)


def test_eigenmodes_degenerate_spectrum():
    modes = eigenmodes(np.diag([-1.0, -2.0, -3.0, -4.0]))
    assert modes.labels == (None,) * 4
    vals = sorted(z.real for z in modes.eigenvalues)
    assert vals == pytest.approx([-4.0, -3.0, -2.0, -1.0], abs=1e-9)


def test_eigenmodes_repeated_pair_is_degenerate():
    # two identical modes: neither is the faster, so nothing is labelled
    p = -0.4 + 1.2j
    block = [[p.real, -p.imag], [p.imag, p.real]]
    a = np.zeros((4, 4))
    a[:2, :2] = a[2:, 2:] = block
    modes = eigenmodes(a)
    assert modes.labels == (None,) * 4
    assert modes.eigenvalues == pytest.approx(
        (p, p, p.conjugate(), p.conjugate()), abs=1e-12)


def test_eigenmodes_second_order_blocks():
    w1, z1 = 3.0, 0.4
    w2, z2 = 0.5, 0.1
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    a[1, 0], a[1, 1] = -w1 ** 2, -2 * z1 * w1
    a[2, 3] = 1.0
    a[3, 2], a[3, 3] = -w2 ** 2, -2 * z2 * w2
    modes = eigenmodes(a)
    assert modes.labels == ("short-period",) * 2 + ("phugoid",) * 2
    expect_fast = complex(-z1 * w1, w1 * math.sqrt(1 - z1 ** 2))
    got = {label: ev for ev, label in zip(modes.eigenvalues, modes.labels)
           if ev.imag > 0}
    assert got["short-period"] == pytest.approx(expect_fast, abs=1e-9)
    expect_slow = complex(-z2 * w2, w2 * math.sqrt(1 - z2 ** 2))
    assert got["phugoid"] == pytest.approx(expect_slow, abs=1e-9)


def test_open_loop_throttle_step_agreement(trim, params, model, linear):
    """Linear and nonlinear airspeed responses to a small throttle step
    agree within 5 % of the peak excursion over 10 s."""
    dt = 0.001
    d_dt = 0.02  # throttle-fraction step
    thrust = trim.thrust_star + d_dt * params.t_max

    def f_nl(_t, s):
        return state_derivative(*s, trim.delta_e_star, thrust, 0.0, 0.0,
                                model, params)[:4]

    a, b = linear.a, linear.b
    du = np.array([0.0, d_dt])

    def f_lin(_t, s):
        return tuple(a @ np.asarray(s) + b @ du)

    y_nl = (trim.v_t_star, trim.theta_star, trim.alpha_star, 0.0)
    y_ln = (0.0, 0.0, 0.0, 0.0)
    err = 0.0
    peak = 0.0
    for k in range(10000):
        y_nl = rk4_step(f_nl, y_nl, k * dt, dt)
        y_ln = rk4_step(f_lin, y_ln, k * dt, dt)
        dv_nl = y_nl[0] - trim.v_t_star
        err = max(err, abs(dv_nl - y_ln[0]))
        peak = max(peak, abs(dv_nl))
    assert peak > 0.05  # the step actually moved the airspeed
    assert err <= 0.05 * peak
