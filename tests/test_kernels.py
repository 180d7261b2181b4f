"""Bit-exactness of the hot-path kernels against straightforward references.

The references below are the plain forms of each kernel: RK4 stages
built as tuples from generators, coefficient tables evaluated with the
generic polynomial loop, and the observer injection taking the sign of
the error once per term.  Every rewritten kernel must return the same
floats, down to the sign of zero, so traces stay byte-identical.  The
deck filters' exact zero-order-hold step replaced an RK4 step, so it is
held to rk4_step and to an eigendecomposition within stated tolerances.
"""

import inspect
import itertools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from carrierland.actuation import (ELEVATOR_OMEGA, ELEVATOR_ZETA, ENGINE_TAU,
                                   actuator_derivative,
                                   project_actuator_states)
from carrierland import control
from carrierland.airframe import (AircraftParams, OutOfTableRange,
                                  default_aero_model, rigid_body_derivative,
                                  state_derivative)
from carrierland.environment import (SHIP_DENOM, SHIP_HEAVE_POWER_DB,
                                     SHIP_PITCH_POWER_DB, ShipParams,
                                     ShipState, WindSample, _deck_zoh,
                                     _held_sigma, _ship_filter_derivative,
                                     deck_motion, held_ship_inputs,
                                     rng_streams, ship_step)
from carrierland.config import ScenarioConfig
from carrierland.integrate import rk4_step
from carrierland.observer import ObserverParams, observer_derivative
from carrierland import sim
from carrierland.sim import (TRACE_BLOCK_ROWS, TRACE_HEADER, Trace,
                             write_trace_csv)


def _bits(values):
    """Bit patterns of a float sequence: tells -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]


# ----------------------------------------------------------------- RK4

def ref_rk4_step(f, y, t, dt):
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k1)))
    k3 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k2)))
    k4 = f(t + dt, tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    sixth = dt / 6.0
    return tuple(yi + sixth * (a + 2.0 * (b + c) + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def _cubic_decay(t, s):
    return (-s[0] ** 3 + math.sin(t),)


def _lorenz(_t, s):
    x, y, z = s
    return (10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z)


def _ring20(t, s):
    n = len(s)
    return tuple(math.sin(s[(i + 1) % n]) - 0.3 * s[i] + 0.01 * math.cos(t * i)
                 for i in range(n))


def _np_damped(t, s):
    s = np.asarray(s)
    return -0.4 * s + np.sin(t + s[::-1])


def _empty(_t, _s):
    return ()


@pytest.mark.parametrize("f, y0", [
    (_cubic_decay, (0.7,)),
    (_lorenz, (1.0, -2.5, 20.0)),
    (_ring20, tuple(0.1 * i - 0.95 for i in range(20))),
    (_lorenz, [1.0, -2.5, 20.0]),
    (_np_damped, np.array([0.3, -1.2, 2.0, 0.0, -0.0])),
    (_empty, ()),
])
def test_rk4_matches_reference(f, y0):
    # every step takes its state in the container type of y0
    as_state = np.array if isinstance(y0, np.ndarray) else type(y0)
    y_new = y_ref = y0
    dt = 0.013
    for k in range(50):
        y_new = rk4_step(f, as_state(y_new), k * dt, dt)
        y_ref = ref_rk4_step(f, as_state(y_ref), k * dt, dt)
        assert type(y_new) is tuple
        assert y_new == y_ref
        assert _bits(y_new) == _bits(y_ref)
    assert len(y_new) == len(y0)


def test_rk4_kernel_traceback_shows_generated_line():
    def f(t, s):
        if t > 0.0:
            raise OutOfTableRange("stage")
        return (1.0, 2.0)

    with pytest.raises(OutOfTableRange) as info:
        rk4_step(f, (0.0, 0.0), 0.0, 0.1)
    frame = info.traceback[-2]
    assert str(frame.path) == "<rk4 kernel n=2>"
    assert "= f(t + half, [y0 + half * a0, y1 + half * a1])" in str(
        frame.statement)


# the engine's scenarios, short, with every disturbance of each one on
_ENGINE_CASES = [
    dict(scenario="approach", wind_on=True, noise_on=True, ship_on=True,
         ship_warmup_s=0.5, duration=3.0, seed=3),
    dict(scenario="pitch_step", wind_on=True, noise_on=True, duration=2.0,
         seed=5),
    dict(scenario="sink_step", duration=2.0, trace_decimation=1, seed=7),
]


def _result_record(result):
    return ([_bits(row) for row in result.trace], repr(result.metrics),
            result.aborted, repr(result.abort_time), result.abort_reason)


@pytest.mark.parametrize("controller", ["opd", "pid", "opd_truth"])
@pytest.mark.parametrize("case", _ENGINE_CASES,
                         ids=[c["scenario"] for c in _ENGINE_CASES])
def test_engine_runs_match_reference_rk4(monkeypatch, case, controller):
    cfg = ScenarioConfig(controller=controller, **case)
    shipped = sim.run_scenario(cfg)
    monkeypatch.setattr(sim, "rk4_step", ref_rk4_step)
    reference = sim.run_scenario(cfg)
    assert shipped.trace
    assert _result_record(shipped) == _result_record(reference)


# -------------------------------------------------------- aero tables

def ref_check_alpha(model, alpha):
    if not (model.alpha_min <= alpha <= model.alpha_max):
        raise OutOfTableRange(
            f"alpha = {math.degrees(alpha)!r} deg outside table range "
            f"[{math.degrees(model.alpha_min):.1f}, "
            f"{math.degrees(model.alpha_max):.1f}] deg")


def ref_polyval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ref_coefficients(model, alpha, q_hat, delta_e):
    ref_check_alpha(model, alpha)
    cl = ref_polyval(model.cl_base, alpha) + model.cl_q * q_hat \
        + model.cl_de * delta_e
    cd = ref_polyval(model.cd_base, alpha) + model.cd_de * delta_e
    cm = ref_polyval(model.cm_base, alpha) + model.cm_q * q_hat \
        + model.cm_de * delta_e
    return cl, cd, cm


def _models():
    cubic = default_aero_model()
    quadratic = replace(cubic, cl_base=cubic.cl_base[:3],
                        cd_base=cubic.cd_base[:3], cm_base=cubic.cm_base[:3])
    quartic = replace(cubic, cl_base=cubic.cl_base + (0.4,),
                      cd_base=cubic.cd_base + (-0.2,),
                      cm_base=cubic.cm_base + (0.05,))
    zero_lead = replace(cubic, cl_base=cubic.cl_base[:3] + (-0.0,))
    return {"cubic": cubic, "quadratic": quadratic, "quartic": quartic,
            "cubic_zero_lead": zero_lead}


def _alpha_grid(model, n=120):
    lo, hi = model.alpha_min, model.alpha_max
    grid = [lo + (hi - lo) * i / n for i in range(n + 1)]
    return grid + [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo),
                   0.0, -0.0]


@pytest.mark.parametrize("name", sorted(_models()))
def test_coefficients_match_reference(name):
    model = _models()[name]
    for alpha in _alpha_grid(model):
        for q_hat in (-0.02, 0.0, 0.013):
            for delta_e in (-0.3, -0.0, 0.1):
                got = model.coefficients(alpha, q_hat, delta_e)
                ref = ref_coefficients(model, alpha, q_hat, delta_e)
                assert got == ref
                assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("name", sorted(_models()))
def test_coefficients_out_of_range_message_unchanged(name):
    model = _models()[name]
    outside = (math.nextafter(model.alpha_min, -math.inf),
               math.nextafter(model.alpha_max, math.inf),
               model.alpha_min - 0.5, model.alpha_max + 0.5,
               math.inf, -math.inf, math.nan)
    for alpha in outside:
        with pytest.raises(OutOfTableRange) as ref:
            ref_check_alpha(model, alpha)
        with pytest.raises(OutOfTableRange) as got:
            model.coefficients(alpha, 0.0, 0.0)
        assert str(got.value) == str(ref.value)


def test_coefficient_models_compare_by_fields():
    cubic = default_aero_model()
    assert replace(cubic) == cubic
    assert hash(replace(cubic)) == hash(cubic)


# ------------------------------------------------------------ observer

def ref_frac_pow(e, a):
    if e > 0.0:
        return math.pow(e, a)
    if e < 0.0:
        return -math.pow(-e, a)
    return 0.0


def ref_observer_derivative(state, y_op, h, p):
    x1, x2, x3 = state[0], state[1], state[2]
    e = x1 - y_op
    eps = p.epsilon
    d1 = x2 - (p.k3 / eps) * ref_frac_pow(e, p.alpha3)
    d2 = x3 + h - (p.k2 / (eps * eps)) * ref_frac_pow(e, p.alpha2)
    d3 = -(p.k1 / (eps ** 3)) * ref_frac_pow(e, p.alpha1)
    return d1, d2, d3


@pytest.mark.parametrize("p", [
    ObserverParams(),
    ObserverParams(6.0, 11.0, 6.0, 0.6, 0.05),
    ObserverParams(0.75, 2.75, 3.0, 0.99, 0.9),
    ObserverParams(2.0, 1.0, 5.0, 0.1, 0.5),
])
def test_observer_derivative_matches_reference(p):
    cases = []
    for e in (0.3, 1e-9, 2.5e-300, -0.3, -1e-9, -7.0, 0.0, -0.0):
        for x2, x3, h in ((0.5, -0.3, 0.2), (-0.0, 0.0, -0.0),
                          (12.0, 1e3, -4.0)):
            cases.append(((0.1 + e, x2, x3), 0.1, h))
            cases.append(((e, x2, x3), 0.0, h))
    cases.append(((0.2, 0.0, 0.1), 0.2, 0.7))         # e == 0 exactly
    cases.append(((math.nan, 0.5, 0.25), 0.0, 0.1))   # e is NaN: no injection
    for state, y_op, h in cases:
        got = observer_derivative(state, y_op, h, p)
        ref = ref_observer_derivative(state, y_op, h, p)
        assert type(got) is tuple
        assert _bits(got) == _bits(ref), (state, y_op, h)
    # stage states reach the observer as lists inside RK4
    assert observer_derivative([0.3, 0.1, -0.2], 0.05, 0.4, p) == \
        ref_observer_derivative((0.3, 0.1, -0.2), 0.05, 0.4, p)


def test_observer_params_keep_exponent_properties():
    p = ObserverParams(alpha1=0.6)
    assert p.alpha2 == (2.0 * 0.6 + 1.0) / 3.0
    assert p.alpha3 == (0.6 + 2.0) / 3.0
    assert replace(p, epsilon=0.2) == ObserverParams(alpha1=0.6, epsilon=0.2)


# ----------------------------------------------------------- rigid body

def ref_engine_rigid_body(s, u_g, w_g, model, params):
    """The airframe block of the engine's RK4 derivative, written inline."""
    sin, cos, atan2, hypot = math.sin, math.cos, math.atan2, math.hypot
    c_bar, rho, s_ref = params.c_bar, params.rho, params.s_ref
    mass, grav, j_y = params.m, params.g, params.j_y
    windy = u_g != 0.0 or w_g != 0.0
    sv, sth, sal, sq, st_eng, sde = s
    ga = sth - sal
    sin_g = sin(ga)
    cos_g = cos(ga)
    if windy:
        vax = sv * cos_g - u_g
        vaz = sv * sin_g - w_g
        v_air = hypot(vax, vaz)
        alpha_air = sth - atan2(vaz, vax)
    else:
        v_air = sv
        alpha_air = sal
    q_hat = sq * c_bar / (2.0 * v_air)
    cl, cd, cm = model.coefficients(alpha_air, q_hat, sde)
    qbar_s = 0.5 * rho * v_air * v_air * s_ref
    lift = qbar_s * cl
    drag = qbar_s * cd
    moment = qbar_s * c_bar * cm
    sin_a = sin(sal)
    cos_a = cos(sal)
    dv = (st_eng * cos_a - drag) / mass - grav * sin_g
    dal = sq - (st_eng * sin_a + lift) / (mass * sv) \
        + grav * cos_g / sv
    return (dv, sq, dal, moment / j_y,
            sv * cos_g + u_g, sv * sin_g + w_g)


def _rigid_body_grid():
    for v in (45.0, 69.1, 92.3):
        for theta in (-0.12, 0.0, 0.141):
            for alpha in (-0.05, 0.0, 0.1412, 0.4):
                for q in (-0.3, -0.0, 0.07):
                    for de in (-0.4, 0.0, 0.1):
                        for thrust in (0.0, 31234.5):
                            yield v, theta, alpha, q, de, thrust


@pytest.mark.parametrize("u_g, w_g", [
    (0.0, 0.0), (-0.0, 0.0), (4.2, 0.0), (0.0, -1.3), (-6.1, 2.7),
])
def test_rigid_body_kernel_matches_engine_block(u_g, w_g):
    model, params = default_aero_model(), AircraftParams()
    for v, theta, alpha, q, de, thrust in _rigid_body_grid():
        ref = ref_engine_rigid_body((v, theta, alpha, q, thrust, de),
                                    u_g, w_g, model, params)
        got = rigid_body_derivative(v, theta, alpha, q, de, thrust,
                                    u_g, w_g, model, params)
        assert type(got) is tuple
        assert _bits(got) == _bits(ref), (v, theta, alpha, q, de, thrust)
        checked = state_derivative(v, theta, alpha, q, de, thrust,
                                   u_g, w_g, model, params)
        assert _bits(checked) == _bits(ref)


# ------------------------------------------------------------ actuators

def ref_engine_actuators(st_eng, sde, sde_rate, thrust_cmd, de_cmd):
    """The actuator terms of the engine's RK4 derivative, written inline."""
    omega_a = ELEVATOR_OMEGA
    zeta_a = ELEVATOR_ZETA
    two_zw = 2.0 * zeta_a * omega_a
    w2a = omega_a * omega_a
    tau_eng = ENGINE_TAU
    return ((thrust_cmd - st_eng) / tau_eng, sde_rate,
            w2a * (de_cmd - sde) - two_zw * sde_rate)


def ref_engine_projection(t_eng, de, de_rate, params):
    """The actuator-state projection after each engine step, inline."""
    t_max = params.t_max
    elevator_min = params.elevator_min
    elevator_max = params.elevator_max
    projected = False
    if t_eng < 0.0:
        t_eng = 0.0
        projected = True
    elif t_eng > t_max:
        t_eng = t_max
        projected = True
    if de < elevator_min:
        de = elevator_min
        if de_rate < 0.0:
            de_rate = 0.0
        projected = True
    elif de > elevator_max:
        de = elevator_max
        if de_rate > 0.0:
            de_rate = 0.0
        projected = True
    return t_eng, de, de_rate, projected


def test_actuator_kernel_matches_engine_terms():
    values = (-1e5, -0.0, 0.0, 123.25, 31234.567, 71172.0, 9e4)
    angles = (-0.5, -0.0, 0.0, 0.03, -0.0123456, 0.2, 1.0 / 3.0)
    for thrust in values:
        for thrust_cmd in values:
            for de in angles:
                for de_cmd in angles:
                    for de_rate in (-3.0, -0.0, 0.0, 1.5, 0.777):
                        args = (thrust, de, de_rate, thrust_cmd, de_cmd)
                        assert _bits(actuator_derivative(*args)) == \
                            _bits(ref_engine_actuators(*args)), args


def test_actuator_projection_matches_engine_block():
    params = AircraftParams()
    lo, hi = params.elevator_min, params.elevator_max
    odd = (-math.inf, math.inf, math.nan)
    thrusts = (-1.0, -0.0, 0.0, 5e4, params.t_max,
               math.nextafter(params.t_max, math.inf), 1e6) + odd
    deflections = (lo - 0.1, math.nextafter(lo, -1.0), lo, -0.0, 0.0, hi,
                   math.nextafter(hi, 1.0), hi + 0.1) + odd
    rates = (-2.0, -5e-324, -0.0, 0.0, 5e-324, 2.0) + odd
    seen = set()
    for thrust in thrusts:
        for de in deflections:
            for de_rate in rates:
                got = project_actuator_states(thrust, de, de_rate, params)
                ref = ref_engine_projection(thrust, de, de_rate, params)
                assert _bits(got[:3]) == _bits(ref[:3])
                assert got[3] is ref[3]
                seen.add(got[3])
    assert seen == {True, False}


# ----------------------------------------------------------------- deck

def ref_engine_deck(h0, h1, p2, p3, x_g, ship_on=True):
    """The landing-point lines and rates of the engine's step head."""
    sin, cos = math.sin, math.cos
    z_g = 1.21 * h0
    theta_s = 0.773 * p2
    lp_x = x_g - 81.0 * cos(theta_s)
    lp_z = z_g - 81.0 * sin(theta_s)
    if ship_on:
        th_s_rate = 0.773 * p3
        xl_rate = 81.0 * sin(theta_s) * th_s_rate
        zl_rate = 1.21 * h1 - 81.0 * cos(theta_s) * th_s_rate
    else:
        xl_rate = zl_rate = 0.0
    return z_g, theta_s, lp_x, lp_z, xl_rate, zl_rate


def test_deck_motion_matches_engine_lines():
    grid = (-2.1, -0.013, -0.0, 0.0, 0.07, 3.3)
    for h0 in grid:
        for h1 in grid:
            for p2 in grid:
                for p3 in grid:
                    got = deck_motion(h0, h1, p2, p3)
                    ref = ref_engine_deck(h0, h1, p2, p3, 0.0)
                    assert _bits(got) == _bits(ref)
    # ship motion off: the filters rest at +0.0 and the rates are +0.0
    assert _bits(deck_motion(0.0, 0.0, 0.0, 0.0)) == \
        _bits(ref_engine_deck(0.0, 0.0, 0.0, 0.0, 0.0, ship_on=False))


def ref_engine_ship_draws(rng, params, dt, n, first, u_heave, u_pitch,
                          ship_on=True):
    """The engine's held deck-noise draws over n deck steps from step
    first, one (since, u_h, u_p) per step, since counting the steps since
    the last draw with a counter of its own."""
    sig_h = _held_sigma(SHIP_HEAVE_POWER_DB, params.dt_noise) \
        * params.noise_gain
    sig_p = _held_sigma(SHIP_PITCH_POWER_DB, params.dt_noise) \
        * params.noise_gain
    hold = max(1, round(params.dt_noise / dt))
    since = (first - 1) % hold
    out = []
    for _ in range(n):
        if since + 1 >= hold:
            if ship_on:
                u_heave = rng.normal(0.0, sig_h)
                u_pitch = rng.normal(0.0, sig_p)
            since = 0
        else:
            since += 1
        out.append((since, u_heave, u_pitch))
    return out


def ref_ship_step(state, dt, rng, p):
    """ship_step with its draw and hold logic written inline."""
    hold = max(1, round(p.dt_noise / dt))
    if state.steps % hold == 0:
        u_h = rng.normal(0.0, _held_sigma(SHIP_HEAVE_POWER_DB, p.dt_noise)
                         * p.noise_gain)
        u_p = rng.normal(0.0, _held_sigma(SHIP_PITCH_POWER_DB, p.dt_noise)
                         * p.noise_gain)
    else:
        u_h, u_p = state.u_heave, state.u_pitch
    return state.steps + 1, u_h, u_p


@pytest.mark.parametrize("dt_noise, last", [
    (0.1, -1), (0.1, 37), (0.05, 49), (0.001, -1), (0.02, 3),
])
def test_held_ship_draws_match_engine(dt_noise, last):
    # last: the deck step before the first one (-1: none), so the first
    # step counts 0, 38, 50, 0 and 4
    dt = 0.001
    p = ShipParams(dt_noise=dt_noise, noise_gain=0.23)
    hold = max(1, round(dt_noise / dt))
    n = 5 * hold + 7      # several holds
    steps = range(last + 1, last + 1 + n)
    ref = ref_engine_ship_draws(rng_streams(11)["ship"], p, dt, n,
                                steps[0], 0.25, -0.5)
    rng = rng_streams(11)["ship"]
    u_h, u_p = 0.25, -0.5
    got = []
    for k in steps:
        u_h, u_p = held_ship_inputs(k, u_h, u_p, hold, rng, p)
        got.append((k % hold, u_h, u_p))
    assert [r[0] for r in got] == [r[0] for r in ref]
    assert _bits(v for r in got for v in r[1:]) == \
        _bits(v for r in ref for v in r[1:])
    assert len({r[1] for r in got}) > 3          # it did redraw
    # ship motion off: no draws, the hold phase still cycles
    off = ref_engine_ship_draws(None, p, dt, n, steps[0], 0.0, 0.0,
                                ship_on=False)
    u_h, u_p = 0.0, 0.0
    for k, r in zip(steps, off):
        u_h, u_p = held_ship_inputs(k, u_h, u_p, hold, None, p)
        assert (k % hold, u_h, u_p) == r


def test_ship_step_draws_match_reference():
    p = ShipParams()
    st = ShipState()
    rng, ref_rng = rng_streams(5)["ship"], rng_streams(5)["ship"]
    for _ in range(450):
        ref = ref_ship_step(st, 1e-3, ref_rng, p)
        st = ship_step(st, 1e-3, rng, p)
        assert (st.steps, st.u_heave, st.u_pitch) == ref


def test_deck_zoh_matches_rk4_step():
    # 60 s of both deck filters at dt = 1e-3: the exact zero-order-hold
    # step against rk4_step of the filter derivative on the same inputs
    dt = 1e-3
    st, p = ShipState(), ShipParams()
    rng = rng_streams(1)["ship"]
    heave = pitch = (0.0, 0.0, 0.0, 0.0)
    worst = 0.0
    for _ in range(60000):
        st = ship_step(st, dt, rng, p)
        u_h, u_p = st.u_heave, st.u_pitch
        heave = rk4_step(lambda _t, s: _ship_filter_derivative(s, u_h),
                         heave, 0.0, dt)
        pitch = rk4_step(lambda _t, s: _ship_filter_derivative(s, u_p),
                         pitch, 0.0, dt)
        for got, ref in ((st.heave_filter, heave), (st.pitch_filter, pitch)):
            scale = max(map(abs, ref))
            worst = max(worst, max(abs(a - b) for a, b in zip(got, ref))
                        / scale)
    assert 0.0 < worst < 1e-10


@pytest.mark.parametrize("dt", [1e-3, 0.01, 0.1])
def test_ship_filter_rk4_matches_rk4_step(dt):
    # one deck-filter step, exact zero-order hold against rk4_step, over a
    # grid of states and inputs: RK4's local error is O(dt^5) and the
    # filter's matrix norm is near 2, so dt^5 bounds it, plus roundoff
    _, phi, gam = _deck_zoh(dt, 0.1)
    grid = (-2.1, -0.013, -0.0, 0.0, 0.07, 3.3)
    for x in itertools.product(grid, repeat=4):
        for u in (-1.7, -0.0, 0.0, 0.4):
            ref = rk4_step(lambda _t, s: _ship_filter_derivative(s, u), x,
                           0.0, dt)
            got = [sum(phi[4 * i + j] * x[j] for j in range(4))
                   + gam[i] * u for i in range(4)]
            scale = max(max(map(abs, x)), abs(u))
            err = max(abs(a - b) for a, b in zip(got, ref))
            assert err <= (dt ** 5 + 1e-15) * scale


_DECK_A = np.array([[0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [-c for c in SHIP_DENOM[::-1]]])


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0, 10.0])
def test_deck_zoh_phi_matches_eigendecomposition(dt):
    # relative to the largest element: Phi(1e-3) has elements near 1e-10
    lam, vec = np.linalg.eig(_DECK_A)
    ref = (vec @ np.diag(np.exp(lam * dt)) @ np.linalg.inv(vec)).real
    phi = np.array(_deck_zoh(dt, 0.1)[1]).reshape(4, 4)
    assert np.abs(phi - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("u", [1.0, -0.37, 2.9e-3])
def test_deck_zoh_keeps_dc_state(dt, u):
    # x = (u/a0, 0, 0, 0) is the equilibrium of the filter under input u
    _, phi, gam = _deck_zoh(dt, 0.1)
    x = (u / SHIP_DENOM[3], 0.0, 0.0, 0.0)
    for i in range(4):
        got = sum(phi[4 * i + j] * x[j] for j in range(4)) + gam[i] * u
        assert abs(got - x[i]) <= 1e-14 * abs(x[0])


# ---------------------------------------------------------- wind sample

def test_wind_sample_fields_defaults_and_immutability():
    names = list(inspect.signature(WindSample).parameters)
    assert names == ["u_g", "w_g", "u1", "u2", "u3", "w1", "w2", "w3"]
    w = WindSample(1.5, -2.0)
    assert (w.u_g, w.w_g) == (1.5, -2.0)
    assert (w.u1, w.u2, w.u3, w.w1, w.w2, w.w3) == (0.0,) * 6
    full = WindSample(u_g=1.0, w_g=2.0, u1=3.0, u2=4.0, u3=5.0,
                      w1=6.0, w2=7.0, w3=8.0)
    assert (full.u1, full.w3) == (3.0, 8.0)
    assert WindSample(1.0, 2.0) == WindSample(u_g=1.0, w_g=2.0)
    with pytest.raises(AttributeError):
        w.u_g = 0.0
    with pytest.raises(AttributeError):
        w.u1 = 0.0
    with pytest.raises(TypeError):
        WindSample(1.0)


# --------------------------------------------------------- trace writer

def ref_write_trace_csv(path, rows):
    """The trace CSV row by row: each cell format(v, ".10g")."""
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".10g") for v in row) + "\n")


def _trace_of(rows):
    trace = Trace()
    for row in rows:
        trace.append(row)
    return trace


def _row(*head):
    floats = list(head) + [0.125 * i for i in range(30 - len(head))]
    return tuple(floats) + (1, 0)


def test_trace_writer_matches_fmt(tmp_path):
    rows = [
        _row(),
        _row(-0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300,
             5e-324, -5e-324, 2.2250738585072014e-308 / 3,
             1.7976931348623157e308, 1.0 / 3.0, 123456789.0123,
             1e16, 1e-5, -2.5e-7, 29.111000000012595),
        _row(0.1, 0.2, 0.30000000000000004),
        _row(np.float64(0.1), np.float64(-0.0), np.float64(math.inf)),
        _row(math.nan),
    ]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_trace_csv(got, _trace_of(rows))
    ref_write_trace_csv(ref, rows)
    assert got.read_bytes() == ref.read_bytes()
    assert got.read_text().count(",1,0\n") == len(rows)


@pytest.mark.parametrize("n_rows", [0, 1, TRACE_BLOCK_ROWS,
                                    TRACE_BLOCK_ROWS + 1])
def test_trace_writer_blocks_match_rows(tmp_path, n_rows):
    rows = [_row(i * 0.1, -i / 7.0, 1e10 + i) for i in range(n_rows)]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_trace_csv(got, _trace_of(rows))
    ref_write_trace_csv(ref, rows)
    assert got.read_bytes() == ref.read_bytes()
    assert len(got.read_text().splitlines()) == n_rows + 1


# ------------------------------------------------------ PID-family laws
# The four laws before they shared control._PIDElement, as they were.

def _ref_clamp(value, limit):
    if value > limit:
        return limit
    if value < -limit:
        return -limit
    return value


class RefPitchPID:
    def __init__(self, gains, trim, integrator_limit=10.0):
        self.g = gains
        self.delta_e_trim = trim.delta_e_star
        self._int = 0.0
        self._int_limit = integrator_limit
        self._e_filt = None
        self._e_prev = 0.0

    def step(self, theta_r, theta_meas, dt):
        g = self.g
        e = theta_r - theta_meas
        if self._e_filt is None or dt <= 0.0:
            if self._e_filt is None:
                self._e_filt = e
            e_rate = 0.0
        else:
            tau = g.rate_filter_tau
            alpha = dt / (tau + dt)
            e_filt_new = self._e_filt + alpha * (e - self._e_filt)
            e_rate = (e_filt_new - self._e_filt) / dt
            self._e_filt = e_filt_new
        self._int = _ref_clamp(self._int + 0.5 * (e + self._e_prev) * dt,
                               self._int_limit)
        self._e_prev = e
        u = g.kp_theta2 * e + g.ki_theta * self._int + g.kd_theta2 * e_rate
        dde_deg = u / g.dqdot_dde
        return self.delta_e_trim + dde_deg * control.DEG2RAD


class RefVelocityPID:
    def __init__(self, gains, trim, params):
        self.g = gains
        self.thrust_trim = trim.thrust_star
        self.m = params.m
        self._int = 0.0
        self._e_prev = 0.0

    def preload(self, integral):
        self._int = integral

    def step(self, v_r, v_meas, vdot_meas, dt):
        g = self.g
        e = v_r - v_meas
        e_rate = -vdot_meas
        self._int += 0.5 * (e + self._e_prev) * dt
        self._int = _ref_clamp(self._int, g.integrator_limit)
        self._e_prev = e
        u = g.kp_v * e + g.ki_v * self._int + g.kd_v * e_rate
        return self.thrust_trim + self.m * u


class RefSinkPI:
    def __init__(self, gains, trim, dt=0.001):
        self.g = gains
        self.theta_trim = trim.theta_star
        self._int = 0.0
        self._e_prev = 0.0
        self._e_filt = None
        self._notch = (control.NotchFilter(gains.sink_notch_omega,
                                           gains.sink_notch_zeta, dt)
                       if gains.sink_notch_omega > 0.0 else None)

    def preload(self, integral):
        self._int = integral

    def step(self, zdot_r, zdot_meas, dt):
        g = self.g
        e = zdot_r - zdot_meas
        if self._notch is not None:
            e = self._notch.step(e)
        tau = g.sink_filter_tau
        if tau > 0.0:
            if self._e_filt is None:
                self._e_filt = e
            else:
                self._e_filt += dt / (tau + dt) * (e - self._e_filt)
            e = self._e_filt
        self._int += 0.5 * (e + self._e_prev) * dt
        self._int = _ref_clamp(self._int, g.integrator_limit)
        self._e_prev = e
        return self.theta_trim + g.kp_s * e + g.ki_s * self._int


class RefGuidancePID:
    def __init__(self, gains):
        self.g = gains
        self._int = 0.0
        self._e_prev = 0.0
        self._e_filt = None

    def step(self, z_r, z_meas, dt, feedforward=0.0):
        g = self.g
        e = z_r - z_meas
        if self._e_filt is None or dt <= 0.0:
            if self._e_filt is None:
                self._e_filt = e
            e_rate = 0.0
        else:
            tau = g.deriv_filter_tau
            alpha = dt / (tau + dt)
            e_filt_new = self._e_filt + alpha * (e - self._e_filt)
            e_rate = (e_filt_new - self._e_filt) / dt
            self._e_filt = e_filt_new
        self._int += 0.5 * (e + self._e_prev) * dt
        self._int = _ref_clamp(self._int, g.integrator_limit)
        self._e_prev = e
        return feedforward + g.kp_z * e + g.ki_z * self._int + g.kd_z * e_rate


# gains unlike the defaults and unlike each other, so a gain or limit
# read from the wrong place changes a bit; the pitch law's config and the
# outer laws' each have an integrator_limit of their own
_PID_PITCH = ScenarioConfig(kp_theta2=41.3, ki_theta=23.7, kd_theta2=9.1,
                            dqdot_dde=-0.0173, rate_filter_tau=0.02,
                            integrator_limit=0.37)
_PID_OUTER = ScenarioConfig(kp_v=1.3, ki_v=0.47, kd_v=0.61, kp_s=0.0071,
                            ki_s=0.023, kp_z=0.33, ki_z=0.027, kd_z=0.29,
                            deriv_filter_tau=0.04, integrator_limit=0.71)


def _pid_inputs(seed):
    """(reference, measurement, extra) per step.

    The error sits high, then low, then wanders, so the integrators clamp
    at +limit and at -limit and come off both.
    """
    rng = np.random.default_rng(seed)
    e = np.concatenate([rng.uniform(20.0, 80.0, 80),
                        rng.uniform(-80.0, -20.0, 160),
                        rng.normal(0.0, 3.0, 160)])
    ref = rng.normal(0.0, 5.0, e.size)
    extra = rng.normal(0.0, 2.0, e.size)
    return [(float(r), float(r - x), float(a))
            for r, x, a in zip(ref, e, extra)]


def _pid_laws(kind, trim, params, outer, dt):
    """(shipped law built at dt, reference law, step-argument builder) of
    one kind; the builder gives the law's and the reference's arguments,
    the reference taking dt on every step."""
    if kind == "pitch":
        return (control.PitchPID(_PID_PITCH, trim, dt),
                RefPitchPID(_PID_PITCH, trim, _PID_PITCH.integrator_limit),
                lambda r, m, _a: ((r, m), (r, m, dt), {}))
    if kind == "velocity":
        # the reference gets the measurement's rate from the harness: 0
        # on the first step, then the difference of successive ones
        prev = []

        def args(r, m, _a):
            vdot = (m - prev[-1]) / dt if prev else 0.0
            prev.append(m)
            return (r, m), (r, m, vdot, dt), {}
        return (control.VelocityPID(outer, trim, params, dt),
                RefVelocityPID(outer, trim, params), args)
    if kind == "sink":
        return (control.SinkPI(outer, trim, dt), RefSinkPI(outer, trim, dt),
                lambda r, m, _a: ((r, m), (r, m, dt), {}))
    if kind == "guidance_ff":
        return (control.GuidancePID(outer, dt), RefGuidancePID(outer),
                lambda r, m, a: ((r, m), (r, m, dt), {"feedforward": a}))
    # the reference's default feedforward, passed to the law
    return (control.GuidancePID(outer, dt), RefGuidancePID(outer),
            lambda r, m, _a: ((r, m, 0.0), (r, m, dt), {}))


_LAG = {"sink_filter_tau": 0.03}
_NO_NOTCH = {"sink_notch_omega": 0.0}


@pytest.mark.parametrize("kind, outer_overrides, preload, dt", [
    pytest.param("pitch", {}, None, 0.01, id="pitch"),
    pytest.param("velocity", {}, None, 0.01, id="velocity"),
    pytest.param("velocity", {}, 0.5, 0.004, id="velocity_preload"),
    pytest.param("sink", {}, None, 0.01, id="sink_notch"),
    pytest.param("sink", {}, -0.4, 0.01, id="sink_notch_preload"),
    pytest.param("sink", _NO_NOTCH, None, 0.01, id="sink_plain"),
    pytest.param("sink", _LAG, None, 0.01, id="sink_notch_lag"),
    pytest.param("sink", _LAG, 0.3, 0.004, id="sink_notch_lag_preload"),
    pytest.param("sink", {**_LAG, **_NO_NOTCH}, None, 0.01, id="sink_lag"),
    pytest.param("guidance", {}, None, 0.01, id="guidance"),
    pytest.param("guidance_ff", {}, None, 0.01, id="guidance_feedforward"),
])
def test_pid_family_laws_match_reference(trim, params, kind, outer_overrides,
                                         preload, dt):
    outer = replace(_PID_OUTER, **outer_overrides)
    law, ref, args = _pid_laws(kind, trim, params, outer, dt)
    limit = (_PID_PITCH if kind == "pitch" else outer).integrator_limit
    if preload is not None:
        law.preload(preload)
        ref.preload(preload)
    got, want, clamped = [], [], set()
    for step in _pid_inputs(2411):
        law_args, ref_args, kw = args(*step)
        got += [law.step(*law_args, **kw), law._int]
        want += [ref.step(*ref_args, **kw), ref._int]
        if abs(ref._int) == limit:
            clamped.add(ref._int)
    assert _bits(got) == _bits(want)
    assert clamped == {limit, -limit}
