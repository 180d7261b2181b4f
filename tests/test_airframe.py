import json
import math
from importlib import resources

import pytest

from carrierland.airframe import (AeroModel, AircraftParams,
                                  NonFiniteDerivative, OutOfTableRange,
                                  dynamic_pressure, state_derivative)
from carrierland.integrate import rk4_step


def _trim_args(trim):
    """(v, theta, alpha, q, delta_e, thrust) of a trim point."""
    return (trim.v_t_star, trim.theta_star, trim.alpha_star, trim.q_star,
            trim.delta_e_star, trim.thrust_star)


def test_dynamic_pressure_zero_airspeed():
    assert dynamic_pressure(0.0, 1.33) == 0.0


def test_dynamic_pressure_trim_point():
    # 0.5 * 1.33 * 69.1^2, checked by hand
    assert dynamic_pressure(69.1, 1.33) == pytest.approx(3175.24865, rel=1e-9)


def test_dynamic_pressure_unit_case():
    assert dynamic_pressure(1.0, 2.0) == 1.0


def test_trim_lift_balance(model, params, trim):
    """At trim the vertical balance L + T sin(alpha) = m g holds exactly,
    and the weight-carrying reference coefficient mg/(qbar S) is 1.2395."""
    # level trim has q = 0, so q_hat = 0
    cl, cd, _ = model.coefficients(trim.alpha_star, 0.0, trim.delta_e_star)
    q_s = dynamic_pressure(trim.v_t_star, params.rho) * params.s_ref
    mg = params.m * params.g
    assert q_s * cl + trim.thrust_star * math.sin(trim.alpha_star) == \
        pytest.approx(mg, rel=1e-9)
    assert mg / q_s == pytest.approx(1.2395, abs=2e-4)
    assert cd >= 0.0


def test_trim_moment_zero(model, params, trim):
    _, _, cm = model.coefficients(trim.alpha_star, 0.0, trim.delta_e_star)
    assert abs(cm) < 1e-10
    d = state_derivative(*_trim_args(trim), 0.0, 0.0, model, params)
    q_sc = dynamic_pressure(trim.v_t_star, params.rho) * params.s_ref * params.c_bar
    assert abs(d[3] * params.j_y / q_sc) < 1e-10


def test_alpha_out_of_range_raises(model, params):
    with pytest.raises(OutOfTableRange):
        state_derivative(69.1, 0.0, math.radians(45.0), 0.0, 0.0, 0.0,
                         0.0, 0.0, model, params)


@pytest.mark.parametrize("edge, toward, text", [
    ("alpha_min", -math.inf, "alpha = -5.000000000000001 deg"),
    ("alpha_max", math.inf, "alpha = 40.00000000000001 deg"),
], ids=("alpha_min", "alpha_max"))
def test_check_alpha_reports_one_ulp_excursion(model, edge, toward, text):
    """An alpha one ulp outside the table reads as outside in the message."""
    alpha = getattr(model, edge)
    model.check_alpha(alpha)
    with pytest.raises(OutOfTableRange) as exc:
        model.check_alpha(math.nextafter(alpha, toward))
    assert str(exc.value) == \
        f"{text} outside table range [-5.0, 40.0] deg"


def test_drag_positive_over_domain(model, params):
    for alpha_deg in range(-5, 41):
        for de in (params.elevator_min, 0.0, params.elevator_max):
            alpha = math.radians(alpha_deg)
            # level path, engine off: V' = -D/m
            d = state_derivative(69.1, alpha, alpha, 0.0, de, 0.0,
                                 0.0, 0.0, model, params)
            assert d[0] < 0.0


def test_non_finite_derivative_raises(model, params):
    with pytest.raises(NonFiniteDerivative):
        state_derivative(math.inf, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0,
                         model, params)


def test_trim_derivatives_vanish(model, params, trim):
    d = state_derivative(*_trim_args(trim), 0.0, 0.0, model, params)
    for component in d[:4]:
        assert abs(component) < 1e-6


def test_force_free_stub(zero_aero_model, params):
    # gamma = 0
    d = state_derivative(50.0, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0,
                         zero_aero_model, params)
    assert d[0] == 0.0       # V' = 0 with no thrust, drag, or path angle
    assert d[3] == pytest.approx(0.0, abs=1e-12)


def test_pure_gravity_deceleration(zero_aero_model, params):
    # gamma = 90 deg, thrust off: airspeed bleeds at exactly g
    d = state_derivative(50.0, math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         zero_aero_model, params)
    assert d[0] == pytest.approx(-params.g, rel=1e-12)


def test_theta_dot_is_q(model, params):
    for q in (-0.3, 0.0, 0.17):
        d = state_derivative(69.1, 0.12, 0.1, q, -0.05, 20000.0, 0.0, 0.0,
                             model, params)
        assert d[1] == q


def test_energy_conservation_ballistic(zero_aero_model, params):
    """Force-free flight conserves V^2/2 + g z to integrator accuracy."""
    dt = 0.001
    y = (60.0, math.radians(20.0), 0.0, 0.0, 0.0, 100.0)

    def f(_t, s):
        return state_derivative(*s[:4], 0.0, 0.0, 0.0, 0.0,
                                zero_aero_model, params)

    e0 = 0.5 * y[0] ** 2 + params.g * y[5]
    for k in range(10000):
        y = rk4_step(f, y, k * dt, dt)
    e1 = 0.5 * y[0] ** 2 + params.g * y[5]
    assert abs(e1 - e0) / e0 < 1e-6


def test_state_derivative_deterministic(model, params):
    args = (70.0, 0.1, 0.08, 0.02, -0.1, 30000.0, 0.0, 0.0, model, params)
    a = state_derivative(*args)
    b = state_derivative(*args)
    assert a == b


def test_wind_shifts_relative_airspeed(model, params, trim):
    """A pure tailwind lowers the aero airspeed and advects the track."""
    calm = state_derivative(*_trim_args(trim), 0.0, 0.0, model, params)
    windy = state_derivative(*_trim_args(trim), 5.0, 0.0, model, params)
    # less drag at lower relative airspeed: V' increases
    assert windy[0] > calm[0]
    # kinematics pick up the full wind vector
    assert windy[4] == pytest.approx(calm[4] + 5.0, rel=1e-12)
    assert windy[5] == pytest.approx(calm[5], abs=1e-12)


def test_wind_updraft_raises_alpha_forces(model, params, trim):
    calm = state_derivative(*_trim_args(trim), 0.0, 0.0, model, params)
    updraft = state_derivative(*_trim_args(trim), 0.0, 3.0, model, params)
    # higher effective alpha -> more lift -> alpha' decreases
    assert updraft[2] < calm[2]
    assert updraft[5] == pytest.approx(calm[5] + 3.0, rel=1e-12)


def _shipped_model_dict() -> dict:
    """The model file shipped with the package, as a dict."""
    text = resources.files("carrierland.data").joinpath(
        "fa18_aero.json").read_text()
    return json.loads(text)


def test_aero_model_file_round_trip(tmp_path, model):
    path = tmp_path / "aero.json"
    path.write_text(json.dumps(_shipped_model_dict()))
    assert AeroModel.from_file(path) == model


def test_aero_model_takes_integer_values():
    d = {**_shipped_model_dict(), "cm_base": [0, 1e308, 0, 0], "cl_q": 2}
    model = AeroModel.from_dict(d)
    assert model.cm_base == (0.0, 1e308, 0.0, 0.0) and model.cl_q == 2.0
    assert all(type(c) is float for c in model.cm_base + (model.cl_q,))


def test_aero_model_missing_key_rejected():
    d = _shipped_model_dict()
    del d["cm_de"]
    with pytest.raises(ValueError, match="cm_de"):
        AeroModel.from_dict(d)


def test_aero_model_requires_nose_down_elevator():
    d = _shipped_model_dict()
    d["cm_de"] = 0.2
    with pytest.raises(ValueError):
        AeroModel.from_dict(d)


def test_params_validated():
    with pytest.raises(ValueError):
        AircraftParams(m=-1.0)
    with pytest.raises(ValueError):
        AircraftParams(elevator_min=0.1)
