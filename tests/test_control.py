import math

import pytest

from carrierland.actuation import saturate_inputs
from carrierland.config import ConfigError, ScenarioConfig
from carrierland.control import (DEG2RAD, RAD2DEG, GuidancePID, NotchFilter,
                                 PitchOPD, PitchPID, SinkPI, VelocityPID,
                                 flight_path_generator, known_input)
from carrierland.environment import (ShipParams, ShipState, deck_motion,
                                     rng_streams, ship_step)


def test_derive_pitch_gains_design_point():
    # the shipped kp_theta places the pitch error poles for a 2 %
    # settling time of 0.3 s at damping sqrt(2): kp = omega_n^2
    omega_n = 4.0 / (0.3 * math.sqrt(2.0))
    assert ScenarioConfig().kp_theta == pytest.approx(omega_n ** 2, abs=0.01)
    # note: the shipped default kd_theta keeps the published 26.5186,
    # which differs slightly from 2 * damping * omega_n - dqdot_dq


def test_pitch_gains_reject_zero_channel():
    """The pitch laws divide by dqdot_dde; a config that zeros it is
    rejected with its key's domain."""
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(dqdot_dde=0.0)
    assert str(err.value).startswith("pitch.dqdot_dde must be ")


def test_pitch_opd_at_reference(trim):
    g = ScenarioConfig()
    opd = PitchOPD(g, trim)
    cmd = opd.step(trim.theta_star, trim.theta_star, 0.0, 0.0)
    assert cmd == pytest.approx(trim.delta_e_star, abs=1e-15)
    assert known_input(0.0, trim.delta_e_star, trim.delta_e_star, g) == 0.0


@pytest.mark.parametrize("d0", [0.05, -0.12, 0.3])
def test_pitch_opd_pure_disturbance_cancellation(trim, d0):
    """A disturbance estimate shifts the elevator by -d0/dqdot_dde deg."""
    g = ScenarioConfig()
    opd = PitchOPD(g, trim)
    cmd = opd.step(trim.theta_star, trim.theta_star, 0.0, d0)
    expected = trim.delta_e_star + (-d0 / g.dqdot_dde) * DEG2RAD
    assert cmd == pytest.approx(expected, rel=1e-12)


def test_known_input_uses_applied_deflection(trim, params):
    """When the demand exceeds the stops, h reflects the clipped input."""
    g = ScenarioConfig()
    opd = PitchOPD(g, trim)
    big_error = trim.theta_star - math.radians(20.0)  # huge pitch-up demand
    cmd = opd.step(trim.theta_star + math.radians(5.0), big_error, 0.0, 0.0)
    assert cmd < params.elevator_min  # raw command is handed downstream
    applied, _, sat_e, _ = saturate_inputs(cmd, trim.thrust_star, params)
    assert sat_e
    x2 = 0.3
    h = known_input(x2, applied, trim.delta_e_star, g)
    applied_deg = (params.elevator_min - trim.delta_e_star) * RAD2DEG
    assert h == pytest.approx(g.dqdot_dq * x2 + g.dqdot_dde * applied_deg,
                              rel=1e-12)


def test_pitch_pid_zero_history(trim):
    pid = PitchPID(ScenarioConfig(), trim, 1e-3)
    for _ in range(5):
        cmd = pid.step(trim.theta_star, trim.theta_star)
    assert cmd == pytest.approx(trim.delta_e_star, abs=1e-15)


def test_pitch_pid_integral_clamp(trim):
    pid = PitchPID(ScenarioConfig(integrator_limit=0.01), trim, 1e-3)
    for _ in range(20000):
        pid.step(trim.theta_star + 1.0, trim.theta_star)
    assert pid._int == 0.01


def test_velocity_trim_feedforward(trim, params):
    vel = VelocityPID(ScenarioConfig(), trim, params, 1e-3)
    thrust = vel.step(69.1, 69.1)
    assert thrust == pytest.approx(trim.thrust_star, rel=1e-12)


def test_velocity_integral_accumulates(trim, params):
    g = ScenarioConfig()
    vel = VelocityPID(g, trim, params, 0.1)
    t1 = vel.step(70.0, 69.0)
    t5 = None
    for _ in range(50):
        t5 = vel.step(70.0, 69.0)
    assert t5 > t1  # integral keeps pushing against a constant error


def test_sink_trim_feedforward(trim):
    sink = SinkPI(ScenarioConfig(), trim, 1e-3)
    theta_r = sink.step(0.0, 0.0)
    assert theta_r == pytest.approx(trim.theta_star, abs=1e-12)


def test_sink_preload_gives_bumpless_start(trim):
    g = ScenarioConfig()
    sink = SinkPI(g, trim, 1e-3)
    target = trim.theta_star - math.radians(3.5)
    sink.preload((target - trim.theta_star) / g.ki_s)
    assert sink.step(0.0, 0.0) == pytest.approx(target, abs=1e-9)


def test_guidance_zero_error_passes_feedforward():
    guid = GuidancePID(ScenarioConfig(), 1e-3)
    assert guid.step(10.0, 10.0, feedforward=-4.2) == \
        pytest.approx(-4.2, abs=1e-9)


def test_guidance_initial_proportional_response():
    g = ScenarioConfig(kp_z=1.0, ki_z=0.5, kd_z=0.01)
    guid = GuidancePID(g, 1e-3)
    # 1 m static offset at the first step: P-term only, derivative
    # filter primes on the first sample instead of spiking
    zr = guid.step(1.0, 0.0, 0.0)
    assert zr == pytest.approx(1.0, abs=1e-3)


def test_guidance_derivative_is_filtered():
    g = ScenarioConfig(kp_z=0.0, ki_z=0.0, kd_z=1.0,
                       deriv_filter_tau=0.05)
    guid = GuidancePID(g, 1e-3)
    guid.step(0.0, 0.0, 0.0)
    # a 1 m jump differentiated raw would give 1000 m/s; the filter
    # caps the first-step response near dt/(tau+dt)*1/dt = 1/(tau+dt)
    zr = guid.step(1.0, 0.0, 0.0)
    assert zr == pytest.approx(1.0 / (0.05 + 1e-3), rel=1e-6)
    assert zr < 25.0


def test_integrator_outputs_bounded(trim, params):
    g = ScenarioConfig(integrator_limit=0.5)
    vel = VelocityPID(g, trim, params, 1e-2)
    sink = SinkPI(g, trim, 1e-2)
    for _ in range(100000):
        vel.step(200.0, 0.0)
        sink.step(50.0, -50.0)
    assert abs(vel._int) <= 0.5
    assert abs(sink._int) <= 0.5


_TAN_GS = math.tan(math.radians(3.5))


def test_flight_path_at_landing_point():
    z_r, _ = flight_path_generator(-81.0, 0.7, 0.0, 0.0, -81.0, 0.0, _TAN_GS)
    assert z_r == 0.7


def test_flight_path_1000m_out():
    z_r, _ = flight_path_generator(0.0, 0.0, 0.0, 0.0, -1000.0, 0.0, _TAN_GS)
    assert z_r == pytest.approx(61.1626, abs=1e-3)


def test_flight_path_linear_in_deck_motion():
    base, _ = flight_path_generator(-81.0, 0.0, 0.0, 0.0, -1500.0, 0.0,
                                    _TAN_GS)
    for dz in (-2.5, 1.0, 4.0):
        moved, _ = flight_path_generator(-81.0, dz, 0.0, 0.0, -1500.0, 0.0,
                                         _TAN_GS)
        assert moved - base == pytest.approx(dz, rel=1e-12)


def test_flight_path_rate_matches_finite_difference():
    """The path rate follows a moving deck and a closing aircraft."""
    p = ShipParams()
    st = ShipState()
    rng = rng_streams(3)["ship"]
    for _ in range(5000):
        st = ship_step(st, 1e-3, rng, p)
    xdot = 69.0

    def path(state, x):
        landing = deck_motion(*state.heave_filter[:2],
                              *state.pitch_filter[2:])[2:]
        return flight_path_generator(*landing, x, xdot, _TAN_GS)

    z0, rate = path(st, -1500.0)
    z1, _ = path(ship_step(st, 1e-3, rng, p), -1500.0 + xdot * 1e-3)
    assert (z1 - z0) / 1e-3 == pytest.approx(rate, abs=1e-3)


def test_notch_filter_rejects_center_frequency():
    dt = 1e-3
    omega = 7.1
    notch = NotchFilter(omega, 0.25, dt)
    peak = 0.0
    for k in range(20000):
        t = k * dt
        y = notch.step(math.sin(omega * t))
        if t > 10.0:
            peak = max(peak, abs(y))
    assert peak < 0.05


def test_notch_filter_unity_at_dc_and_low_frequency():
    dt = 1e-3
    notch = NotchFilter(7.1, 0.25, dt)
    for _ in range(5000):
        y = notch.step(1.0)
    assert y == pytest.approx(1.0, abs=1e-6)
    notch = NotchFilter(7.1, 0.25, dt)
    peak = 0.0
    for k in range(40000):
        t = k * dt
        y = notch.step(math.sin(0.4 * t))
        peak = max(peak, abs(y))
    assert peak == pytest.approx(1.0, abs=0.05)
