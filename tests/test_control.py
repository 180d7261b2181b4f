import math

import pytest

from carrierland.control import (DEG2RAD, RAD2DEG, GuidancePID, NotchFilter,
                                 OuterGains, PitchGains, PitchOPD, PitchPID,
                                 SinkPI, VelocityPID, derive_pitch_gains,
                                 flight_path_generator)
from carrierland.environment import LandingPoint


def test_derive_pitch_gains_design_point():
    kp, kd = derive_pitch_gains(0.3, math.sqrt(2.0), -0.15)
    assert kp == pytest.approx(88.89, abs=0.01)
    assert kd == pytest.approx(26.8167, abs=1e-3)
    # note: the shipped default kd_theta keeps the published 26.5186,
    # which differs slightly from this derivation


def test_derive_pitch_gains_unit_case():
    kp, kd = derive_pitch_gains(4.0, 1.0, -0.5)
    assert kp == 1.0
    assert kd == 2.0 + 0.5


@pytest.mark.parametrize("t,g", [(0.2, 1.0), (0.5, 0.7), (1.0, math.sqrt(2))])
def test_gain_formula_identity(t, g):
    kp, _ = derive_pitch_gains(t, g, -0.1)
    assert kp == (4.0 / (t * g)) ** 2


def test_derive_pitch_gains_validates():
    with pytest.raises(ValueError):
        derive_pitch_gains(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        derive_pitch_gains(1.0, -0.5, -0.1)


def test_pitch_gains_reject_zero_channel():
    with pytest.raises(ValueError):
        PitchGains(dqdot_dde=0.0)


def test_pitch_opd_at_reference(trim, params):
    opd = PitchOPD(PitchGains(), trim, params)
    cmd, h = opd.step(trim.theta_star, trim.theta_star, 0.0, 0.0)
    assert cmd == pytest.approx(trim.delta_e_star, abs=1e-15)
    assert h == 0.0


@pytest.mark.parametrize("d0", [0.05, -0.12, 0.3])
def test_pitch_opd_pure_disturbance_cancellation(trim, params, d0):
    """A disturbance estimate shifts the elevator by -d0/dqdot_dde deg."""
    g = PitchGains()
    opd = PitchOPD(g, trim, params)
    cmd, _ = opd.step(trim.theta_star, trim.theta_star, 0.0, d0)
    expected = trim.delta_e_star + (-d0 / g.dqdot_dde) * DEG2RAD
    expected = min(max(expected, params.elevator_min), params.elevator_max)
    assert cmd == pytest.approx(expected, rel=1e-12) or \
        cmd in (params.elevator_min, params.elevator_max)


def test_pitch_opd_h_uses_applied_deflection(trim, params):
    """When the demand exceeds the stops, h reflects the clipped input."""
    g = PitchGains()
    opd = PitchOPD(g, trim, params)
    big_error = trim.theta_star - math.radians(20.0)  # huge pitch-up demand
    cmd, h = opd.step(trim.theta_star + math.radians(5.0), big_error,
                      0.0, 0.0)
    assert cmd < params.elevator_min  # raw command is handed downstream
    applied_deg = (params.elevator_min - trim.delta_e_star) * RAD2DEG
    assert h == pytest.approx(g.dqdot_dde * applied_deg, rel=1e-12)


def test_pitch_pid_zero_history(trim, params):
    pid = PitchPID(PitchGains(), trim, params)
    for _ in range(5):
        cmd = pid.step(trim.theta_star, trim.theta_star, 1e-3)
    assert cmd == pytest.approx(trim.delta_e_star, abs=1e-15)


def test_pitch_pid_integral_clamp(trim, params):
    pid = PitchPID(PitchGains(), trim, params, integrator_limit=0.01)
    for _ in range(20000):
        pid.step(trim.theta_star + 1.0, trim.theta_star, 1e-3)
    assert pid._int == 0.01


def test_velocity_trim_feedforward(trim, params):
    vel = VelocityPID(OuterGains(), trim, params)
    thrust = vel.step(69.1, 69.1, 0.0, 1e-3)
    assert thrust == pytest.approx(trim.thrust_star, rel=1e-12)


def test_velocity_integral_accumulates(trim, params):
    g = OuterGains()
    vel = VelocityPID(g, trim, params)
    t1 = vel.step(70.0, 69.0, 0.0, 0.1)
    t5 = None
    for _ in range(50):
        t5 = vel.step(70.0, 69.0, 0.0, 0.1)
    assert t5 > t1  # integral keeps pushing against a constant error


def test_sink_trim_feedforward(trim):
    sink = SinkPI(OuterGains(), trim)
    theta_r = sink.step(0.0, 0.0, 1e-3)
    assert theta_r == pytest.approx(trim.theta_star, abs=1e-12)


def test_sink_preload_gives_bumpless_start(trim):
    g = OuterGains()
    sink = SinkPI(g, trim)
    target = trim.theta_star - math.radians(3.5)
    sink.preload((target - trim.theta_star) / g.ki_s)
    assert sink.step(0.0, 0.0, 1e-3) == pytest.approx(target, abs=1e-9)


def test_guidance_zero_error_passes_feedforward():
    guid = GuidancePID(OuterGains())
    assert guid.step(10.0, 10.0, 1e-3, feedforward=-4.2) == \
        pytest.approx(-4.2, abs=1e-9)


def test_guidance_initial_proportional_response():
    g = OuterGains(kp_z=1.0, ki_z=0.5, kd_z=0.01)
    guid = GuidancePID(g)
    # 1 m static offset at the first step: P-term only, derivative
    # filter primes on the first sample instead of spiking
    zr = guid.step(1.0, 0.0, 1e-3)
    assert zr == pytest.approx(1.0, abs=1e-3)


def test_guidance_derivative_is_filtered():
    g = OuterGains(kp_z=0.0, ki_z=0.0, kd_z=1.0, deriv_filter_tau=0.05)
    guid = GuidancePID(g)
    guid.step(0.0, 0.0, 1e-3)
    # a 1 m jump differentiated raw would give 1000 m/s; the filter
    # caps the first-step response near dt/(tau+dt)*1/dt = 1/(tau+dt)
    zr = guid.step(1.0, 0.0, 1e-3)
    assert zr == pytest.approx(1.0 / (0.05 + 1e-3), rel=1e-6)
    assert zr < 25.0


def test_zero_dt_changes_nothing(trim, params):
    pid = PitchPID(PitchGains(), trim, params)
    guid = GuidancePID(OuterGains())
    pid.step(0.13, 0.12, 1e-3)
    guid.step(1.0, 0.0, 1e-3)
    c1 = pid.step(0.13, 0.12, 0.0)
    c2 = pid.step(0.13, 0.12, 0.0)
    z1 = guid.step(1.0, 0.0, 0.0)
    z2 = guid.step(1.0, 0.0, 0.0)
    assert c1 == c2
    assert z1 == z2


def test_integrator_outputs_bounded(trim, params):
    g = OuterGains(integrator_limit=0.5)
    vel = VelocityPID(g, trim, params)
    sink = SinkPI(g, trim)
    for _ in range(100000):
        vel.step(200.0, 0.0, 0.0, 1e-2)
        sink.step(50.0, -50.0, 1e-2)
    assert abs(vel._int) <= 0.5
    assert abs(sink._int) <= 0.5


def test_flight_path_at_landing_point():
    lp = LandingPoint(x_l=-81.0, z_l=0.7)
    assert flight_path_generator(lp, -81.0, math.radians(3.5)) == 0.7


def test_flight_path_1000m_out():
    lp = LandingPoint(x_l=0.0, z_l=0.0)
    z_r = flight_path_generator(lp, -1000.0, math.radians(3.5))
    assert z_r == pytest.approx(61.1626, abs=1e-3)


def test_flight_path_linear_in_deck_motion():
    slope = math.radians(3.5)
    base = flight_path_generator(LandingPoint(-81.0, 0.0), -1500.0, slope)
    for dz in (-2.5, 1.0, 4.0):
        moved = flight_path_generator(LandingPoint(-81.0, dz), -1500.0, slope)
        assert moved - base == pytest.approx(dz, rel=1e-12)


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
