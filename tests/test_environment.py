import math

import numpy as np
import pytest

from carrierland.environment import (LANDING_POINT_OFFSET, Environment,
                                     PitchNoise, ShipParams, ShipState,
                                     WindField, WindParams, deck_motion,
                                     rng_streams, ship_step, wake_periodic,
                                     wake_steady)


class _ConstRng:
    def __init__(self, value=0.0):
        self.value = value

    def normal(self, mean, sigma):
        return self.value


def test_ship_at_rest_stays_at_rest():
    p = ShipParams(noise_gain=0.0)
    st = ShipState()
    rng = np.random.default_rng(0)
    for _ in range(2000):
        st = ship_step(st, 1e-3, rng, p)
    assert st.z_g == 0.0
    assert st.theta_s == 0.0


def test_heave_filter_dc_gain():
    # constant unit input settles at 1.21/0.16 (slowest poles ~25 s)
    st = ShipState()
    rng = _ConstRng(1.0)
    for _ in range(400000):
        st = ship_step(st, 1e-3, rng)
    assert st.z_g == pytest.approx(1.21 / 0.16, rel=1e-5)


def test_ship_amplitudes_sane_short_run():
    p = ShipParams()
    st = ShipState()
    rng = rng_streams(1)["ship"]
    zmax = tmax = 0.0
    for _ in range(60000):
        st = ship_step(st, 1e-3, rng, p)
        zmax = max(zmax, abs(st.z_g))
        tmax = max(tmax, abs(st.theta_s))
    assert 0.1 < zmax < 10.0
    assert math.radians(0.05) < tmax < math.radians(10.0)


def _landing_point(st: ShipState, x_g: float):
    """(x_l, z_l, x_l', z_l') of the deck filters in st."""
    return deck_motion(*st.heave_filter[:2], *st.pitch_filter[2:], x_g)[2:]


def test_landing_point_flat_deck():
    x_l, z_l, _, _ = _landing_point(ShipState(), 0.0)
    assert x_l == -81.0
    assert z_l == 0.0


def test_landing_point_pitched_deck():
    st = ShipState(heave_filter=(1.0 / 1.21, 0, 0, 0),
                   pitch_filter=(0, 0, 0.05 / 0.773, 0))
    _, z_l, _, _ = _landing_point(st, 0.0)
    assert z_l == pytest.approx(1.0 - 81.0 * math.sin(0.05), rel=1e-9)
    assert z_l == pytest.approx(-3.048, abs=1e-3)
    st2 = ShipState(heave_filter=(1.0 / 1.21, 0, 0, 0),
                    pitch_filter=(0, 0, -0.05 / 0.773, 0))
    _, z_l2, _, _ = _landing_point(st2, 0.0)
    assert z_l2 == pytest.approx(1.0 + 81.0 * math.sin(0.05), rel=1e-9)


@pytest.mark.parametrize("theta_s", [-0.06, -0.01, 0.0, 0.02, 0.05])
def test_landing_point_offset_is_81_m(theta_s):
    st = ShipState(heave_filter=(0.4, 0, 0, 0),
                   pitch_filter=(0, 0, theta_s / 0.773, 0))
    x_g = 12.0
    x_l, z_l, _, _ = _landing_point(st, x_g)
    dist = math.hypot(x_g - x_l, st.z_g - z_l)
    assert dist == pytest.approx(LANDING_POINT_OFFSET, rel=1e-12)


def test_landing_point_rates_match_finite_difference():
    p = ShipParams()
    st = ShipState()
    rng = rng_streams(3)["ship"]
    for _ in range(5000):
        st = ship_step(st, 1e-3, rng, p)
    x0, z0, xr, zr = _landing_point(st, p.x_g)
    x1, z1, _, _ = _landing_point(ship_step(st, 1e-3, rng, p), p.x_g)
    assert (x1 - x0) / 1e-3 == pytest.approx(xr, abs=1e-3)
    assert (z1 - z0) / 1e-3 == pytest.approx(zr, abs=1e-3)


def test_deck_motion_matches_ship_state():
    st = ShipState(heave_filter=(0.3, -0.2, 0.0, 0.0),
                   pitch_filter=(0.0, 0.0, 0.04, -0.01))
    z_g, theta_s, _, _, _, _ = deck_motion(0.3, -0.2, 0.04, -0.01, 7.0)
    assert (z_g, theta_s) == (st.z_g, st.theta_s)
    assert (z_g, theta_s) == (1.21 * 0.3, 0.773 * 0.04)


def test_ship_off_keeps_a_level_deck():
    env = Environment(ShipParams(x_g=5.0), WindParams(), dt=1e-3, seed=1,
                      v_ref=69.1, ship_on=False, warmup_s=60.0)
    assert env.ship_rng is None
    assert env.ship == ShipState()
    assert _landing_point(env.ship, 5.0) == (5.0 - 81.0, 0.0, 0.0, 0.0)


def test_wake_steady_profile_values():
    u2, w2 = wake_steady(500.0)
    assert u2 == pytest.approx(1.0)        # 0.002 * 500
    assert w2 == pytest.approx(-0.35)      # -1 + 0.0013 * 500
    u2, w2 = wake_steady(0.0)
    assert u2 == 0.0
    assert w2 == -1.0
    assert wake_steady(-10.0) == (0.0, 0.0)
    assert wake_steady(950.0) == (0.0, 0.0)


def test_wake_steady_u2_continuous_at_ship():
    eps = 1e-9
    u2_plus, _ = wake_steady(eps)
    assert u2_plus == pytest.approx(0.0, abs=1e-8)


def test_wake_periodic_example_value():
    p = WindParams()
    u3, w3 = wake_periodic(0.0, 0.0, p)
    assert u3 == pytest.approx(0.05 * 10.0 * 2.22 * math.cos(0.1), rel=1e-9)
    assert u3 == pytest.approx(1.1045, abs=1e-3)
    assert w3 == pytest.approx(0.05 * 10.0 * 4.98 * math.cos(0.1), rel=1e-9)
    assert wake_periodic(3.0, 1000.0, p) == (0.0, 0.0)


def test_wake_periodic_continuous_in_time():
    p = WindParams()
    prev = wake_periodic(0.0, 400.0, p)
    for k in range(1, 400):
        cur = wake_periodic(k * 1e-3, 400.0, p)
        assert abs(cur[0] - prev[0]) < 0.05
        assert abs(cur[1] - prev[1]) < 0.05
        prev = cur


def test_pitch_noise_periodic_component():
    noise = PitchNoise(_ConstRng(), dt=1e-3, dt_noise=0.01)
    assert noise.sample(0.0) == 0.0
    # rebuild so the hold counter does not matter
    noise = PitchNoise(_ConstRng(), dt=1e-3, dt_noise=0.01)
    assert noise.sample(math.pi / 14.0) == pytest.approx(0.001, rel=1e-12)


def test_pitch_noise_variance_convention():
    """The stated power is the variance of the held random component
    (sigma = 1 mrad at -60 dB)."""
    noise = PitchNoise(np.random.default_rng(11), dt=1e-3, dt_noise=1e-3)
    draws = [noise.sample(0.0) for _ in range(100000)]
    assert np.var(draws) == pytest.approx(1e-6, rel=0.05)


def test_pitch_noise_disabled_is_zero_everywhere():
    noise = PitchNoise(np.random.default_rng(4), dt=1e-3, enabled=False)
    assert all(noise.sample(t) == 0.0 for t in (0.0, 0.3, 1.7))


def test_wind_turbulence_stationary_moments():
    p = WindParams()
    wf = WindField(p, np.random.default_rng(8), np.random.default_rng(9),
                   dt=1e-3, v_ref=69.1)
    u1s, w1s = [], []
    for k in range(400000):
        s = wf.sample(k * 1e-3, -2000.0, 0.0)
        u1s.append(s.u1)
        w1s.append(s.w1)
    u1s = np.array(u1s[40000:])
    w1s = np.array(w1s[40000:])
    # documented convention: sigma^2 = psd/(2 * length_scale)
    assert np.var(u1s) == pytest.approx(200.0 / 200.0, rel=0.25)
    assert np.var(w1s) == pytest.approx(71.6 / 200.0, rel=0.25)
    assert abs(np.mean(u1s)) < 0.2


def test_wind_sample_components_sum():
    p = WindParams()
    wf = WindField(p, np.random.default_rng(2), np.random.default_rng(3),
                   dt=1e-3, v_ref=69.1)
    s = wf.sample(1.0, -400.0, 0.0)
    assert s.u_g == pytest.approx(s.u1 + s.u2 + s.u3, rel=1e-12)
    assert s.w_g == pytest.approx(s.w1 + s.w2 + s.w3, rel=1e-12)
    assert (s.u1, s.w1) == (wf.u1, wf.w1)
    assert (s.u2, s.w2) == wake_steady(400.0, p.wake_extent)
    assert (s.u3, s.w3) == wake_periodic(1.0, 400.0, p)


def test_disabled_wind_returns_calm():
    p = WindParams()
    wf = WindField(p, np.random.default_rng(2), np.random.default_rng(3),
                   dt=1e-3, v_ref=69.1, enabled=False)
    s = wf.sample(0.5, -400.0, 0.0)
    assert s.u_g == 0.0 and s.w_g == 0.0


def test_seeded_streams_are_deterministic():
    def ship_trace(seed):
        rng = rng_streams(seed)["ship"]
        st = ShipState()
        out = []
        for _ in range(3000):
            st = ship_step(st, 1e-3, rng, ShipParams())
            out.append((st.z_g, st.theta_s))
        return out

    assert ship_trace(42) == ship_trace(42)
    assert ship_trace(42) != ship_trace(43)


def test_streams_independent_of_other_sources():
    """Consuming the wind streams does not perturb the ship stream."""
    def ship_only(seed, also_wind):
        streams = rng_streams(seed)
        wf = WindField(WindParams(), streams["wind_u"], streams["wind_w"],
                       dt=1e-3, v_ref=69.1)
        st = ShipState()
        out = []
        for k in range(2000):
            if also_wind:
                wf.sample(k * 1e-3, -500.0, 0.0)
            st = ship_step(st, 1e-3, streams["ship"], ShipParams())
            out.append(st.z_g)
        return out

    assert ship_only(7, False) == ship_only(7, True)
