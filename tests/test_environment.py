import itertools
import math

import numpy as np
import pytest

from carrierland.environment import (CALM, LANDING_POINT_OFFSET,
                                     STREAM_NAMES, Environment, PitchNoise,
                                     ShipParams, ShipState, WindField,
                                     deck_motion, held_ship_inputs,
                                     hold_steps, rng_stream, rng_streams,
                                     ship_step, wake_periodic, wake_phase,
                                     wake_steady)
from carrierland.config import ScenarioConfig


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


def _landing_point(st: ShipState):
    """(x_l, z_l, x_l', z_l') of the deck filters in st."""
    return deck_motion(*st.heave_filter[:2], *st.pitch_filter[2:])[2:]


def test_landing_point_flat_deck():
    x_l, z_l, _, _ = _landing_point(ShipState())
    assert x_l == -81.0
    assert z_l == 0.0


def test_landing_point_pitched_deck():
    st = ShipState(heave_filter=(1.0 / 1.21, 0, 0, 0),
                   pitch_filter=(0, 0, 0.05 / 0.773, 0))
    _, z_l, _, _ = _landing_point(st)
    assert z_l == pytest.approx(1.0 - 81.0 * math.sin(0.05), rel=1e-9)
    assert z_l == pytest.approx(-3.048, abs=1e-3)
    st2 = ShipState(heave_filter=(1.0 / 1.21, 0, 0, 0),
                    pitch_filter=(0, 0, -0.05 / 0.773, 0))
    _, z_l2, _, _ = _landing_point(st2)
    assert z_l2 == pytest.approx(1.0 + 81.0 * math.sin(0.05), rel=1e-9)


@pytest.mark.parametrize("theta_s", [-0.06, -0.01, 0.0, 0.02, 0.05])
def test_landing_point_offset_is_81_m(theta_s):
    st = ShipState(heave_filter=(0.4, 0, 0, 0),
                   pitch_filter=(0, 0, theta_s / 0.773, 0))
    x_l, z_l, _, _ = _landing_point(st)
    dist = math.hypot(x_l, st.z_g - z_l)      # the ship is at the origin
    assert dist == pytest.approx(LANDING_POINT_OFFSET, rel=1e-12)


def test_landing_point_rates_match_finite_difference():
    p = ShipParams()
    st = ShipState()
    rng = rng_streams(3)["ship"]
    for _ in range(5000):
        st = ship_step(st, 1e-3, rng, p)
    x0, z0, xr, zr = _landing_point(st)
    x1, z1, _, _ = _landing_point(ship_step(st, 1e-3, rng, p))
    assert (x1 - x0) / 1e-3 == pytest.approx(xr, abs=1e-3)
    assert (z1 - z0) / 1e-3 == pytest.approx(zr, abs=1e-3)


def test_deck_motion_matches_ship_state():
    st = ShipState(heave_filter=(0.3, -0.2, 0.0, 0.0),
                   pitch_filter=(0.0, 0.0, 0.04, -0.01))
    z_g, theta_s, _, _, _, _ = deck_motion(0.3, -0.2, 0.04, -0.01)
    assert (z_g, theta_s) == (st.z_g, st.theta_s)
    assert (z_g, theta_s) == (1.21 * 0.3, 0.773 * 0.04)


def test_ship_off_keeps_a_level_deck():
    env = Environment(ScenarioConfig(seed=1, ship_on=False), 69.1, 60.0)
    assert env.ship_rng is None
    assert env.ship == ShipState()
    assert _landing_point(env.ship) == (-81.0, 0.0, 0.0, 0.0)


def test_wake_steady_profile_values():
    p = ScenarioConfig()
    u2, w2 = wake_steady(500.0, p)
    assert u2 == pytest.approx(1.0)        # 0.002 * 500
    assert w2 == pytest.approx(-0.35)      # -1 + 0.0013 * 500
    u2, w2 = wake_steady(0.0, p)
    assert u2 == 0.0
    assert w2 == -1.0
    assert wake_steady(-10.0, p) == (0.0, 0.0)
    assert wake_steady(950.0, p) == (0.0, 0.0)


def test_wake_steady_u2_continuous_at_ship():
    eps = 1e-9
    u2_plus, _ = wake_steady(eps, ScenarioConfig())
    assert u2_plus == pytest.approx(0.0, abs=1e-8)


def test_wake_periodic_example_value():
    p = ScenarioConfig()
    u3, w3 = wake_periodic(0.0, 0.0, p)
    assert u3 == pytest.approx(0.05 * 10.0 * 2.22 * math.cos(0.1), rel=1e-9)
    assert u3 == pytest.approx(1.1045, abs=1e-3)
    assert w3 == pytest.approx(0.05 * 10.0 * 4.98 * math.cos(0.1), rel=1e-9)
    assert wake_periodic(3.0, 1000.0, p) == (0.0, 0.0)


def test_wake_periodic_is_the_cosine_of_wake_phase():
    """One phase expression: wake_periodic takes its cosine, and it rises
    in t and X, so its value at the run's end and the wake's far edge
    bounds the phases a run computes."""
    p = ScenarioConfig(v_wd=7.0)
    for t, x in ((0.0, 0.0), (2.5, 400.0), (30.0, 913.0)):
        c, scale = math.cos(wake_phase(t, x, p.v_wd)), 0.05 * p.v_wd
        assert wake_periodic(t, x, p) == (scale * (2.22 + 0.000091 * x) * c,
                                          scale * (4.98 + 0.0018 * x) * c)
    assert wake_phase(0.0, 0.0, 7.0) < wake_phase(1.0, 0.0, 7.0) \
        < wake_phase(1.0, 10.0, 7.0)
    assert wake_phase(0.01, 2200.0, 1.3e-305) == math.inf


def test_wake_periodic_continuous_in_time():
    p = ScenarioConfig()
    prev = wake_periodic(0.0, 400.0, p)
    for k in range(1, 400):
        cur = wake_periodic(k * 1e-3, 400.0, p)
        assert abs(cur[0] - prev[0]) < 0.05
        assert abs(cur[1] - prev[1]) < 0.05
        prev = cur


def test_pitch_noise_periodic_component():
    noise = PitchNoise(ScenarioConfig(dt=1e-3, noise_dt=0.01), _ConstRng())
    assert noise.sample(0, 0.0) == 0.0
    # rebuild so the held draw does not matter
    noise = PitchNoise(ScenarioConfig(dt=1e-3, noise_dt=0.01), _ConstRng())
    assert noise.sample(0, math.pi / 14.0) == pytest.approx(0.001, rel=1e-12)


def test_pitch_noise_variance_convention():
    """The stated power is the variance of the held random component
    (sigma = 1 mrad at -60 dB)."""
    noise = PitchNoise(ScenarioConfig(dt=1e-3, noise_dt=1e-3),
                       np.random.default_rng(11))
    draws = [noise.sample(k, 0.0) for k in range(100000)]
    assert np.var(draws) == pytest.approx(1e-6, rel=0.05)


def test_pitch_noise_disabled_is_zero_everywhere():
    noise = PitchNoise(ScenarioConfig(dt=1e-3), None)
    assert all(noise.sample(k, t) == 0.0
               for k, t in ((0, 0.0), (300, 0.3), (1700, 1.7)))


def test_wind_turbulence_stationary_moments():
    wf = WindField(ScenarioConfig(), np.random.default_rng(8),
                   np.random.default_rng(9), v_ref=69.1)
    u1s, w1s = [], []
    for k in range(400000):
        s = wf.sample(k, k * 1e-3, -2000.0)
        u1s.append(s.u1)
        w1s.append(s.w1)
    u1s = np.array(u1s[40000:])
    w1s = np.array(w1s[40000:])
    # documented convention: sigma^2 = psd/(2 * length_scale)
    assert np.var(u1s) == pytest.approx(200.0 / 200.0, rel=0.25)
    assert np.var(w1s) == pytest.approx(71.6 / 200.0, rel=0.25)
    assert abs(np.mean(u1s)) < 0.2


def test_wind_sample_components_sum():
    p = ScenarioConfig()
    wf = WindField(p, np.random.default_rng(2), np.random.default_rng(3),
                   v_ref=69.1)
    s = wf.sample(0, 1.0, -400.0)
    assert s.u_g == pytest.approx(s.u1 + s.u2 + s.u3, rel=1e-12)
    assert s.w_g == pytest.approx(s.w1 + s.w2 + s.w3, rel=1e-12)
    assert (s.u1, s.w1) == (wf.u1, wf.w1)
    assert (s.u2, s.w2) == wake_steady(400.0, p)
    assert (s.u3, s.w3) == wake_periodic(1.0, 400.0, p)


def test_disabled_wind_returns_calm():
    wf = WindField(ScenarioConfig(), None, None, v_ref=69.1)
    s = wf.sample(0, 0.5, -400.0)
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
        wf = WindField(ScenarioConfig(), streams["wind_u"],
                       streams["wind_w"], v_ref=69.1)
        st = ShipState()
        out = []
        for k in range(2000):
            if also_wind:
                wf.sample(k, k * 1e-3, -500.0)
            st = ship_step(st, 1e-3, streams["ship"], ShipParams())
            out.append(st.z_g)
        return out

    assert ship_only(7, False) == ship_only(7, True)


def test_disabled_sources_draw_nothing():
    """A source is off exactly when it has no generator: it then returns
    calm or zero on every step, and its filters stay at rest."""
    wf = WindField(ScenarioConfig(), None, None, v_ref=69.1)
    noise = PitchNoise(ScenarioConfig(dt=1e-3, noise_dt=1e-3), None)
    for k in range(1000):
        assert wf.sample(k, k * 1e-3, -400.0) is CALM
        assert noise.sample(k, k * 1e-3) == 0.0
    assert (wf.u1, wf.w1) == (0.0, 0.0)


class _CountingRng:
    """Records the step of each draw; draws 1.0."""

    def __init__(self):
        self.step = 0
        self.draws = []

    def normal(self, mean, sigma):
        self.draws.append(self.step)
        return 1.0


# (dt, dt_noise, late): late runs from step 3 hold + 1, every third step
_HOLDS = [(1e-3, 0.1, False), (1e-3, 1e-3, False), (2e-3, 0.01, False),
          (5e-4, 0.1, False), (0.01, 0.05, False), (2e-3, 0.01, True)]


@pytest.mark.parametrize("dt, dt_noise, late", _HOLDS, ids=[
    f"{dt}-{dt_noise}" + ("-late" if late else "") for dt, dt_noise, late
    in _HOLDS])
def test_held_sources_draw_on_the_first_step_then_every_hold(dt, dt_noise,
                                                             late):
    """Each held source draws on steps 0, hold, 2 hold, ... and on no
    other step, hold = hold_steps(dt_noise, dt), whichever steps it is
    given."""
    hold = hold_steps(dt_noise, dt)
    assert hold == round(dt_noise / dt)
    n = 4 * hold + 3
    steps = range(3 * hold + 1, 3 * hold + 1 + 3 * n, 3) if late else range(n)
    ship, wind_u, wind_w, noise_rng = (_CountingRng() for _ in range(4))
    p = ShipParams(dt_noise=dt_noise)
    wf = WindField(ScenarioConfig(dt=dt, dt_noise=dt_noise), wind_u, wind_w,
                   v_ref=69.1)
    noise = PitchNoise(ScenarioConfig(dt=dt, noise_dt=dt_noise), noise_rng)
    u_h, u_p = 0.0, 0.0
    for step in steps:
        for rng in (ship, wind_u, wind_w, noise_rng):
            rng.step = step
        u_h, u_p = held_ship_inputs(step, u_h, u_p, hold, ship, p)
        wf.sample(step, step * dt, -400.0)
        noise.sample(step, step * dt)
    expected = [s for s in range(0, steps[-1] + 1, hold) if s in steps]
    assert len(expected) >= 3
    assert ship.draws == [s for s in expected for _ in (0, 1)]  # heave, pitch
    assert wind_u.draws == wind_w.draws == noise_rng.draws == expected


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63])
def test_rng_stream_is_the_spawned_child(seed):
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    streams = rng_streams(seed)
    for name, child in zip(("ship", "wind_u", "wind_w", "noise"), children):
        want = np.random.default_rng(child).bit_generator.state
        assert rng_stream(seed, name).bit_generator.state == want
        assert streams[name].bit_generator.state == want


@pytest.mark.parametrize("ship_on, wind_on, noise_on",
                         list(itertools.product((False, True), repeat=3)))
def test_environment_builds_a_generator_only_for_a_source_that_is_on(
        ship_on, wind_on, noise_on):
    env = Environment(ScenarioConfig(seed=9, ship_on=ship_on,
                                     wind_on=wind_on, noise_on=noise_on),
                      69.1, 0.0)
    fresh = rng_streams(9)
    for rng, name, on in ((env.ship_rng, "ship", ship_on),
                          (env.wind.rng_u, "wind_u", wind_on),
                          (env.wind.rng_w, "wind_w", wind_on),
                          (env.noise.rng, "noise", noise_on)):
        if on:
            assert rng.bit_generator.state == fresh[name].bit_generator.state
        else:
            assert rng is None


def _environment_yield(cfg: ScenarioConfig, steps: int = 40) -> dict:
    """Each part of what Environment yields: the warmed-up deck state,
    then over the first steps the wind's turbulence, steady and periodic
    wake terms and the pitch noise, for an aircraft 800 m ahead of the
    ship."""
    env = Environment(cfg, 69.1, 0.5)
    winds = [env.wind.sample(k, k * cfg.dt, -800.0) for k in range(steps)]
    return {"deck": env.ship,
            "turbulence": [(s.u1, s.w1) for s in winds],
            "wake_steady": [(s.u2, s.w2) for s in winds],
            "wake_periodic": [(s.u3, s.w3) for s in winds],
            "noise": [env.noise.sample(k, k * cfg.dt) for k in range(steps)]}


@pytest.mark.parametrize("key, value, moved", [
    ("seed", 2, {"deck", "turbulence", "noise"}),
    ("dt_noise", 0.05, {"deck", "turbulence"}),
    ("noise_dt", 0.005, {"noise"}),
    ("ship_noise_gain", 0.2, {"deck"}),
    ("v_wd", 12.0, {"wake_periodic"}),
    ("turb_norm", 0.8, {"turbulence"}),
    ("wake_extent", 700.0, {"wake_steady", "wake_periodic"}),
])
def test_each_environment_key_reaches_the_environment(key, value, moved):
    """Changing one config key alone changes exactly the parts of what
    Environment yields that the key sets."""
    on = dict(ship_on=True, wind_on=True, noise_on=True)
    base, changed = ScenarioConfig(**on), ScenarioConfig(**on, **{key: value})
    want, got = _environment_yield(base), _environment_yield(changed)
    assert want == _environment_yield(base)
    assert {part for part in want if got[part] != want[part]} == moved
