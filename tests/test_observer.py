import math

import numpy as np
import pytest

from carrierland.integrate import rk4_step
from carrierland.observer import (ObserverParams, observer_derivative,
                                  validate_params)


class _P:
    """Plain parameter bag for screening candidate values."""

    def __init__(self, k1, k2, k3, alpha1, epsilon):
        self.k1, self.k2, self.k3 = k1, k2, k3
        self.alpha1, self.epsilon = alpha1, epsilon


def test_validate_example_set_ok():
    p = ObserverParams(6.0, 11.0, 6.0, 0.6, 0.05)
    assert validate_params(p) == []
    assert p.alpha2 == pytest.approx((2 * 0.6 + 1) / 3)   # 0.7333...
    assert p.alpha3 == pytest.approx((0.6 + 2) / 3)       # 0.8666...
    # stability margin: 4*6/(pi*6) = 1.273 << 11
    assert 4 * p.k1 / (math.pi * p.k3) < p.k2


def test_validate_gate_boundary_is_strict():
    k1, k3 = 6.0, 6.0
    k2 = 4.0 * k1 / (math.pi * k3)
    v = validate_params(_P(k1, k2, k3, 0.6, 0.05))
    assert any("k2" in msg for msg in v)


@pytest.mark.parametrize("field,value", [
    ("alpha1", 1.0), ("alpha1", 0.0), ("epsilon", 1.0), ("epsilon", 0.0),
    ("k1", 0.0), ("k3", -1.0), ("epsilon", 1e-200),
])
def test_validate_rejects_each_boundary(field, value):
    base = dict(k1=6.0, k2=11.0, k3=6.0, alpha1=0.6, epsilon=0.05)
    base[field] = value
    assert validate_params(_P(**base)) != []
    with pytest.raises(ValueError):
        ObserverParams(**base)


def test_derivative_equilibrium():
    p = ObserverParams()
    assert observer_derivative((0.0, 0.0, 0.0), 0.0, 0.0, p) == (0.0, 0.0, 0.0)


def test_derivative_known_input_enters_rate_equation():
    p = ObserverParams()
    d = observer_derivative((0.2, 0.0, 0.1), 0.2, 0.7, p)  # e = 0
    assert d[0] == 0.0
    assert d[1] == pytest.approx(0.1 + 0.7)
    assert d[2] == 0.0


@pytest.mark.parametrize("e", [1e-4, 0.003, 0.2])
def test_correction_terms_odd_in_error(e):
    p = ObserverParams()
    plus = observer_derivative((e, 0.5, -0.3), 0.0, 0.2, p)
    minus = observer_derivative((-e, -0.5, 0.3), 0.0, -0.2, p)
    for a, b in zip(plus, minus):
        assert a == pytest.approx(-b, rel=1e-12)


def _co_simulate(p, w0, x0, h_fn, eta_fn, duration, dt=1e-3, noise_fn=None,
                 record_from=0.0):
    """Couple the reference plant and the observer in one integration.

    Returns max |x1 - w1| and RMS (x3 - w3) over t >= record_from.
    """
    y = tuple(w0) + tuple(x0)
    n = int(round(duration / dt))
    max_e1 = 0.0
    err3_sq = 0.0
    count = 0
    for k in range(n):
        t = k * dt

        def f(tt, s):
            w1, w2, w3, x1, x2, x3 = s
            h = h_fn(tt)
            y_op = w1 + (noise_fn(tt) if noise_fn else 0.0)
            dw = (w2, w3 + h, eta_fn(tt))
            dx = observer_derivative((x1, x2, x3), y_op, h, p)
            return dw + dx

        y = rk4_step(f, y, t, dt)
        if t >= record_from:
            max_e1 = max(max_e1, abs(y[3] - y[0]))
            err3_sq += (y[5] - y[2]) ** 2
            count += 1
    return max_e1, math.sqrt(err3_sq / count)


def test_matched_cosimulation_tracks_exactly():
    # plant exactly of the modeled form: known input, constant disturbance
    p = ObserverParams()
    h = lambda t: 0.3 * math.sin(1.3 * t)
    eta = lambda t: 0.0
    w0 = (0.05, -0.02, 0.2)
    max_e1, _ = _co_simulate(p, w0, w0, h, eta, 10.0)
    assert max_e1 < 1e-6


def test_initial_mismatch_reconverges_below_1e6():
    p = ObserverParams()
    h = lambda t: 0.3 * math.sin(1.3 * t)
    eta = lambda t: 0.0
    w0 = (0.05, -0.02, 0.2)
    x0 = (0.06, -0.02, 0.0)  # offset estimate of the tracked variable
    max_e1, _ = _co_simulate(p, w0, x0, h, eta, 10.0, record_from=5.0)
    assert max_e1 < 1e-6


def test_constant_disturbance_estimate_converges():
    p = ObserverParams()
    c = 0.5
    w0 = (0.0, 0.0, c)
    _, _ = (None, None)
    y = (0.0, 0.0, c, 0.0, 0.0, 0.0)
    dt = 1e-3
    worst_tail = 0.0
    for k in range(10000):
        def f(_t, s):
            w1, w2, w3, x1, x2, x3 = s
            dw = (w2, w3, 0.0)
            dx = observer_derivative((x1, x2, x3), w1, 0.0, p)
            return dw + dx
        y = rk4_step(f, y, k * dt, dt)
        if k >= 8000:
            worst_tail = max(worst_tail, abs(y[5] - c))
    assert worst_tail < 1e-4


def _steady_x3_error(alpha1, duration=10.0, tail=2.0):
    p = ObserverParams(alpha1=alpha1)
    c = 0.5
    y = (0.0, 0.0, c, 0.0, 0.0, 0.0)
    dt = 1e-3
    n = int(duration / dt)
    err_sq = 0.0
    count = 0
    for k in range(n):
        def f(_t, s):
            w1, w2, w3, x1, x2, x3 = s
            return (w2, w3, 0.0) + observer_derivative((x1, x2, x3), w1, 0.0, p)
        y = rk4_step(f, y, k * dt, dt)
        if k * dt >= duration - tail:
            err_sq += (y[5] - c) ** 2
            count += 1
    return math.sqrt(err_sq / count)


def test_precision_monotone_in_alpha1():
    assert _steady_x3_error(0.8) <= _steady_x3_error(0.4)


def _sine_tracking_rms(epsilon, omega, duration=20.0):
    p = ObserverParams(k1=6.0, k2=11.0, k3=6.0, alpha1=0.6, epsilon=epsilon)
    amp = 0.1
    y = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    dt = 1e-3
    n = int(duration / dt)
    err_sq = 0.0
    count = 0
    for k in range(n):
        t = k * dt

        def f(tt, s):
            w1, w2, w3, x1, x2, x3 = s
            dw = (w2, w3, amp * omega * math.cos(omega * tt))
            dx = observer_derivative((x1, x2, x3), w1, 0.0, p)
            return dw + dx

        y = rk4_step(f, y, t, dt)
        if t >= duration / 2:
            err_sq += (y[5] - y[2]) ** 2
            count += 1
    return math.sqrt(err_sq / count) / (amp / math.sqrt(2.0))


def test_sinusoid_tracking_improves_as_epsilon_shrinks():
    rms_tight = _sine_tracking_rms(0.05, 2.0)
    rms_loose = _sine_tracking_rms(0.2, 2.0)
    assert rms_tight < rms_loose


def test_bandwidth_grows_as_epsilon_shrinks():
    """The -3 dB tracking frequency rises when epsilon is reduced."""
    def f3db(epsilon):
        prev = 0.25
        for omega in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            if _sine_tracking_rms(epsilon, omega, duration=12.0) > 0.707:
                return prev
            prev = omega
        return prev

    assert f3db(0.1) > f3db(0.2)


def test_noise_rejection_beats_double_differentiation():
    """x3 follows a disturbance through measurement noise far better
    than differentiating the measurement twice."""
    p = ObserverParams()
    rng = np.random.default_rng(5)
    dt = 1e-3
    hold = 100  # 0.1 s noise hold
    c = 0.2
    held = {"n": 0.0}
    samples = []

    def noise(t):
        k = int(round(t / dt))
        if k % hold == 0 and k != noise.last_draw:
            held["n"] = rng.normal(0.0, 1e-3)
            noise.last_draw = k
        return 0.001 * math.sin(7.0 * t) + held["n"]
    noise.last_draw = -1

    y = (0.0, 0.0, c, 0.0, 0.0, 0.0)
    ys = []
    x3s = []
    for k in range(10000):
        t = k * dt
        n_now = noise(t)

        def f(tt, s):
            w1, w2, w3, x1, x2, x3 = s
            dw = (w2, w3, 0.0)
            dx = observer_derivative((x1, x2, x3), w1 + n_now, 0.0, p)
            return dw + dx

        y = rk4_step(f, y, t, dt)
        ys.append(y[0] + n_now)
        x3s.append(y[5])

    # double-differentiation oracle at the noise-hold cadence
    stride = hold
    dd = []
    for k in range(2 * stride, len(ys), stride):
        dd.append((ys[k] - 2 * ys[k - stride] + ys[k - 2 * stride])
                  / (stride * dt) ** 2)
    tail = slice(len(x3s) // 2, None)
    rms_obs = math.sqrt(np.mean((np.array(x3s[tail]) - c) ** 2))
    dd_tail = np.array(dd[len(dd) // 2:])
    rms_dd = math.sqrt(np.mean((dd_tail - c) ** 2))
    assert rms_obs < rms_dd

