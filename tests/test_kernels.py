"""Bit-exactness of the hot-path kernels against straightforward references.

The references below are the plain forms of each kernel: RK4 stages
built as tuples from generators, coefficient tables evaluated with the
generic polynomial loop, and the observer injection taking the sign of
the error once per term.  Every rewritten kernel must return the same
floats, down to the sign of zero, so traces stay byte-identical.
"""

import inspect
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from carrierland.airframe import OutOfTableRange, default_aero_model
from carrierland.environment import WindSample
from carrierland.integrate import rk4_step
from carrierland.observer import ObserverParams, observer_derivative
from carrierland.sim import TRACE_HEADER, _fmt, write_trace_csv


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


@pytest.mark.parametrize("f, y0", [
    (_cubic_decay, (0.7,)),
    (_lorenz, (1.0, -2.5, 20.0)),
    (_ring20, tuple(0.1 * i - 0.95 for i in range(20))),
])
def test_rk4_matches_reference(f, y0):
    y_new = y_ref = y0
    dt = 0.013
    for k in range(50):
        y_new = rk4_step(f, y_new, k * dt, dt)
        y_ref = ref_rk4_step(f, y_ref, k * dt, dt)
        assert type(y_new) is tuple
        assert y_new == y_ref
        assert _bits(y_new) == _bits(y_ref)


# -------------------------------------------------------- aero tables

def ref_check_alpha(model, alpha):
    if not (model.alpha_min <= alpha <= model.alpha_max):
        raise OutOfTableRange(
            f"alpha = {math.degrees(alpha):.2f} deg outside table range "
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

def ref_write_trace_csv(path, trace, header=TRACE_HEADER):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in trace:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _row(*head):
    floats = list(head) + [0.125 * i for i in range(30 - len(head))]
    return tuple(floats) + (1, 0)


def test_trace_writer_matches_fmt(tmp_path):
    trace = [
        _row(),
        _row(-0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300,
             5e-324, 1.7976931348623157e308, 1.0 / 3.0, 123456789.0123,
             1e16, 1e-5, -2.5e-7, 29.111000000012595),
        _row(0.1, 0.2, 0.30000000000000004),
        _row()[:30] + (12345678901, -98765432109876),   # wide ints
        _row()[:30] + (True, False),                      # bools use _fmt
        _row(np.float64(0.1), np.float64(-0.0)),          # numpy floats too
        [0.5, 2, -0.0],                                   # a list row
        (),
        _row(math.nan),
    ]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_trace_csv(got, trace)
    ref_write_trace_csv(ref, trace)
    assert got.read_bytes() == ref.read_bytes()
    assert "True,False" in got.read_text()
