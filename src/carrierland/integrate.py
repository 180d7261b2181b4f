"""
Classical fixed-step fourth-order Runge-Kutta integration.

The derivative function receives (t, state) and returns the state
derivative; states are flat sequences of floats (tuples, lists or
1-D numpy arrays).  The state passed to the first stage is the caller's
`y`; the three intermediate stage states reach `f` as lists.  Stochastic
or sampled inputs must be held constant by the caller across the four
stages of a step.
"""

from __future__ import annotations


def rk4_step(f, y, t: float, dt: float):
    """One RK4 step of y' = f(t, y) from t to t + dt; returns a tuple."""
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = f(t + half, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = f(t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
    sixth = dt / 6.0
    return tuple([yi + sixth * (a + 2.0 * (b + c) + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
