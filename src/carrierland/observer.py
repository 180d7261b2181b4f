"""
Finite-time augmented observer for the pitch channel.

Estimates three quantities from a single noisy position-like
measurement y: the measured variable itself (x1), its rate (x2), and a
lumped disturbance acting on the rate equation (x3).  The underlying
plant form is

    w1' = w2
    w2' = w3 + h(t)        h: known input
    w3' = eta(t)           unknown, bounded-derivative disturbance
    y   = w1 + n(t)        n: measurement noise

and the observer applies fractional-power output injection

    x1' = x2      - (k3/eps)   |e|^a3 sign(e)
    x2' = x3 + h  - (k2/eps^2) |e|^a2 sign(e)
    x3' =         - (k1/eps^3) |e|^a1 sign(e)

with e = x1 - y.  The exponents are tied together,
a2 = (2 a1 + 1)/3 and a3 = (a1 + 2)/3, and the gains must satisfy
k1 > 0, k3 > 0, k2 > 4 k1/(pi k3) for stability.  Raising a1 toward 1
improves steady precision; shrinking eps raises the observer bandwidth
(and its noise sensitivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_pow = math.pow


@dataclass(frozen=True)
class ObserverParams:
    k1: float = 0.75
    k2: float = 2.75
    k3: float = 3.0
    alpha1: float = 0.9
    epsilon: float = 0.3

    def __post_init__(self):
        violations = validate_params(self)
        if violations:
            raise ValueError("invalid observer parameters: " + "; ".join(violations))
        # injection gains and exponents, computed once for observer_derivative
        g3, g2, g1 = injection_gains(self)
        object.__setattr__(self, "_injection", (
            g3, g2, -g1, self.alpha3, self.alpha2, self.alpha1))

    @property
    def alpha2(self) -> float:
        return (2.0 * self.alpha1 + 1.0) / 3.0

    @property
    def alpha3(self) -> float:
        return (self.alpha1 + 2.0) / 3.0


def injection_gains(p) -> tuple[float, float, float]:
    """(k3/eps, k2/eps^2, k1/eps^3), the output-injection gains."""
    eps = p.epsilon
    return p.k3 / eps, p.k2 / (eps * eps), p.k1 / (eps ** 3)


def validate_params(p) -> list[str]:
    """Return the list of violated parameter constraints (empty if valid).

    Works on any object with k1/k2/k3/alpha1/epsilon attributes so that
    candidate values can be screened before constructing ObserverParams.
    """
    v = []
    if not p.k1 > 0.0:
        v.append("k1 must be > 0")
    if not p.k3 > 0.0:
        v.append("k3 must be > 0")
    if p.k1 > 0.0 and p.k3 > 0.0 and not p.k2 > 4.0 * p.k1 / (math.pi * p.k3):
        v.append("k2 must exceed 4*k1/(pi*k3)")
    if not 0.0 < p.alpha1 < 1.0:
        v.append("alpha1 must lie in the open interval (0, 1)")
    if not 0.0 < p.epsilon < 1.0:
        v.append("epsilon must lie in the open interval (0, 1)")
    elif p.epsilon ** 3 == 0.0:
        v.append("epsilon**3 underflows to 0; the gain k1/eps^3 is undefined")
    if not v:
        for name, gain in zip(("k3/eps", "k2/eps^2", "k1/eps^3"),
                              injection_gains(p)):
            if not math.isfinite(gain):
                v.append(f"the gain {name} overflows to {gain!r}")
    return v


def observer_derivative(state, y_op: float, h: float, p: ObserverParams):
    """(x1', x2', x3') of the observer driven by measurement y_op and input h.

    `state` is anything indexable as (x1, x2, x3).  The injection terms
    are |e|^a * sign(e), continuous through zero (and zero for e = NaN).
    """
    x1, x2, x3 = state[0], state[1], state[2]
    e = x1 - y_op
    g3, g2, g1, a3, a2, a1 = p._injection
    if e > 0.0:
        f3 = _pow(e, a3)
        f2 = _pow(e, a2)
        f1 = _pow(e, a1)
    elif e < 0.0:
        f3 = -_pow(-e, a3)
        f2 = -_pow(-e, a2)
        f1 = -_pow(-e, a1)
    else:
        f3 = f2 = f1 = 0.0
    return x2 - g3 * f3, x3 + h - g2 * f2, g1 * f1

