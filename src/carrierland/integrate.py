"""
Classical fixed-step fourth-order Runge-Kutta integration.

The derivative function receives (t, state) and returns the state
derivative; states are flat sequences of floats (tuples, lists or
1-D numpy arrays).  The state passed to the first stage is the caller's
`y`; the three intermediate stage states reach `f` as lists.  `f` must
return exactly len(y) elements.  Stochastic or sampled inputs must be
held constant by the caller across the four stages of a step.

The step runs as a straight-line kernel per state length: the state and
each stage derivative are unpacked into named locals and every element
is one written-out expression, with no `zip` or comprehension per stage.
The kernel's text is generated from the two per-element expressions

    yi + half * ki                          (stage states; dt for k4)
    yi + sixth * (a + 2.0 * (b + c) + d)    (the update)

with the same operands in the same order, so each float is the one the
element-wise loop would compute, bit for bit.  A kernel is compiled the
first time a state length is seen and cached for the life of the
process (a few milliseconds at n = 20, growing with n).  It is compiled
under the file name `<rk4 kernel n=N>` with its text in `linecache`, so
a traceback through it shows the generated line.
"""

from __future__ import annotations

import linecache

_KERNELS: dict = {}


def _kernel_source(n: int) -> str:
    y, a, b, c, d = ([f"{p}{i}" for i in range(n)] for p in "yabcd")

    def seq(items):
        return "[" + ", ".join(items) + "]"

    def stage(scale, k):
        return seq(f"{yi} + {scale} * {ki}" for yi, ki in zip(y, k))

    update = ", ".join(f"{yi} + sixth * ({ai} + 2.0 * ({bi} + {ci}) + {di})"
                       for yi, ai, bi, ci, di in zip(y, a, b, c, d))
    return "\n".join([
        "def rk4_kernel(f, y, t, dt):",
        "    half = 0.5 * dt",
        f"    {seq(a)} = f(t, y)",
        f"    {seq(y)} = y",
        f"    {seq(b)} = f(t + half, {stage('half', a)})",
        f"    {seq(c)} = f(t + half, {stage('half', b)})",
        f"    {seq(d)} = f(t + dt, {stage('dt', c)})",
        "    sixth = dt / 6.0",
        f"    return ({update}{',' if n == 1 else ''})",
        "",
    ])


def _compile_kernel(n: int):
    source = _kernel_source(n)
    filename = f"<rk4 kernel n={n}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    _KERNELS[n] = namespace["rk4_kernel"]
    return _KERNELS[n]


def rk4_step(f, y, t: float, dt: float):
    """One RK4 step of y' = f(t, y) from t to t + dt; returns a tuple."""
    kernel = _KERNELS.get(len(y))
    if kernel is None:
        kernel = _compile_kernel(len(y))
    return kernel(f, y, t, dt)
