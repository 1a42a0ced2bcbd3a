"""C-infinity bump and step machinery shared by the potential and curve builders.

Everything here is built from the flat exponential exp(-1/t), which vanishes
to all orders at t = 0.  That flat contact is what lets piecewise definitions
(plateau potentials, curvature profiles) glue into globally smooth objects.
"""

from __future__ import annotations

import numpy as np

_GL64 = np.polynomial.legendre.leggauss(64)


def flat_exp(t):
    """exp(-1/t) for t > 0 and 0 for t <= 0, elementwise."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):  # 1/t overflows for subnormal t; exp(-inf) = 0 is right
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _flat_exp_d(t):
    """Derivative of flat_exp: exp(-1/t)/t^2 on t > 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.exp(-1.0 / tp) / tp**2
    return out


def smoothstep(t):
    """Monotone C-infinity step: 0 for t <= 0, 1 for t >= 1, flat at both ends.

    Uses the classical partition-of-unity quotient f(t) / (f(t) + f(1-t))
    with f = flat_exp, which satisfies smoothstep(t) + smoothstep(1-t) = 1.
    """
    t = np.asarray(t, dtype=float)
    f = flat_exp(t)
    g = flat_exp(1.0 - t)
    return f / (f + g)


def smoothstep_d(t):
    """First derivative of smoothstep (nonnegative, supported on (0, 1))."""
    t = np.asarray(t, dtype=float)
    f = flat_exp(t)
    g = flat_exp(1.0 - t)
    fp = _flat_exp_d(t)
    gp = _flat_exp_d(1.0 - t)  # note: d/dt f(1-t) = -gp
    denom = (f + g) ** 2
    out = np.zeros_like(t)
    inside = (t > 0) & (t < 1)
    out[inside] = (fp[inside] * g[inside] + f[inside] * gp[inside]) / denom[inside]
    return out


def smoothstep_integral(x):
    """Antiderivative I(x) = integral of smoothstep from 0 to x, elementwise.

    Exploits the symmetry smoothstep(t) + smoothstep(1-t) = 1, which gives
    I(x) = x - 1/2 + I(1-x); in particular I(1) = 1/2 exactly.  The remaining
    quadrature only ever runs over [0, 1/2] where the integrand is tame.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    out = np.empty_like(x)

    out[x <= 0.0] = 0.0
    hi = x >= 1.0
    out[hi] = x[hi] - 0.5

    mid = (~hi) & (x > 0.0)
    if np.any(mid):
        xm = x[mid]
        # fold the upper half onto the lower half
        fold = xm > 0.5
        base = np.where(fold, xm - 0.5, 0.0)
        xe = np.where(fold, 1.0 - xm, xm)
        nodes, weights = _GL64
        # map GL nodes to [0, xe] per query
        t = 0.5 * xe[:, None] * (nodes[None, :] + 1.0)
        vals = smoothstep(t)
        integ = 0.5 * xe * (vals @ weights)
        out[mid] = base + integ

    return out[0] if scalar else out


def bump01(t):
    """exp(-1/(t(1-t))) on (0, 1), zero outside: a C-infinity bump."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (ti * (1.0 - ti)))
    return out


def bump01_d(t):
    """First derivative of bump01."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    q = ti * (1.0 - ti)
    out[inside] = np.exp(-1.0 / q) * (1.0 - 2.0 * ti) / q**2
    return out
