"""C-infinity bump and step machinery shared by the potential and curve builders.

Everything here is built from the flat exponential exp(-1/t), which vanishes
to all orders at t = 0.  That flat contact is what lets piecewise definitions
(plateau potentials, curvature profiles) glue into globally smooth objects.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per order on first use and returned read-only, since every caller shares
    them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def flat_exp(t):
    """exp(-1/t) for t > 0 and 0 for t <= 0, elementwise."""
    t = np.asarray(t, dtype=float)
    # every lane divides, and the lanes t <= 0 take exp(-inf) = 0 instead;
    # 1/t overflows for subnormal t, where exp(-inf) = 0 is right as well
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(t > 0, -1.0 / t, -np.inf)
    return np.exp(x, out=x)


def _flat_exp_d(t):
    """Derivative of flat_exp: exp(-1/t)/t^2 on t > 0."""
    t = np.asarray(t, dtype=float)
    f = flat_exp(t)
    out = np.zeros_like(t)
    live = f > 0  # where exp(-1/t) underflows, so may t^2, and 0/0 is nan
    out[live] = f[live] / t[live] ** 2
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
    integral only ever runs over [0, 1/2], where the integrand is tame, and is
    read from one cumulative table, built on first use.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    out = np.full_like(x, np.nan)  # NaN takes none of the three branches

    out[x <= 0.0] = 0.0
    hi = x >= 1.0
    out[hi] = x[hi] - 0.5

    mid = (~hi) & (x > 0.0)
    if np.any(mid):
        xm = x[mid]
        # fold the upper half onto the lower half
        fold = xm > 0.5
        base = np.where(fold, xm - 0.5, 0.0)
        out[mid] = base + _smoothstep_table()(np.where(fold, 1.0 - xm, xm))

    return out[0] if scalar else out


# Abscissae per block of a table build (1,024 panels of the 8-point rule) or
# of a table read: a block and the temporaries on it stay cache-sized, where
# one pass over the largest table's 131,072 abscissae would hold over 10 MB.
_BLOCK = 8192


class _PanelIntegral:
    """Cumulative integral F(x) = integral of f from a to x on [a, b], read
    from a table.  The table holds, at the edges of uniform panels, the prefix
    sums of the 8-point Gauss-Legendre rule per panel together with h f and
    h^2 f' (df is the derivative of f), and a query reads the quintic Hermite
    interpolant of F, F' = f and F'' = f' on its panel: no integrand call.
    f and df map abscissae of any shape to values of the same shape, or of
    shape (d, ...) for a d-vector integrand, in which case F has the
    components on its leading axis too.  The panel sums are computed one
    block of panels at a time, each panel's sum bit for bit what one pass
    over all panels gives, and then accumulated by one cumsum; a query of
    more than a block is read a block at a time, bit for bit as in one pass."""

    def __init__(self, f, df, a: float, b: float, panels: int):
        self.f, self.a, self.panels = f, a, panels
        self.h = (b - a) / panels
        self.edges = np.linspace(a, b, panels + 1)
        nodes, weights = _gauss_legendre(8)
        blocks, step = [], _BLOCK // nodes.size
        for lo in range(0, panels, step):
            edges = self.edges[lo : lo + step + 1]
            width = np.diff(edges)
            t = 0.5 * width[:, None] * (nodes + 1.0) + edges[:-1, None]
            blocks.append(0.5 * width * (f(t) @ weights))
        sums = np.cumsum(np.concatenate(blocks, axis=-1), axis=-1)
        self.table = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
        self.total = self.table[..., -1]
        self.slope = self.h * f(self.edges)
        self.bend = self.h**2 * df(self.edges)

    def __call__(self, x):
        x = np.asarray(x, float)
        if x.size > _BLOCK:
            flat = x.ravel()
            out = np.concatenate([self(flat[lo : lo + _BLOCK]) for lo in range(0, flat.size, _BLOCK)], axis=-1)
            return out.reshape(out.shape[:-1] + x.shape)
        x = np.clip(x, self.edges[0], self.edges[-1])
        # fmax equals x for every clipped non-NaN x, and sends NaN to panel 0,
        # where it reads NaN
        k = np.minimum(((np.fmax(x, self.a) - self.a) / self.h).astype(int), self.panels - 1)
        k1 = k + 1
        t = (x - np.take(self.edges, k)) / self.h
        u = 1.0 - t
        t3, u3 = t**3, u**3  # pow: t * t * t would round otherwise
        F0, F1 = np.take(self.table, k, axis=-1), np.take(self.table, k1, axis=-1)
        # F0 plus the quintic's correction, the basis functions in factored form
        return F0 + (
            (F1 - F0) * t3 * (10.0 + t * (6.0 * t - 15.0))
            + np.take(self.slope, k, axis=-1) * t * u3 * (1.0 + 3.0 * t)
            - np.take(self.slope, k1, axis=-1) * t3 * u * (4.0 - 3.0 * t)
            + 0.5 * np.take(self.bend, k, axis=-1) * t**2 * u3
            + 0.5 * np.take(self.bend, k1, axis=-1) * t3 * u**2
        )

    def inverse(self, F):
        """x with F(x) = F for a positive scalar integrand: three Newton steps,
        whose derivative is f itself, from linear interpolation of the table."""
        F = np.asarray(F, float)
        x = np.interp(F, self.table, self.edges)
        for _ in range(3):
            x = x - (self(x) - F) / self.f(x)
        return x


@cache
def _smoothstep_table() -> _PanelIntegral:
    """The integral of smoothstep over [0, x] for x in [0, 1/2], built once."""
    return _PanelIntegral(smoothstep, smoothstep_d, 0.0, 0.5, 1024)


def bump01(t):
    """exp(-1/(t(1-t))) on (0, 1), zero outside: a C-infinity bump."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):  # as in flat_exp
        q = t * (1.0 - t)  # positive exactly on (0, 1)
        x = np.where(q > 0, -1.0 / q, -np.inf)
    return np.exp(x, out=x)


def bump01_d(t):
    """First derivative of bump01."""
    t = np.asarray(t, dtype=float)
    b = bump01(t)
    out = np.zeros_like(t)
    live = b > 0  # as in _flat_exp_d
    ti = t[live]
    q = ti * (1.0 - ti)
    out[live] = b[live] * (1.0 - 2.0 * ti) / q**2
    return out
