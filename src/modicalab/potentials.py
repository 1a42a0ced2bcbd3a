"""Potential catalog: W together with analytic gradient and Hessian.

All evaluators are vectorized over a trailing value axis of length m, so a
single call can score 10^4 sample points.  Consistency between the three
returned objects is enforced by `fd_consistency`, which every catalog entry
must pass.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "make_potential",
    "fd_consistency",
    "POTENTIAL_IDS",
]


@dataclass(frozen=True)
class Potential:
    """A smooth potential W: R^m -> R with its first two derivatives.

    w, grad, hess accept arrays of shape (..., m) and return shapes (...),
    (..., m) and (..., m, m) respectively.
    """

    name: str
    m: int
    params: dict
    zeros: tuple
    _w: Callable
    _grad: Callable
    _hess: Callable

    def w(self, u):
        return self._w(self._check(u))

    def grad(self, u):
        return self._grad(self._check(u))

    def hess(self, u):
        return self._hess(self._check(u))

    def _check(self, u):
        u = np.asarray(u, float)
        if u.ndim == 0 and self.m == 1:
            u = u[None]
        if u.shape[-1] != self.m:
            raise ValueError(f"{self.name}: expected trailing axis of length {self.m}")
        return u


def _make_double_well():
    def w(u):
        return 0.25 * np.square(u[..., 0] ** 2 - 1.0)

    def grad(u):
        return (u[..., :1] ** 2 - 1.0) * u[..., :1]

    def hess(u):
        return (3.0 * u[..., 0] ** 2 - 1.0)[..., None, None]

    return Potential(
        "double_well", 1, {}, (np.array([-1.0]), np.array([1.0])), w, grad, hess
    )


def _make_ginzburg_landau(m=2):
    m = int(m)
    if m < 1:
        raise ValueError("ginzburg_landau needs m >= 1")

    def w(u):
        return 0.25 * np.square(np.sum(u**2, axis=-1) - 1.0)

    def grad(u):
        q = np.sum(u**2, axis=-1) - 1.0
        return q[..., None] * u

    def hess(u):
        q = np.sum(u**2, axis=-1) - 1.0
        eye = np.eye(m)
        return q[..., None, None] * eye + 2.0 * u[..., :, None] * u[..., None, :]

    zeros = tuple(np.eye(m)[i] for i in range(m)) + (np.eye(m)[0] * -1.0,)
    return Potential("ginzburg_landau", m, {"m": m}, zeros, w, grad, hess)


def _make_n_well(N=3):
    N = int(N)
    if N < 1:
        raise ValueError("n_well needs N >= 1")

    def _z(u):
        # always an array, even for one point: numpy's complex scalars
        # multiply with other rounding than its complex array loops
        flat = u.reshape(-1, 2)
        return flat[:, 0] + 1j * flat[:, 1]

    def w(u):
        z = _z(u)
        return (np.abs(z**N - 1.0) ** 2).reshape(u.shape[:-1])

    def grad(u):
        z = _z(u)
        # Wirtinger: dW/dz = N z^(N-1) (conj(z)^N - 1); real gradient = (2 Re, -2 Im)
        g = N * z ** (N - 1) * (np.conj(z) ** N - 1.0)
        return np.stack([2.0 * g.real, -2.0 * g.imag], axis=-1).reshape(u.shape)

    def hess(u):
        z = _z(u)
        h = N * (N - 1) * z ** (N - 2) * (np.conj(z) ** N - 1.0) if N >= 2 else np.zeros_like(z)
        k = N**2 * np.abs(z) ** (2 * (N - 1))
        wxx = 2.0 * k + 2.0 * h.real
        wyy = 2.0 * k - 2.0 * h.real
        wxy = -2.0 * h.imag
        return np.stack([wxx, wxy, wxy, wyy], axis=-1).reshape(u.shape[:-1] + (2, 2))

    zeros = tuple(
        np.array([math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N)])
        for k in range(N)
    )
    return Potential("n_well", 2, {"N": N}, zeros, w, grad, hess)


def _regular_polygon(N, radius=1.0):
    return np.array(
        [[radius * math.cos(2 * math.pi * k / N), radius * math.sin(2 * math.pi * k / N)] for k in range(N)]
    )


def _make_polygon_product(vertices=None):
    verts = _regular_polygon(3) if vertices is None else np.atleast_2d(np.asarray(vertices, float))
    if verts.shape[1] != 2 or len(verts) < 2:
        raise ValueError("polygon_product needs >= 2 planar vertices")
    N = len(verts)

    def _pieces(u):
        d = u[..., None, :] - verts  # (..., N, 2)
        p = np.sum(d**2, axis=-1)  # (..., N)
        return d, p

    def w(u):
        _, p = _pieces(u)
        return np.prod(p, axis=-1)

    def _partials(p):
        # prod over j != i, computed stably without dividing by zero factors
        full = np.ones(p.shape[:-1] + (N,))
        for i in range(N):
            others = [j for j in range(N) if j != i]
            full[..., i] = np.prod(p[..., others], axis=-1)
        return full

    def grad(u):
        d, p = _pieces(u)
        pr = _partials(p)  # (..., N)
        return np.sum(2.0 * d * pr[..., None], axis=-2)

    def hess(u):
        d, p = _pieces(u)
        pr = _partials(p)
        out = 2.0 * np.sum(pr, axis=-1)[..., None, None] * np.eye(2)
        for i in range(N):
            for k in range(N):
                if i == k:
                    continue
                others = [j for j in range(N) if j != i and j != k]
                pik = np.prod(p[..., others], axis=-1) if others else np.ones(p.shape[:-1])
                out = out + 4.0 * pik[..., None, None] * d[..., i, :, None] * d[..., k, None, :]
        return out

    zeros = tuple(verts[i].copy() for i in range(N))
    return Potential("polygon_product", 2, {"vertices": verts.tolist()}, zeros, w, grad, hess)


def _make_quadratic(m=2):
    m = int(m)

    def w(u):
        return 0.5 * np.sum(u**2, axis=-1)

    def grad(u):
        return u.copy()

    def hess(u):
        return np.broadcast_to(np.eye(m), u.shape[:-1] + (m, m)).copy()

    return Potential("quadratic", m, {"m": m}, (np.zeros(m),), w, grad, hess)


def _make_zero(m=2):
    """W = 0: solutions are harmonic maps, the vacuum case of every identity."""
    m = int(m)

    def w(u):
        return np.zeros(u.shape[:-1])

    def grad(u):
        return np.zeros_like(u)

    def hess(u):
        return np.zeros(u.shape[:-1] + (m, m))

    return Potential("zero", m, {"m": m}, (), w, grad, hess)


_BUILDERS = {
    "double_well": _make_double_well,
    "ginzburg_landau": _make_ginzburg_landau,
    "n_well": _make_n_well,
    "polygon_product": _make_polygon_product,
    "quadratic": _make_quadratic,
    "zero": _make_zero,
}

POTENTIAL_IDS = tuple(_BUILDERS)


def _checked_build(kind: str, builders: dict, name: str, params: dict):
    """builders[name](**params), where an unknown id, a key the builder does
    not take and a required key left out are ValueErrors naming what it
    accepts.  The potential and the field catalogs both build through it."""
    if name not in builders:
        raise ValueError(f"unknown {kind} id {name!r}; known ids: {', '.join(builders)}")
    keys = inspect.signature(builders[name]).parameters
    accepted = f"accepted: {', '.join(keys) or 'none'}"
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"{kind} {name!r} takes no parameter {', '.join(map(repr, unknown))}; {accepted}")
    missing = [k for k, prm in keys.items() if prm.default is prm.empty and k not in params]
    if missing:
        raise ValueError(f"{kind} {name!r} needs the parameter {', '.join(map(repr, missing))}; {accepted}")
    return builders[name](**params)


def make_potential(name: str, **params) -> Potential:
    return _checked_build("potential", _BUILDERS, name, params)


def fd_consistency(p: Potential, u) -> float:
    """Worst relative error between analytic derivatives and central
    differences with step h = 1e-5.

    Gradient is checked against differences of W, the Hessian against
    differences of the gradient.  Relative to the larger of the two scales,
    floored at 1 so that zero derivatives do not blow up the quotient.
    """
    u = np.atleast_1d(np.asarray(u, float))
    m, h = p.m, 1e-5
    g_fd = np.empty(m)
    h_fd = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        g_fd[i] = (p.w(u + e) - p.w(u - e)) / (2 * h)
        h_fd[:, i] = (p.grad(u + e) - p.grad(u - e)) / (2 * h)
    g = p.grad(u)
    H = p.hess(u)
    scale_g = max(1.0, float(np.max(np.abs(g))), float(np.max(np.abs(g_fd))))
    scale_h = max(1.0, float(np.max(np.abs(H))), float(np.max(np.abs(h_fd))))
    err_g = float(np.max(np.abs(g - g_fd))) / scale_g
    err_h = float(np.max(np.abs(H - h_fd))) / scale_h
    return max(err_g, err_h)
