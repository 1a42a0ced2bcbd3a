"""Fields and their second-order jets.

Two flavours of field live here: closed-form catalog entries (with analytic
jets) and rectangular grid samples (with central-difference jets).  The jet is
the common currency every pointwise check downstream consumes: value, first
derivatives and second derivatives of a map u: R^n -> R^m at one point, or at
every interior node of a grid at once.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .potentials import _checked_build

__all__ = [
    "Jet2",
    "ClosedFormField",
    "GridField",
    "make_field",
    "field_keys",
    "grid_jets",
    "sample_field",
    "save_gridfield",
    "load_gridfield",
    "CATALOG_IDS",
]


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a field at a point, or at a batch of points when
    every attribute carries the same leading node axes.

    Attributes
    ----------
    x : (..., n) evaluation point
    u : (..., m) field value
    du : (..., m, n) first derivatives, du[..., j, i] = d u^j / d x_i
    d2u : (..., m, n, n) second derivatives
    """

    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, float)))
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, float)))
        object.__setattr__(self, "du", np.asarray(self.du, float))
        object.__setattr__(self, "d2u", np.asarray(self.d2u, float))
        m, n = self.m, self.n
        nodes = self.x.shape[:-1]
        if (self.u.shape[:-1] != nodes or self.du.shape != nodes + (m, n)
                or self.d2u.shape != nodes + (m, n, n)):
            raise ValueError(
                f"jet shapes inconsistent: x {self.x.shape}, u {self.u.shape},"
                f" du {self.du.shape}, d2u {self.d2u.shape}"
            )

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def m(self) -> int:
        return self.u.shape[-1]

    def grad_sq(self):
        """|grad u|^2 summed over all components and directions, per point."""
        if self.du.ndim == 2:
            return float(np.sum(self.du**2))
        return np.sum(self.du**2, axis=(-2, -1))

    def laplacian(self) -> np.ndarray:
        """(..., m) componentwise Laplacian, the trace of d2u over space axes."""
        return np.trace(self.d2u, axis1=-2, axis2=-1)


@dataclass(frozen=True)
class ClosedFormField:
    """A catalog field with vectorized values and analytic jets.

    `_values` maps points (..., n) to values (..., m) and `_derivatives` maps
    them to (du, d2u) with the same leading node axes, so the value in a jet
    is the value `values` returns.
    """

    name: str
    n: int
    m: int
    params: dict
    _derivatives: Callable[[np.ndarray], tuple]
    _values: Callable[[np.ndarray], np.ndarray]

    def _points(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        if X.shape[-1:] != (self.n,):
            raise ValueError(f"{self.name}: trailing axis must have length {self.n}, got shape {X.shape}")
        return X

    def values(self, X) -> np.ndarray:
        """Evaluate at an array of points, shape (..., n) -> (..., m)."""
        return self._values(self._points(X))

    def jets(self, X) -> Jet2:
        """Analytic jets at an array of points (..., n), node axes leading."""
        X = self._points(X)
        return Jet2(X, self._values(X), *self._derivatives(X))


def _omega(R: float) -> float:
    return math.sqrt(1.0 - R * R)


def _zeros(X, *shape):
    return np.zeros(X.shape[:-1] + shape)


def _make_constant(value, n=1):
    value = np.atleast_1d(np.asarray(value, float))
    m = value.size

    def values(X):
        return np.broadcast_to(value, X.shape[:-1] + (m,)).copy()

    def derivatives(X):
        return _zeros(X, m, n), _zeros(X, m, n, n)

    return ClosedFormField("constant", n, m, {"value": value.tolist(), "n": n}, derivatives, values)


def _make_linear(A, b=None, n=None):
    A = np.atleast_2d(np.asarray(A, float))
    m, n_ = A.shape
    if n is not None and n != n_:
        raise ValueError("linear: n inconsistent with matrix shape")
    n = n_
    b = np.zeros(m) if b is None else np.atleast_1d(np.asarray(b, float))

    def values(X):
        return X @ A.T + b

    def derivatives(X):
        return np.broadcast_to(A, X.shape[:-1] + (m, n)).copy(), _zeros(X, m, n, n)

    return ClosedFormField("linear", n, m, {"A": A.tolist(), "b": b.tolist()}, derivatives, values)


def _make_gl_circle(R=0.5, planar=False):
    R = float(R)
    if not 0.0 < R < 1.0:
        raise ValueError(f"gl_circle requires 0 < R < 1, got R = {R}")
    omega = _omega(R)
    n = 2 if planar else 1
    name = "gl_circle_planar" if planar else "gl_circle"

    def values(X):
        phase = omega * X[..., 0]
        return np.stack([R * np.cos(phase), R * np.sin(phase)], axis=-1)

    def derivatives(X):
        phase = omega * X[..., 0]
        c, s = np.cos(phase), np.sin(phase)
        du, d2u = _zeros(X, 2, n), _zeros(X, 2, n, n)
        du[..., 0] = np.stack([-R * omega * s, R * omega * c], axis=-1)
        d2u[..., 0, 0] = np.stack([-R * omega**2 * c, -R * omega**2 * s], axis=-1)
        return du, d2u

    return ClosedFormField(name, n, 2, {"R": R}, derivatives, values)


def _make_tanh(planar=False):
    n = 2 if planar else 1
    name = "tanh_planar" if planar else "tanh_profile"
    rt2 = math.sqrt(2.0)

    def values(X):
        return np.tanh(X[..., :1] / rt2)

    def derivatives(X):
        t = values(X)[..., 0]
        sech2 = 1.0 - t * t
        du, d2u = _zeros(X, 1, n), _zeros(X, 1, n, n)
        du[..., 0, 0] = sech2 / rt2
        d2u[..., 0, 0, 0] = -t * sech2  # (1/2) * d/dx sech^2(x/rt2) etc.
        return du, d2u

    return ClosedFormField(name, n, 1, {}, derivatives, values)


def _make_harmonic_linear_map(A=None):
    A = np.eye(2) if A is None else np.atleast_2d(np.asarray(A, float))
    if A.shape != (2, 2):
        raise ValueError("harmonic_linear_map expects a 2x2 matrix")
    f = _make_linear(A)
    return ClosedFormField("harmonic_linear_map", 2, 2, {"A": A.tolist()}, f._derivatives, f._values)


def _make_product_saddle():
    def values(X):
        return (X[..., 0] * X[..., 1])[..., None]

    def derivatives(X):
        hess = np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], X.shape[:-1] + (1, 2, 2))
        return X[..., None, ::-1].copy(), hess.copy()

    return ClosedFormField("product_saddle", 2, 1, {}, derivatives, values)


_BUILDERS = {
    "constant": _make_constant,
    "linear": _make_linear,
    "gl_circle": lambda R=0.5: _make_gl_circle(R, planar=False),
    "gl_circle_planar": lambda R=0.5: _make_gl_circle(R, planar=True),
    "tanh_profile": lambda: _make_tanh(planar=False),
    "tanh_planar": lambda: _make_tanh(planar=True),
    "harmonic_linear_map": _make_harmonic_linear_map,
    "product_saddle": _make_product_saddle,
}

CATALOG_IDS = tuple(_BUILDERS)


def field_keys(name: str) -> tuple:
    """The parameter names a catalog field takes; none for an unknown id."""
    builder = _BUILDERS.get(name)
    return () if builder is None else tuple(inspect.signature(builder).parameters)


def make_field(name: str, **params) -> ClosedFormField:
    """Construct a catalog field by id.  The id set is closed; parameters are
    validated here so that downstream code can trust the object."""
    return _checked_build("field", _BUILDERS, name, params)


@dataclass(frozen=True)
class GridField:
    """Uniform rectangular grid of field values, n in {1, 2}.

    values has shape extents + (m,); node (i, j) sits at
    origin + (i h_1, j h_2).  Points between nodes are never interpolated.
    """

    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, float)))
        object.__setattr__(self, "spacing", np.atleast_1d(np.asarray(self.spacing, float)))
        object.__setattr__(self, "values", np.asarray(self.values, float))
        n = self.origin.size
        if n not in (1, 2):
            raise ValueError("GridField supports n in {1, 2}")
        if self.spacing.shape != (n,) or np.any(self.spacing <= 0) or not np.all(np.isfinite(self.spacing)):
            raise ValueError("spacing must be positive finite, one entry per axis")
        if self.values.ndim != n + 1:
            raise ValueError(f"values must have shape extents + (m,), got {self.values.shape}")
        if any(e < 5 for e in self.values.shape[:-1]):
            raise ValueError("grid needs at least 5 nodes per axis")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def n(self) -> int:
        return self.origin.size

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @property
    def extents(self) -> tuple:
        return self.values.shape[:-1]

    def axes(self) -> list:
        return [self.origin[i] + self.spacing[i] * np.arange(self.extents[i]) for i in range(self.n)]

    def node_position(self, idx) -> np.ndarray:
        idx = np.atleast_1d(np.asarray(idx, int))
        return self.origin + self.spacing * idx


def sample_field(cf: ClosedFormField, origin, spacing, extents) -> GridField:
    """Sample a closed-form field on a uniform grid; the grid's meta names
    the field and its parameters."""
    origin = np.atleast_1d(np.asarray(origin, float))
    spacing = np.atleast_1d(np.asarray(spacing, float))
    extents = tuple(int(e) for e in np.atleast_1d(extents))
    axes = [origin[i] + spacing[i] * np.arange(extents[i]) for i in range(len(extents))]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack(mesh, axis=-1)
    vals = cf.values(X)
    return GridField(origin, spacing, vals, {"sampled_from": cf.name, "params": cf.params})


def _at(v: np.ndarray, offset) -> np.ndarray:
    """v at the interior nodes of its len(offset) leading axes, shifted by offset."""
    return v[tuple(slice(1 + o, o - 1 or None) for o in offset)]


def _first_differences(v: np.ndarray, h) -> np.ndarray:
    """3-point central first differences at the interior nodes of the
    n = len(h) leading node axes of v; trailing axes are carried along and
    the derivative axis is appended, so (..., i) is d/dx_i."""
    n = len(h)
    d = np.empty(tuple(e - 2 for e in v.shape[:n]) + v.shape[n:] + (n,))
    for i, step in enumerate(np.eye(n, dtype=int).tolist()):
        d[..., i] = (_at(v, step) - _at(v, [-s for s in step])) / (2 * h[i])
    return d


def _central_differences(v: np.ndarray, h) -> tuple:
    """Second-order central differences at the interior nodes of a grid array.

    v has n = len(h) leading node axes, n in {1, 2}, and its trailing axes
    (the m field components of a grid) are carried along.  Uses the 3-point
    first and second differences and the 4-point cross stencil (exact on
    quadratics); returns u, du, d2u with leading node axes.
    """
    n = len(h)
    u = _at(v, (0,) * n).copy()
    du = _first_differences(v, h)
    d2u = np.empty(u.shape + (n, n))
    for i, step in enumerate(np.eye(n, dtype=int).tolist()):
        d2u[..., i, i] = (_at(v, step) - 2 * u + _at(v, [-s for s in step])) / h[i] ** 2
    if n == 2:
        mixed = (_at(v, (1, 1)) - _at(v, (1, -1)) - _at(v, (-1, 1)) + _at(v, (-1, -1))) / (4 * h[0] * h[1])
        d2u[..., 0, 1] = d2u[..., 1, 0] = mixed
    return u, du, d2u


def _laplacian(v: np.ndarray, h) -> np.ndarray:
    """Five-point Laplacian of v over the interior nodes of its two leading
    axes; trailing axes are carried along."""
    if len(h) != 2:
        raise ValueError("the five-point Laplacian needs a planar grid")
    h1, h2 = h
    core = v[1:-1, 1:-1]
    return (v[2:, 1:-1] - 2 * core + v[:-2, 1:-1]) / h1**2 + (v[1:-1, 2:] - 2 * core + v[1:-1, :-2]) / h2**2


def grid_jets(g: GridField) -> Jet2:
    """Central-difference jets at every interior node, node axes leading:
    .x is (ni, [nj,] n) and .u is (ni, [nj,] m)."""
    u, du, d2u = _central_differences(g.values, g.spacing)
    x = np.stack(np.meshgrid(*(ax[1:-1] for ax in g.axes()), indexing="ij"), axis=-1)
    return Jet2(x=x, u=u, du=du, d2u=d2u)


# ---------------------------------------------------------------------------
# persistence: plain text payload plus a JSON sidecar with the origin


def save_gridfield(g: GridField, path: str) -> None:
    """Write `gridfield n m h... extents...` header plus node lines (row-major)."""
    header = (
        "gridfield "
        + f"{g.n} {g.m} "
        + " ".join(repr(float(h)) for h in g.spacing)
        + " "
        + " ".join(str(e) for e in g.extents)
    )
    flat = g.values.reshape(-1, g.m)
    lines = [header] + [" ".join(repr(float(x)) for x in row) for row in flat]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {"format": "gridfield-v1", "origin": list(map(float, g.origin)), "meta": g.meta}
    with open(f"{path}.json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_gridfield(path: str) -> GridField:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "gridfield":
            raise ValueError(f"{path}: not a gridfield file")
        n, m = int(header[1]), int(header[2])
        spacing = np.array([float(t) for t in header[3 : 3 + n]])
        extents = tuple(int(t) for t in header[3 + n : 3 + 2 * n])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (int(np.prod(extents)), m):
        raise ValueError(f"{path}: payload shape {data.shape} inconsistent with header")
    try:
        with open(f"{path}.json") as fh:
            sidecar = json.load(fh)
        origin = np.array(sidecar.get("origin", [0.0] * n), float)
        meta = sidecar.get("meta", {})
    except FileNotFoundError:
        origin, meta = np.zeros(n), {}
    return GridField(origin, spacing, data.reshape(extents + (m,)), meta)
