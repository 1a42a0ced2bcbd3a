"""A bounded periodic orbit of u'' = grad W(u) whose gradient excess
|u'|^2/2 - W(u) is a positive constant: the planar obstruction to carrying
the scalar pointwise gradient bound over to systems.

Construction, in the order the code builds it:

1.  A plateau profile rho with rho(a) = a below 1/4 and rho = 1/2 above 3/4,
    glued by a flat C-infinity blend.  The two wells a+- = (+-2, 0) carry the
    square patches W(u) = 2 lam rho(|u - a|^2) on |u1 -+ 2| <= 1, |u2| <= 1.
2.  The vertical segment orbit u = (2, y(x)) with y'' = 4 lam rho'(y^2) y,
    launched from the well with speed 1/2.  Its energy is conserved, so
    y' = sqrt(1/4 + 4 lam rho(y^2)): the time t(y) is one cumulative table,
    the segment's clock, and the orbit reads y(x) as its Newton inverse.
    Every segment sample the orbit holds is checked to give its time back
    through the clock to 1e-12.  The level lam = 3/8 is the unique choice
    making the speed hit exactly 1 when the patch plateaus, so the orbit
    coasts onto the connecting curve at unit speed.
3.  A closed C-infinity curve containing both segments: the upper arc is laid
    out by its tangent angle, with curvature a flat bump.  The angle depends
    on arclength only through s / ell, so the arc's end moves linearly with
    its half-length ell, and the ell that closes the arc onto the far segment
    is a closed form in one integral.
4.  A tube potential W = lam + mu kappa(s) in arc/offset coordinates around
    the arc, blended back to the constant lam at the tube edge; with tube
    half-width eps <= lam / (2 max kappa) it stays >= lam / 2.  The global
    potential is two local pieces behind one region resolver: the patch
    piece in the offset from the well on the side of u1 = 0, the tube piece
    (mirrored through u2 = 0) at the arc coordinates of one closest-point
    projection, and the constant lam everywhere else.  The projection starts
    at the nearest of about 1024 arc nodes, iterates Newton on the cubic
    Hermite interpolant of the arc's node table (positions and unit
    tangents), and finishes with one Newton step on the tabulated curve,
    whose position and tangent angle are each one quintic Hermite read of a
    cumulative table, with no quadrature per point.  The Hessian off the
    patches is a central difference of the gradient whose stencil points
    start their Newton from their centre's projection, so every evaluated
    point is projected cold once.
5.  The full orbit: up the right segment, across the arc, down the left
    segment, then reflected through the origin for the second half-period.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import smooth
from .potentials import Potential, _sum_columns

__all__ = [
    "rho", "drho", "d2rho",
    "CurveSpec",
    "TubePotential",
    "PeriodicConnection",
    "ConstructionError",
    "lambda_from_hamiltonian",
    "solve_segment",
    "build_curve",
    "assemble",
    "verify_counterexample",
]

A_PLUS = np.array([2.0, 0.0])
A_MINUS = np.array([-2.0, 0.0])
_ARC_START = np.array([2.0, 1.0])

# the longest array a step dt or a spacing h may ask for, here and in the
# command line's orbits and grids: past it the request is refused before
# anything is allocated
MAX_SAMPLES = 10**7


class ConstructionError(RuntimeError):
    pass


def _check_count(name: str, value, count) -> None:
    """ValueError naming `name`, its value and the count when the array it
    asks for would hold more than MAX_SAMPLES entries (count may be inf).
    A number from 1e16 on shows as 1.000e+16, an int past the largest float
    too, and a list of numbers entry by entry."""

    def short(x, spec=""):
        if isinstance(x, list):
            return f"[{', '.join(map(short, x))}]"
        return format(decimal.Decimal(x) if isinstance(x, int) else x, spec if abs(x) < 1e16 else ".3e")

    if not count <= MAX_SAMPLES:
        raise ValueError(f"{name} {short(value)} asks for {short(count, ',.0f')} samples,"
                         f" over the cap of {MAX_SAMPLES:,}")


# ---------------------------------------------------------------------------
# plateau profile rho, nondecreasing: identity below 1/4, constant 1/2 above 3/4.
# rho' = 1 - smoothstep(2(a - 1/4)) on the transition integrates exactly to 1/2
# at a = 3/4, because the smoothstep integrates to 1/2 over [0, 1] by symmetry.


def rho(a):
    a = np.asarray(a, float)
    tau = np.clip(2.0 * (a - 0.25), 0.0, 1.0)
    mid = a - 0.5 * smooth.smoothstep_integral(tau)
    return np.where(a <= 0.25, a, np.where(a >= 0.75, 0.5, mid))


def drho(a):
    a = np.asarray(a, float)
    tau = 2.0 * (a - 0.25)
    return np.where(a <= 0.25, 1.0, np.where(a >= 0.75, 0.0, 1.0 - smooth.smoothstep(tau)))


def d2rho(a):
    a = np.asarray(a, float)
    tau = 2.0 * (a - 0.25)
    inside = (a > 0.25) & (a < 0.75)
    out = np.zeros_like(a)
    out[inside] = -2.0 * smooth.smoothstep_d(tau[inside])
    return out


def lambda_from_hamiltonian() -> float:
    """Patch plateau level forced by energy bookkeeping on the segment orbit.

    The orbit leaves the well with speed 1/2 where W = 0, so its conserved
    excess is (1/2)(1/2)^2 = 1/8; demanding unit speed on the plateau
    (where W = lam) gives 1/2 - lam = 1/8.
    """
    return 0.5 - 0.125


# ---------------------------------------------------------------------------
# segment orbit


# solve_segment's clock per lam, kept here so a tracer wrapping it times the build
_CLOCKS: dict[float, smooth._PanelIntegral] = {}


def solve_segment(lam: float) -> smooth._PanelIntegral:
    """The clock t(y) of the orbit of y'' = 4 lam rho'(y^2) y from (y, y') =
    (0, 1/2) up to y = 1, built once per lam.

    Energy conservation gives y' = sqrt(1/4 + 4 lam rho(y^2)), so t(y) is
    the quadrature of the slowness 1 / y' on [0, 1]: t2 = t(1) is its total,
    y(t) its Newton inverse and y'(t) = 1 / f(y(t)).
    """
    if lam not in _CLOCKS:
        # rho is nondecreasing with rho(0) = 0, so (y')^2 is least at y = 0 or y = 1
        floor = 0.25 + min(0.0, 4.0 * lam * float(rho(1.0)))
        if floor <= 0.0:
            raise ConstructionError(f"segment orbit stalls before y = 1: (y')^2 reaches {floor:.3e}")

        def slowness(y):
            return 1.0 / np.sqrt(0.25 + 4.0 * lam * rho(y * y))

        def slowness_d(y):
            return -4.0 * lam * drho(y * y) * y * (0.25 + 4.0 * lam * rho(y * y)) ** -1.5

        _CLOCKS[lam] = smooth._PanelIntegral(slowness, slowness_d, 0.0, 1.0, 512)
    return _CLOCKS[lam]


# ---------------------------------------------------------------------------
# connecting curve


def _tangent_angle(ieta, sigma):
    """Half-arc tangent angle at sigma = s / ell: a quarter turn from pi/2 to pi."""
    return 0.5 * math.pi * (1.0 + ieta(sigma) / ieta.total)


@dataclass(frozen=True)
class CurveSpec:
    """Upper connecting arc, arclength-parametrized, from (2, 1) to (-2, 1).

    The half-arc on [0, ell] turns the tangent angle from pi/2 to pi with
    curvature kappa(s) = amplitude * bump(s / ell); the second half is the
    mirror image through the u2-axis.  Flat contact of the bump makes the
    junctions with the straight segments C-infinity.
    """

    ell: float
    amplitude: float
    closure_defect: float
    max_kappa: float
    _ieta: smooth._PanelIntegral = field(repr=False)  # integral of the unit bump
    _arc: smooth._PanelIntegral = field(repr=False)  # unit half-arc in sigma = s / ell
    _gamma_nodes: np.ndarray = field(repr=False)  # the half-arc at the arc table's edges

    @property
    def L(self) -> float:
        return 2.0 * self.ell

    def shape_params(self) -> dict:
        return {
            "profile": "exp-flat-bump",
            "half_length": self.ell,
            "amplitude": self.amplitude,
            "max_curvature": self.max_kappa,
            "closure_defect": self.closure_defect,
        }

    # -- scalar geometry, all vectorized over s ------------------------------

    def _fold(self, s):
        s = np.asarray(s, float)
        mirrored = s > self.ell
        return np.where(mirrored, self.L - s, s), mirrored

    def theta(self, s):
        sf, mirrored = self._fold(s)
        base = _tangent_angle(self._ieta, sf / self.ell)
        return np.where(mirrored, 2.0 * math.pi - base, base)

    def kappa(self, s):
        sf, _ = self._fold(s)
        return self.amplitude * smooth.bump01(sf / self.ell)

    def kappa_prime(self, s):
        sf, mirrored = self._fold(s)
        d = (self.amplitude / self.ell) * smooth.bump01_d(sf / self.ell)
        return np.where(mirrored, -d, d)

    def _frame(self, s):
        """(tangent, leftward normal) from one evaluation of theta."""
        th = self.theta(s)
        c, sn = np.cos(th), np.sin(th)
        return np.stack([c, sn], axis=-1), np.stack([-sn, c], axis=-1)

    def tangent(self, s):
        return self._frame(s)[0]

    def normal(self, s):
        """Leftward (inward) unit normal."""
        return self._frame(s)[1]

    def gamma(self, s):
        """Positions: ell times the unit half-arc at s / ell, mirrored past ell."""
        sf, mirrored = self._fold(s)
        out = _ARC_START + self.ell * np.moveaxis(self._arc(sf / self.ell), 0, -1)
        out[..., 0] = np.where(mirrored, -out[..., 0], out[..., 0])
        return out

    # -- closest-point projection -------------------------------------------

    @cached_property
    def _node_table(self):
        """Positions and unit tangents at the arc table's edges along the
        whole arc, the second half mirrored from the first: the data of the
        cubic Hermite interpolant `_hermite`."""
        tan = self.tangent(self.ell * self._arc.edges)
        flip = np.array([-1.0, 1.0])
        pos = np.concatenate([self._gamma_nodes, flip * self._gamma_nodes[-2::-1]])
        return pos, np.concatenate([tan, -flip * tan[-2::-1]])

    def _hermite(self, s):
        """The cubic Hermite interpolant of `_node_table` at s in [0, L]:
        position and its first two s-derivatives, each of shape (..., 2)."""
        pos, tan = self._node_table
        h = self.L / (len(pos) - 1)
        x = s / h
        k = np.minimum(x.astype(int), len(pos) - 2)
        t = (x - k)[..., None]
        # p0 + m0 t + c2 t^2 + c3 t^3 on node interval k, t in [0, 1]: the
        # cubic through both nodes with h times their tangents as slopes
        p0, m0, m1 = pos[k], h * tan[k], h * tan[k + 1]
        d = pos[k + 1] - p0
        c2 = 3.0 * d - 2.0 * m0 - m1
        c3 = m0 + m1 - 2.0 * d
        return (
            p0 + t * (m0 + t * (c2 + t * c3)),
            (m0 + t * (2.0 * c2 + 3.0 * t * c3)) / h,
            (2.0 * c2 + 6.0 * t * c3) / h**2,
        )

    @cached_property
    def _candidates(self):
        """The coarse search's candidates, 1025 nodes of `_node_table` in
        index order: their arclengths (the mirrored half's as L - s), one
        contiguous array per coordinate, and the block radius.  Candidate i
        lies within 8 chords of the sparse node 16 round(i / 16), so within
        the radius, 8 times the largest chord plus a rounding margin."""
        pos, s_half = self._node_table[0], self.ell * self._arc.edges
        stride = max(1, len(pos) // 1024)
        cand_s = np.concatenate([s_half, self.L - s_half[-2::-1]])[::stride]
        cx, cy = pos[::stride, 0].copy(), pos[::stride, 1].copy()
        return cand_s, cx, cy, 8.0 * float(np.max(np.hypot(np.diff(cx), np.diff(cy)))) * (1.0 + 1e-9)

    def _coarse(self, pts):
        """Arclength of the nearest candidate of `_candidates`, the first in
        index order on ties, as the full search `_nearest` gives it.

        The squared distance to every 16th candidate picks a sparse winner,
        and the window of the 81 candidates in its block and the two blocks
        on each side is searched in full.  By the triangle inequality a row
        is certified once every sparse node outside the window's blocks is
        farther than the window's best by more than the block radius
        (Fukunaga and Narendra, IEEE Trans. Computers C-24, 1975).  The
        other rows, NaN and overflow among them, take `_nearest`.  Both
        searches compute each distance by the same float expression, so the
        result is the full search's bit for bit."""
        if len(pts) == 0:  # nothing to search, so no node table to build
            return np.empty(0)
        cand_s, cx, cy, radius = self._candidates
        rows = np.arange(len(pts))
        px, py = pts[:, 0, None], pts[:, 1, None]
        sparse = (px - cx[::16]) ** 2 + (py - cy[::16]) ** 2
        j = np.argmin(sparse, axis=1)
        lo = np.clip(16 * j - 40, 0, len(cx) - 81)
        windows = np.lib.stride_tricks.sliding_window_view
        d = (px - windows(cx, 81)[lo]) ** 2 + (py - windows(cy, 81)[lo]) ** 2
        k = np.argmin(d, axis=1)
        sparse[rows[:, None], np.clip(j[:, None] + np.arange(-2, 3), 0, sparse.shape[1] - 1)] = np.inf
        # the relative margin covers the rounding of the squared distances
        certified = np.sqrt(np.min(sparse, axis=1)) > (np.sqrt(d[rows, k]) + radius) * (1.0 + 1e-12)
        s = cand_s[lo + k]
        s[~certified] = self._nearest(pts[~certified])
        return s

    def _nearest(self, pts):
        """The full search of `_coarse`: every candidate's squared distance,
        512 rows at a time."""
        cand_s, cx, cy, _ = self._candidates
        s = np.empty(len(pts))
        for lo in range(0, len(pts), 512):
            px, py = pts[lo : lo + 512, 0, None], pts[lo : lo + 512, 1, None]
            s[lo : lo + 512] = cand_s[np.argmin((px - cx) ** 2 + (py - cy) ** 2, axis=1)]
        return s

    def _newton(self, pts, s):
        """Arc coordinates (s, mu) of points (n, 2) from Newton starts s (n,)
        on the tangency condition <p - gamma(s), gamma'(s)> = 0: four steps on
        the Hermite interpolant, then one on the tabulated curve, whose gamma
        and normal also give the returned (s, mu)."""
        if len(s) == 0:  # nothing to project, so no node table to build
            return s, s.copy()

        def step(s, num, den):
            return np.clip(s + num / np.where(np.abs(den) < 0.1, 0.1, den), 0.0, self.L)

        for _ in range(4):
            g, d1, d2 = self._hermite(s)
            diff = pts - g
            s = step(s, _sum_columns(diff * d1), _sum_columns(d1 * d1) - _sum_columns(diff * d2))
        tvec, nvec = self._frame(s)
        diff = pts - self.gamma(s)
        s = step(s, _sum_columns(diff * tvec), 1.0 - self.kappa(s) * _sum_columns(diff * nvec))
        return s, _sum_columns((pts - self.gamma(s)) * self.normal(s))

    def project(self, pts):
        """Arc coordinates (s, mu) of planar points near the arc, cold: the
        nearest of the coarse nodes starts `_newton`, which iterates on the
        Hermite interpolant of the node table and finishes on the tabulated
        curve.
        """
        pts = np.atleast_2d(np.asarray(pts, float))
        return self._newton(pts, self._coarse(pts))


def build_curve() -> CurveSpec:
    """Lay out the upper arc and close it with its half-length in closed form.

    The tangent angle depends on s only through sigma = s / ell (flat bump
    curvature, a quarter turn per half-arc), so the half-arc is ell times one
    unit arc G(sigma) = integral of (cos theta, sin theta) over [0, sigma].
    It ends at u1 = 2 + ell C with C = G(1)_1 < 0, which puts the end on the
    symmetry axis u1 = 0, and so closes the full curve, for ell = -2 / C.
    The tangent angle's bump integral and the arc G are each one cumulative
    table, read by quintic Hermite interpolation from the integrand and its
    derivative at the panel edges, so theta and gamma evaluate no bump.
    """
    ieta = smooth._PanelIntegral(smooth.bump01, smooth.bump01_d, 0.0, 1.0, 8192)

    def unit_tangent(sigma):
        th = _tangent_angle(ieta, sigma)
        return np.stack([np.cos(th), np.sin(th)])

    def unit_tangent_d(sigma):
        th = _tangent_angle(ieta, sigma)
        dth = 0.5 * math.pi * smooth.bump01(sigma) / ieta.total
        return dth * np.stack([-np.sin(th), np.cos(th)])

    arc = smooth._PanelIntegral(unit_tangent, unit_tangent_d, 0.0, 1.0, 16384)
    ell = -2.0 / float(arc.total[0])
    gamma_nodes = (_ARC_START[:, None] + ell * arc.table).T
    amplitude = 0.5 * math.pi / (ell * float(ieta.total))
    return CurveSpec(
        ell=ell,
        amplitude=amplitude,
        closure_defect=abs(float(gamma_nodes[-1, 0])),
        max_kappa=amplitude * float(smooth.bump01(np.array(0.5))),
        _ieta=ieta,
        _arc=arc,
        _gamma_nodes=gamma_nodes,
    )


# ---------------------------------------------------------------------------
# tube potential and the assembled global potential


@dataclass(frozen=True)
class _Patch:
    """W = 2 lam rho(|v|^2) in the offset v = u - a from a well, shape (..., 2)."""

    lam: float

    def w(self, v):
        return 2.0 * self.lam * rho(_sum_columns(v * v))

    def grad(self, v):
        return 4.0 * self.lam * drho(_sum_columns(v * v))[..., None] * v

    def hess(self, v):
        a = _sum_columns(v * v)
        d1 = drho(a)[..., None, None]
        d2 = d2rho(a)[..., None, None]
        return 4.0 * self.lam * (d1 * np.eye(2) + 2.0 * d2 * v[..., :, None] * v[..., None, :])


@dataclass(frozen=True)
class TubePotential:
    """W = lam + mu kappa(s) near the arc, faded to the constant lam across
    the outer third of the tube so the global extension is smooth."""

    curve: CurveSpec
    lam: float
    eps: float

    @property
    def support(self) -> float:
        """|mu| from which on the cutoff, and with it the tube's gradient,
        is zero: 5 eps / 6, where the smoothstep reaches 1."""
        return 5.0 * self.eps / 6.0

    def cutoff(self, mu):
        return 1.0 - smooth.smoothstep(2.0 * (np.abs(mu) / self.eps - 1.0 / 3.0))

    def cutoff_d(self, mu):
        arg = 2.0 * (np.abs(mu) / self.eps - 1.0 / 3.0)
        return -smooth.smoothstep_d(arg) * 2.0 * np.sign(mu) / self.eps

    def w(self, s, mu):
        return self.lam + mu * self.curve.kappa(s) * self.cutoff(mu)

    def grad(self, s, mu):
        """Euclidean gradient at gamma(s) + mu n(s), shape (..., 2)."""
        kap = self.curve.kappa(s)
        chi = self.cutoff(mu)
        w_s = mu * self.curve.kappa_prime(s) * chi
        w_mu = kap * (chi + mu * self.cutoff_d(mu))
        tvec, nvec = self.curve._frame(s)
        metric = 1.0 - mu * kap
        return (w_s / metric)[..., None] * tvec + w_mu[..., None] * nvec


class _GlobalPotential:
    """The assembled planar potential: the patch piece on the two squares,
    the tube piece (mirrored below u_2 = 0) within eps of the arcs, and the
    constant lam everywhere else, infinite points included, since lam is
    the limit there.  A point with a NaN coordinate is in no region, and its
    W, gradient and Hessian are NaN."""

    def __init__(self, curve: CurveSpec, lam: float, eps: float):
        self.curve = curve
        self.lam = lam
        self.patch = _Patch(lam)
        self.tube = TubePotential(curve, lam, eps)
        x, y = curve._gamma_nodes.T
        xmax = float(np.max(np.abs(x))) + eps + 0.1
        self._bbox = (-xmax, xmax, float(np.min(y)) - eps - 0.1, float(np.max(y)) + eps + 0.1)

    def _patches(self, u):
        """The points as rows, the mask of the rows in a square patch, and
        each row's offset from the well on its side of u_1 = 0."""
        flat = np.asarray(u, float).reshape(-1, 2)
        v = flat - np.where(flat[:, :1] > 0.0, A_PLUS, A_MINUS)
        return flat, (np.abs(v[:, 0]) <= 1.0) & (np.abs(v[:, 1]) <= 1.0), v

    def _folded(self, flat):
        """The rows folded onto the upper half plane, (u_1, |u_2|), and the
        mask of those in the box around the upper tube."""
        q = np.stack([flat[:, 0], np.abs(flat[:, 1])], axis=-1)
        x0, x1, y0, y1 = self._bbox
        return q, (q[:, 0] >= x0) & (q[:, 0] <= x1) & (q[:, 1] >= y0) & (q[:, 1] <= y1)

    def _regions(self, u, s0):
        """`_patches` plus the tube rows: their indices, their arc coordinates
        (s, mu) on the upper arc after folding u_2 to |u_2|, and the sign of
        u_2 that mirrors them back.  The projection is cold for s0 None;
        otherwise its Newton starts from s0, one start per point, and a
        point whose start is NaN is known to lie past the tube's support,
        so it is not projected and counts as outside the tube."""
        flat, patch, v = self._patches(u)
        q, boxed = self._folded(flat)
        rows = np.flatnonzero(~patch & boxed)
        if s0 is None:
            s, mu = self.curve.project(q[rows])
        else:
            rows = rows[~np.isnan(s0[rows])]
            s, mu = self.curve._newton(q[rows], s0[rows])
        tube = np.abs(mu) <= self.tube.eps
        rows = rows[tube]
        return flat, patch, v, rows, s[tube], mu[tube], np.where(flat[rows, 1] < 0.0, -1.0, 1.0)

    def w(self, u):
        flat, patch, v, rows, s, mu, _ = self._regions(u, None)
        out = np.full(len(flat), self.lam)
        out[patch] = self.patch.w(v[patch])
        out[rows] = self.tube.w(s, mu)
        out[np.isnan(flat[:, 0]) | np.isnan(flat[:, 1])] = np.nan
        return out.reshape(np.shape(u)[:-1])

    def grad(self, u):
        return self._grad(u, None)

    def _grad(self, u, s0):
        flat, patch, v, rows, s, mu, sign = self._regions(u, s0)
        out = np.zeros_like(flat)
        out[patch] = self.patch.grad(v[patch])
        g = self.tube.grad(s, mu)
        g[:, 1] *= sign
        out[rows] = g
        out[np.isnan(flat[:, 0]) | np.isnan(flat[:, 1])] = np.nan  # and with it the Hessian's quotients
        return out.reshape(np.shape(u))

    def hess(self, u):
        """Closed form on the patches; elsewhere the symmetrized central
        difference quotient of `grad` with step h = 1e-5.  Each centre with a
        stencil point in the tube's box is projected once, cold, and its four
        stencil points start their Newton from the centre's arc coordinate,
        all in one batch.  A centre farther than the tube's support plus 2h
        from the arc has its stencil points past the support, where the
        tube's gradient is zero, so they are not projected."""
        flat, patch, v = self._patches(u)
        out = np.empty((len(flat), 2, 2))
        out[patch] = self.patch.hess(v[patch])
        rest, h = flat[~patch], 1e-5
        e = h * np.eye(2)
        stencil = np.concatenate([rest + e[0], rest + e[1], rest - e[0], rest - e[1]])
        near = np.any(self._folded(stencil)[1].reshape(4, -1), axis=0)
        s0 = np.full(len(rest), np.nan)
        s, mu = self.curve.project(self._folded(rest[near])[0])
        s0[near] = np.where(np.abs(mu) <= self.tube.support + 2.0 * h, s, np.nan)
        g = self._grad(stencil, np.tile(s0, 4)).reshape(4, len(rest), 2)
        H = np.stack([(g[0] - g[2]) / (2.0 * h), (g[1] - g[3]) / (2.0 * h)], axis=-1)
        out[~patch] = 0.5 * (H + np.swapaxes(H, 1, 2))
        return out.reshape(np.shape(u)[:-1] + (2, 2))

    def as_potential(self) -> Potential:
        return Potential("counterexample", 2, self.w, self.grad, self.hess)


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class PeriodicConnection:
    """The assembled orbit and potential over one full period [0, T]."""

    lam: float
    t1: float
    t2: float
    t3: float
    T: float
    eps_tube: float
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    curve: CurveSpec
    clock: smooth._PanelIntegral  # the segment's t(y), integrand the slowness 1 / y'
    _global: _GlobalPotential = field(repr=False)

    @cached_property
    def potential(self) -> Potential:
        return self._global.as_potential()

    @property
    def tube(self) -> TubePotential:
        return self._global.tube

    # phase-resolved orbit evaluation ---------------------------------------

    def _phases(self, x):
        """Times folded into the first half-period: the mask of the reflected
        second half, the folded time xr, and the masks of the right segment,
        the arc and the left segment; a time that is not finite folds to NaN
        and is in none of them."""
        with np.errstate(invalid="ignore"):  # inf mod T is NaN
            x = np.mod(np.atleast_1d(np.asarray(x, float)), self.T)
        half = x >= 0.5 * self.T
        xr = np.where(half, x - 0.5 * self.T, x)
        return half, xr, xr <= self.t2, (xr > self.t2) & (xr <= self.t3), xr > self.t3

    def _clock_times(self, xr):
        """Clock time of folded times xr: xr up the right segment, t2 + t3 - xr down the left."""
        return np.where(xr <= self.t2, xr, np.clip(self.t2 + self.t3 - xr, 0.0, self.t2))

    def orbit(self, x):
        """(u, v) at arbitrary times, vectorized; period-wrapped.  The rows of
        a time that is not finite are NaN."""
        half, xr, ph_a, ph_b, ph_c = self._phases(x)
        u = np.full((len(xr), 2), np.nan)
        v = np.full((len(xr), 2), np.nan)
        t = self._clock_times(xr)
        for seg, side in ((ph_a, 1.0), (ph_c, -1.0)):
            if np.any(seg):
                y = self.clock.inverse(t[seg])
                u[seg, 0] = 2.0 * side
                u[seg, 1] = y
                v[seg, 0] = 0.0
                v[seg, 1] = side * (1.0 / self.clock.f(y))
        if np.any(ph_b):
            s = xr[ph_b] - self.t2
            u[ph_b] = self.curve.gamma(s)
            v[ph_b] = self.curve.tangent(s)
        u[half] *= -1.0
        v[half] *= -1.0
        return u, v

    def _along(self, x, u):
        """(W, grad W) at times x of the orbit, whose positions there are u:
        on the segments the patch piece at the offset (0, u_2) from the well,
        on the arc kappa(s) n(s)."""
        half, xr, ph_a, ph_b, ph_c = self._phases(x)
        w = np.full(len(xr), self.lam)
        g = np.zeros((len(xr), 2))
        seg = ph_a | ph_c
        v = np.stack([np.zeros(np.count_nonzero(seg)), u[seg, 1]], axis=-1)
        w[seg] = self._global.patch.w(v)
        g[seg] = self._global.patch.grad(v)
        s = xr[ph_b] - self.t2
        g[ph_b] = self.curve.kappa(s)[:, None] * self.curve.normal(s)
        g[ph_b & half] *= -1.0
        return w, g

    @cached_property
    def _sampled(self):
        """(W, grad W) along the stored samples, read from the stored u."""
        return self._along(self.times, self.u)

    # diagnostics ------------------------------------------------------------

    def hamiltonian_series(self):
        """0.5 |v|^2 - W(u) along the stored samples."""
        return 0.5 * _sum_columns(self.v * self.v) - self._sampled[0]

    def ode_residual(self) -> float:
        """sup |second difference of the sampled orbit - grad W(u)| over the
        stored samples, with periodic wrap (the sample grid divides the period
        exactly)."""
        dt = self.times[1] - self.times[0]
        u = self.u[:-1]  # drop duplicated endpoint
        upp = (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / dt**2
        return float(np.max(np.abs(upp - self._sampled[1][:-1])))


def assemble(dt: float = 1e-3) -> PeriodicConnection:
    """Build the full periodic connection, sampled at step about dt, and run
    the inversion and junction consistency checks."""
    lam = lambda_from_hamiltonian()
    curve = build_curve()
    clock = solve_segment(lam)
    # T needs only the clock's t2 and the curve: dt is checked before the
    # orbit is sampled, and leaves at least two steps in the period
    t2 = float(clock.total)
    t3 = t2 + curve.L
    T = 2.0 * (t2 + t3)
    if not (math.isfinite(dt) and 0.0 < dt <= 0.5 * T):
        raise ValueError(f"dt must be positive and at most half the period {T!r}, got {dt!r}")
    _check_count("dt", dt, T / dt + 1.0)
    eps = min(0.1, lam / (2.0 * curve.max_kappa))
    n = int(round(T / dt))
    times = (T / n) * np.arange(n + 1)

    pc = PeriodicConnection(
        lam=lam,
        t1=float(clock(math.sqrt(0.75))),
        t2=t2,
        t3=t3,
        T=T,
        eps_tube=eps,
        times=times,
        u=np.zeros((n + 1, 2)),
        v=np.zeros((n + 1, 2)),
        curve=curve,
        clock=clock,
        _global=_GlobalPotential(curve, lam, eps),
    )
    u, v = pc.orbit(times)
    pc.u[:] = u
    pc.v[:] = v

    # the segment heights the orbit holds give back, through the clock, the
    # times they were inverted from (the second half-period is reflected)
    half, xr, ph_a, _, ph_c = pc._phases(times)
    seg = ph_a | ph_c
    residual = float(np.max(np.abs(clock(np.where(half, -u[:, 1], u[:, 1])[seg]) - pc._clock_times(xr)[seg])))
    if residual > 1e-12:
        raise ConstructionError(f"segment inversion residual {residual:.3e} exceeds 1e-12")
    _junction_consistency(pc)
    return pc


def _junction_consistency(pc: PeriodicConnection) -> None:
    """Square-patch and tube formulas must agree, to 1e-8, where both regions apply."""
    tol = 1e-8
    curve, patch = pc.curve, pc._global.patch
    s = np.linspace(0.0, 0.05 * curve.ell, 40)
    mu = np.linspace(-pc.eps_tube, pc.eps_tube, 9)
    S, MU = np.meshgrid(s, mu, indexing="ij")
    pts = curve.gamma(S.ravel()) + MU.ravel()[:, None] * curve.normal(S.ravel())
    _, inside, v = pc._global._patches(pts)
    if np.any(inside):
        w_patch = patch.w(v[inside])
        w_tube = pc.tube.w(S.ravel()[inside], MU.ravel()[inside])
        worst = float(np.max(np.abs(w_patch - w_tube)))
        if worst > tol:
            raise ConstructionError(f"patch/tube junction mismatch {worst:.3e} exceeds {tol:g}")
    # patch boundary must already sit on the plateau (flat contact with the
    # constant background)
    edge = np.stack([np.linspace(1.0, 3.0, 101), np.ones(101)], axis=-1)
    if float(np.max(np.abs(patch.w(edge - A_PLUS) - pc.lam))) > tol:
        raise ConstructionError("square boundary is not on the plateau level")


def verify_counterexample(pc: PeriodicConnection, tol: float = 1e-7) -> dict:
    """Check the assembled orbit violates the scalar gradient bound while
    solving the system, and package the construction report.  Liouville's
    theorem makes a bounded solution that touches W = 0 constant:
    liouville_violated reads the contact at the start and the oscillation."""
    P = pc.hamiltonian_series()
    defect = float(np.mean(P))
    spread = float(np.max(np.abs(P - 0.125)))
    residual = pc.ode_residual()
    ends, _ = pc.orbit(np.array([0.0, 0.5 * pc.T]))
    w0 = float(pc.potential.w(ends[0]))
    oscillation = float(np.max(np.linalg.norm(pc.u - pc.u[0], axis=1)))
    return {
        "lambda": pc.lam,
        "t1": pc.t1,
        "t2": pc.t2,
        "t3": pc.t3,
        "T": pc.T,
        "eps_tube": pc.eps_tube,
        "residual_max": residual,
        "modica_defect": defect,
        "modica_defect_spread": spread,
        "endpoint_start": ends[0].tolist(),
        "endpoint_half": ends[1].tolist(),
        "w_at_start": w0,
        "oscillation": oscillation,
        "liouville_violated": bool(w0 <= 1e-12 and oscillation > 1.0),
        "curve": pc.curve.shape_params(),
        "checks_pass": bool(spread <= tol and residual <= 1e-5),
    }
