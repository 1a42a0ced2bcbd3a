"""A bounded periodic orbit of u'' = grad W(u) whose gradient excess
|u'|^2/2 - W(u) is a positive constant: the planar obstruction to carrying
the scalar pointwise gradient bound over to systems.

Construction, in the order the code builds it:

1.  A plateau profile rho with rho(a) = a below 1/4 and rho = 1/2 above 3/4,
    glued by a flat C-infinity blend.  The two wells a+- = (+-2, 0) carry the
    square patches W(u) = 2 lam rho(|u - a|^2) on |u1 -+ 2| <= 1, |u2| <= 1.
2.  The vertical segment orbit u = (2, y(x)) with y'' = 4 lam rho'(y^2) y,
    launched from the well with speed 1/2.  Its energy is conserved, so
    y' = sqrt(1/4 + 4 lam rho(y^2)): the time t(y) is a quadrature and y(x)
    its Newton inverse.  The level lam = 3/8 is the unique choice making the
    speed hit exactly 1 when the patch plateaus, so the orbit coasts onto the
    connecting curve at unit speed.
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
    projection, and the constant lam everywhere else.
5.  The full orbit: up the right segment, across the arc, down the left
    segment, then reflected through the origin for the second half-period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import smooth
from .potentials import Potential

__all__ = [
    "RhoSpec",
    "CurveSpec",
    "TubePotential",
    "SegmentSolution",
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


class ConstructionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# plateau profile


@dataclass(frozen=True)
class RhoSpec:
    """Smooth nondecreasing profile: identity below 1/4, constant 1/2 above 3/4.

    Built from the derivative side: rho' = 1 - smoothstep(2(a - 1/4)) on the
    transition, whose integral lands exactly on 1/2 at a = 3/4 because the
    smoothstep integrates to 1/2 over [0, 1] by symmetry.
    """

    def rho(self, a):
        a = np.asarray(a, float)
        tau = np.clip(2.0 * (a - 0.25), 0.0, 1.0)
        mid = a - 0.5 * smooth.smoothstep_integral(tau)
        return np.where(a <= 0.25, a, np.where(a >= 0.75, 0.5, mid))

    def drho(self, a):
        a = np.asarray(a, float)
        tau = 2.0 * (a - 0.25)
        return np.where(a <= 0.25, 1.0, np.where(a >= 0.75, 0.0, 1.0 - smooth.smoothstep(tau)))

    def d2rho(self, a):
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


@dataclass(frozen=True)
class SegmentSolution:
    t1: float  # time at which y = sqrt(3)/2 (plateau entry, speed 1)
    t2: float  # time at which y = 1 (hand-off to the arc)
    times: np.ndarray
    y: np.ndarray
    v: np.ndarray
    inversion_residual: float  # sup_k |t(y(t_k)) - t_k| over the sample times
    _clock: smooth._PanelIntegral = field(repr=False)  # t(y), integrand 1 / y'

    def sol(self, t):
        """(y, v) at times t in [0, t2]: Newton inversion of t(y), v = y'."""
        y = self._clock.inverse(t)
        return y, 1.0 / self._clock.f(y)


def solve_segment(lam: float, dt: float = 1e-3) -> SegmentSolution:
    """The orbit of y'' = 4 lam rho'(y^2) y from (y, y') = (0, 1/2) up to y = 1.

    Energy conservation gives y' = sqrt(1/4 + 4 lam rho(y^2)), so the time
    t(y) is a quadrature and y(t) its inverse.  Returns the crossing times
    t1 = t(sqrt(3)/2) and t2 = t(1) plus the profile sampled at step dt.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    rho = RhoSpec()
    # rho is nondecreasing with rho(0) = 0, so (y')^2 is least at y = 0 or y = 1
    floor = 0.25 + min(0.0, 4.0 * lam * float(rho.rho(1.0)))
    if floor <= 0.0:
        raise ConstructionError(f"segment orbit stalls before y = 1: (y')^2 reaches {floor:.3e}")

    def slowness(y):
        return 1.0 / np.sqrt(0.25 + 4.0 * lam * rho.rho(y * y))

    clock = smooth._PanelIntegral(slowness, 0.0, 1.0, panels=256)
    t2 = float(clock.total)
    times = np.arange(0.0, t2, dt)
    y = clock.inverse(times)
    residual = float(np.max(np.abs(clock(y) - times)))
    if residual > 1e-12:
        raise ConstructionError(f"segment inversion residual {residual:.3e} exceeds 1e-12")
    return SegmentSolution(
        t1=float(clock(math.sqrt(0.75))), t2=t2, times=times, y=y, v=1.0 / slowness(y),
        inversion_residual=residual, _clock=clock,
    )


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

    def project(self, pts, newton_iters: int = 4):
        """Arc coordinates (s, mu) of planar points near the arc.

        Coarse argmin over the node table, then Newton on the tangency
        condition <p - gamma(s), tangent(s)> = 0.  Returns (s, mu, dist).
        """
        pts = np.atleast_2d(np.asarray(pts, float))
        nodes, s_nodes = self._gamma_nodes, self.ell * self._arc.edges
        stride = max(1, (2 * len(nodes) - 1) // 1024)
        # candidates on both halves, one contiguous array per coordinate
        cand_s = np.concatenate([s_nodes, self.L - s_nodes[-2::-1]])[::stride]
        cx = np.concatenate([nodes[:, 0], -nodes[-2::-1, 0]])[::stride].copy()
        cy = np.concatenate([nodes[:, 1], nodes[-2::-1, 1]])[::stride].copy()
        s = np.empty(len(pts))
        for lo in range(0, len(pts), 512):
            px, py = pts[lo : lo + 512, 0, None], pts[lo : lo + 512, 1, None]
            s[lo : lo + 512] = cand_s[np.argmin((px - cx) ** 2 + (py - cy) ** 2, axis=1)]
        for _ in range(newton_iters):
            tvec, nvec = self._frame(s)
            diff = pts - self.gamma(s)
            num = np.sum(diff * tvec, axis=-1)
            mu = np.sum(diff * nvec, axis=-1)
            den = 1.0 - self.kappa(s) * mu
            s = np.clip(s + num / np.where(np.abs(den) < 0.1, 0.1, den), 0.0, self.L)
        g = self.gamma(s)
        diff = pts - g
        mu = np.sum(diff * self.normal(s), axis=-1)
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        return s, mu, dist


def build_curve() -> CurveSpec:
    """Lay out the upper arc and close it with its half-length in closed form.

    The tangent angle depends on s only through sigma = s / ell (flat bump
    curvature, a quarter turn per half-arc), so the half-arc is ell times one
    unit arc G(sigma) = integral of (cos theta, sin theta) over [0, sigma].
    It ends at u1 = 2 + ell C with C = G(1)_1 < 0, which puts the end on the
    symmetry axis u1 = 0, and so closes the full curve, for ell = -2 / C.
    """
    ieta = smooth._PanelIntegral(smooth.bump01, 0.0, 1.0, panels=8192)

    def unit_tangent(sigma):
        th = _tangent_angle(ieta, sigma)
        return np.stack([np.cos(th), np.sin(th)])

    arc = smooth._PanelIntegral(unit_tangent, 0.0, 1.0, panels=16384)
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

    rho: RhoSpec
    lam: float

    def w(self, v):
        return 2.0 * self.lam * self.rho.rho(np.sum(v**2, axis=-1))

    def grad(self, v):
        return 4.0 * self.lam * self.rho.drho(np.sum(v**2, axis=-1))[..., None] * v

    def hess(self, v):
        a = np.sum(v**2, axis=-1)
        d1 = self.rho.drho(a)[..., None, None]
        d2 = self.rho.d2rho(a)[..., None, None]
        return 4.0 * self.lam * (d1 * np.eye(2) + 2.0 * d2 * v[..., :, None] * v[..., None, :])


@dataclass(frozen=True)
class TubePotential:
    """W = lam + mu kappa(s) near the arc, faded to the constant lam across
    the outer third of the tube so the global extension is smooth."""

    curve: CurveSpec
    lam: float
    eps: float

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
    constant lam everywhere else."""

    def __init__(self, rho: RhoSpec, curve: CurveSpec, lam: float, eps: float):
        self.curve = curve
        self.lam = lam
        self.patch = _Patch(rho, lam)
        self.tube = TubePotential(curve, lam, eps)
        x, y = curve._gamma_nodes.T
        xmax = float(np.max(np.abs(x))) + eps + 0.1
        self._bbox = (-xmax, xmax, float(np.min(y)) - eps - 0.1, float(np.max(y)) + eps + 0.1)

    def _patches(self, u):
        """The points as rows, the mask of the rows in a square patch, and
        each row's offset from the well on its side of u_1 = 0."""
        flat = np.asarray(u, float).reshape(-1, 2)
        v = flat - np.where(flat[:, :1] > 0.0, A_PLUS, A_MINUS)
        return flat, np.all(np.abs(v) <= 1.0, axis=-1), v

    def _regions(self, u):
        """`_patches` plus the tube rows: their indices, their arc coordinates
        (s, mu) on the upper arc after folding u_2 to |u_2|, and the sign of
        u_2 that mirrors them back."""
        flat, patch, v = self._patches(u)
        x, y = flat[:, 0], np.abs(flat[:, 1])
        x0, x1, y0, y1 = self._bbox
        rows = np.flatnonzero(~patch & (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
        s, mu, _ = self.curve.project(np.stack([x[rows], y[rows]], axis=-1))
        tube = np.abs(mu) <= self.tube.eps
        rows = rows[tube]
        return flat, patch, v, rows, s[tube], mu[tube], np.where(flat[rows, 1] < 0.0, -1.0, 1.0)

    def w(self, u):
        flat, patch, v, rows, s, mu, _ = self._regions(u)
        out = np.full(len(flat), self.lam)
        out[patch] = self.patch.w(v[patch])
        out[rows] = self.tube.w(s, mu)
        return out.reshape(np.shape(u)[:-1])

    def grad(self, u):
        flat, patch, v, rows, s, mu, sign = self._regions(u)
        out = np.zeros_like(flat)
        out[patch] = self.patch.grad(v[patch])
        g = self.tube.grad(s, mu)
        g[:, 1] *= sign
        out[rows] = g
        return out.reshape(np.shape(u))

    def hess(self, u):
        """Closed form on the patches; elsewhere the symmetrized central
        difference quotient of `grad` with step 1e-5."""
        flat, patch, v = self._patches(u)
        out = np.empty((len(flat), 2, 2))
        out[patch] = self.patch.hess(v[patch])
        rest, h = flat[~patch], 1e-5
        H = np.stack([(self.grad(rest + e) - self.grad(rest - e)) / (2.0 * h) for e in h * np.eye(2)], axis=-1)
        out[~patch] = 0.5 * (H + np.swapaxes(H, 1, 2))
        return out.reshape(np.shape(u)[:-1] + (2, 2))

    def as_potential(self) -> Potential:
        return Potential(
            name="counterexample",
            m=2,
            params={"lam": self.lam, "eps": self.tube.eps, **self.curve.shape_params()},
            zeros=(A_PLUS.copy(), A_MINUS.copy()),
            _w=self.w,
            _grad=self.grad,
            _hess=self.hess,
        )


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
    segment: SegmentSolution
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
        the arc and the left segment."""
        x = np.mod(np.atleast_1d(np.asarray(x, float)), self.T)
        half = x >= 0.5 * self.T
        xr = np.where(half, x - 0.5 * self.T, x)
        return half, xr, xr <= self.t2, (xr > self.t2) & (xr <= self.t3), xr > self.t3

    def orbit(self, x):
        """(u, v) at arbitrary times, vectorized; period-wrapped."""
        half, xr, ph_a, ph_b, ph_c = self._phases(x)
        u = np.empty((len(xr), 2))
        v = np.empty((len(xr), 2))
        # up the right segment, then down the left one run backwards in time
        for seg, side, xi in ((ph_a, 1.0, xr), (ph_c, -1.0, np.clip(self.t2 + self.t3 - xr, 0.0, self.t2))):
            if np.any(seg):
                y, vy = self.segment.sol(xi[seg])
                u[seg, 0] = 2.0 * side
                u[seg, 1] = y
                v[seg, 0] = 0.0
                v[seg, 1] = side * vy
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
        return 0.5 * np.sum(self.v**2, axis=1) - self._sampled[0]

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
    junction consistency checks."""
    lam = lambda_from_hamiltonian()
    seg = solve_segment(lam, dt=dt)
    curve = build_curve()
    eps = min(0.1, lam / (2.0 * curve.max_kappa))

    t1, t2 = seg.t1, seg.t2
    t3 = t2 + curve.L
    T = 2.0 * (t2 + t3)
    glob = _GlobalPotential(RhoSpec(), curve, lam, eps)

    n = int(round(T / dt))
    times = (T / n) * np.arange(n + 1)

    pc = PeriodicConnection(
        lam=lam,
        t1=t1,
        t2=t2,
        t3=t3,
        T=T,
        eps_tube=eps,
        times=times,
        u=np.zeros((n + 1, 2)),
        v=np.zeros((n + 1, 2)),
        curve=curve,
        segment=seg,
        _global=glob,
    )
    u, v = pc.orbit(times)
    pc.u[:] = u
    pc.v[:] = v

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
    solving the system, and package the construction report."""
    P = pc.hamiltonian_series()
    defect = float(np.mean(P))
    spread = float(np.max(np.abs(P - 0.125)))
    residual = pc.ode_residual()
    u0, v0 = pc.orbit(np.array([0.0]))
    uh, _ = pc.orbit(np.array([0.5 * pc.T]))
    w0 = float(pc.potential.w(u0[0]))
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
        "endpoint_start": [float(u0[0, 0]), float(u0[0, 1])],
        "endpoint_half": [float(uh[0, 0]), float(uh[0, 1])],
        "w_at_start": w0,
        "oscillation": oscillation,
        "liouville_violated": bool(defect > tol and oscillation > 1.0),
        "curve": pc.curve.shape_params(),
        "checks_pass": bool(spread <= tol and residual <= 1e-5),
    }
