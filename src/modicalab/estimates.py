"""Pointwise gradient-bound checkers.

Each checker evaluates one differential inequality (or the constants feeding
it) on sampled fields or trajectories and reports the worst margin found,
where margin = RHS - LHS, so nonnegative means the bound holds.  Constants
(kappa, mu, lambda, epsilon, S) are estimated by deterministic dense sampling,
with closed-form cross-checks living in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import smooth
from .dynamics import Trajectory, integrate, integrate_many, orbit_family, shoot_heteroclinic
from .fields import GridField, Jet2, _laplacian, grid_jets
from .potentials import Potential, make_potential

__all__ = [
    "DefectReport",
    "HypothesisError",
    "DiagonalSystemConfig",
    "PhiBarrier",
    "modica_defect",
    "gl_pointwise_bound",
    "gl_p_residual",
    "diagonal_p_residual",
    "ode_bound_check",
    "speed_envelope_check",
    "diagonal_system_check",
    "ball_confinement_check",
    "convex_well_check",
    "polygon_confinement_check",
    "ball_samples",
]


class HypothesisError(ValueError):
    """A checker's standing hypothesis failed on the supplied data."""


def _solution_gate(resid, gate: float, what: str) -> float:
    """sup |resid| of a field's equation residual; raises HypothesisError
    naming the measured value and the threshold when it exceeds `gate`."""
    worst = float(np.max(np.abs(resid)))
    if worst > gate:
        raise HypothesisError(f"{what}: residual {worst:.3e} > {gate:g}")
    return worst


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class DefectReport:
    check_id: str
    samples: int
    worst_margin: float
    worst_point: list | None
    verdict: str  # "holds" | "violated" | "vacuous"
    constants: dict = dc_field(default_factory=dict)

    @classmethod
    def from_margins(cls, check_id, margins, points, tol, constants=None):
        margins = np.asarray(margins, float)
        if margins.size == 0:
            return cls(check_id, 0, math.inf, None, "vacuous", constants or {})
        k = int(np.argmin(margins))
        worst = float(margins[k])
        pt = points[k] if points is not None else None
        if pt is not None:
            pt = [float(c) for c in np.atleast_1d(pt)]
        verdict = "holds" if worst >= -tol else "violated"
        return cls(check_id, int(margins.size), worst, pt, verdict, constants or {})

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "samples": self.samples,
            "worst_margin": None if math.isinf(self.worst_margin) else self.worst_margin,
            "worst_point": self.worst_point,
            "verdict": self.verdict,
            "constants": self.constants,
        }


# ---------------------------------------------------------------------------
# pointwise quantities


def modica_defect(jet: Jet2, p: Potential):
    """Gradient excess 0.5|grad u|^2 - W(u), per node of a batched jet;
    positive means the scalar pointwise bound is violated there."""
    return 0.5 * jet.grad_sq() - p.w(jet.u)


def gl_pointwise_bound(jet: Jet2):
    """Margin of the sharp Ginzburg-Landau bound 0.5|grad u|^2 <= (1-|u|^2)/2,
    per node of a batched jet."""
    return 0.5 * (1.0 - np.sum(jet.u**2, axis=-1)) - 0.5 * jet.grad_sq()


# ---------------------------------------------------------------------------
# differential-inequality residuals (finite differences of the P-field)


def gl_p_residual(g: GridField, tol_solution: float = 1e-4) -> np.ndarray:
    """Residual array of Lap P >= 2(2Q+1) P for the GL system on a planar
    grid, with P = 0.5|grad u|^2 + Q and Q = (|u|^2-1)/2.

    Evaluated on the deep interior (two nodes in).  The true gap equals the
    squared-second-derivative term B, so values should be >= -O(h^2).
    """
    jets = grid_jets(g)
    u = jets.u
    q = 0.5 * (np.sum(u**2, axis=-1) - 1.0)
    _solution_gate(jets.laplacian() - 2.0 * q[..., None] * u, tol_solution, "grid is not a GL solution")
    p_vals = 0.5 * jets.grad_sq() + q
    lap_p = _laplacian(p_vals, g.spacing)
    core = p_vals[1:-1, 1:-1]
    q_core = q[1:-1, 1:-1]
    return lap_p - 2.0 * (2.0 * q_core + 1.0) * core


@dataclass(frozen=True)
class DiagonalSystemConfig:
    """Data for the diagonal-matrix system D Lap u + [1 - <Au,u>] u = 0."""

    D: np.ndarray
    A: np.ndarray
    M: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "D", np.asarray(self.D, float))
        object.__setattr__(self, "A", np.asarray(self.A, float))
        if self.D.ndim == 1:
            object.__setattr__(self, "D", np.diag(self.D))
        m = self.D.shape[0] if self.D.ndim else 0
        if m < 1 or self.D.shape != (m, m) or self.A.shape != (m, m):
            raise ValueError(f"D and A must be m x m with m >= 1, got D {self.D.shape} and A {self.A.shape}")
        if not (math.isfinite(self.M) and self.M > 0.0):
            raise ValueError(f"M must be positive and finite, got {self.M!r}")

    @property
    def m(self) -> int:
        return self.D.shape[0]

    @property
    def nu(self) -> np.ndarray:
        return np.diag(self.D)

    @property
    def S(self) -> np.ndarray:
        """The symmetrized product A D^{-1} + D^{-1} A."""
        Dinv = np.diag(1.0 / self.nu)
        return self.A @ Dinv + Dinv @ self.A

    @property
    def a(self) -> float:
        return float(np.linalg.norm(self.A, 2))

    @property
    def c(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.A + self.A.T))))

    def validate(self) -> None:
        tol = 1e-12
        if np.any(self.nu <= 0.0):
            raise HypothesisError("D must have positive diagonal entries")
        if not np.allclose(self.D, np.diag(self.nu)):
            raise HypothesisError("D must be diagonal")
        smin = float(np.min(np.linalg.eigvalsh(0.5 * (self.S + self.S.T))))
        if smin < -tol:
            raise HypothesisError(f"hypothesis (i) fails: min eig of sym(AD^-1 + D^-1A) = {smin:.3e}")
        if self.c <= tol:
            raise HypothesisError(f"hypothesis (ii) fails: coercivity constant c = {self.c:.3e} <= 0")

    def is_gradient(self) -> bool:
        """Whether the system is the gradient of a potential, i.e. whether
        (A + A^T) D is a multiple of the identity (to 1e-12)."""
        G = (self.A + self.A.T) @ self.D
        mu = np.trace(G) / self.m
        return bool(np.max(np.abs(G - mu * np.eye(self.m))) <= 1e-12)

    def lambda_multiplier(self) -> float:
        """Smallest multiplier making the P-function inequality close, by
        dense sampling of the ball |v|^2 <= M (10^4 points):
        lam = max [ (nu/2)<Sv,v> - <Av,v> + 1 + 2 a m M ] / c."""
        v = ball_samples(self.m, math.sqrt(self.M), 10_000)
        nu_max = float(np.max(self.nu))
        sv = np.einsum("ij,kj->ki", self.S, v)
        av = np.einsum("ij,kj->ki", self.A, v)
        expr = 0.5 * nu_max * np.sum(sv * v, axis=1) - np.sum(av * v, axis=1) + 1.0 + 2.0 * self.a * self.m * self.M
        return float(np.max(expr) / self.c)


def _diagonal_solution(g: GridField, cfg: DiagonalSystemConfig, gate: float):
    """Interior jets of g, <Au,u> at each node, and the sup-norm of the
    system residual D Lap u + (1 - <Au,u>) u, gated at `gate`."""
    jets = grid_jets(g)
    u = jets.u
    quad = np.sum(np.einsum("ij,...j->...i", cfg.A, u) * u, axis=-1)
    resid = np.einsum("jk,...k->...j", cfg.D, jets.laplacian()) + (1.0 - quad)[..., None] * u
    return jets, quad, _solution_gate(resid, gate, "grid does not solve the diagonal system")


def diagonal_p_residual(g: GridField, cfg: DiagonalSystemConfig, lam: float | None = None,
                        tol_solution: float = 1e-5) -> np.ndarray:
    """Residual array of Lap P >= B + <Su,u> P on the deep interior, for
    P = sum_j (nu_j/2)|grad u^j|^2 + (lam/2)(<Au,u> - 1)."""
    jets, quad, _ = _diagonal_solution(g, cfg, tol_solution)
    lam = cfg.lambda_multiplier() if lam is None else float(lam)
    nu = cfg.nu
    gradsq_j = np.sum(jets.du**2, axis=-1)  # (ni, nj, m)
    p_vals = 0.5 * np.sum(nu * gradsq_j, axis=-1) + 0.5 * lam * (quad - 1.0)
    lap_p = _laplacian(p_vals, g.spacing)
    b_term = np.sum(nu[:, None, None] * jets.d2u**2, axis=(-3, -2, -1))
    su = np.einsum("ij,...j->...i", cfg.S, jets.u)
    h_factor = np.sum(su * jets.u, axis=-1)
    core = slice(1, -1)
    return lap_p - b_term[core, core] - h_factor[core, core] * p_vals[core, core]


# ---------------------------------------------------------------------------
# sampling helpers


def ball_samples(m: int, radius: float, n: int = 10_000) -> np.ndarray:
    """Deterministic dense sample of the closed ball |v| <= radius.

    Radial shells including points within 1e-4 of the boundary (where the
    extremal ratios of the estimates typically live) crossed with directions:
    a uniform circle grid for m = 2, a fixed-seed unit-vector cloud for
    m >= 3, and plain intervals for m = 1.
    """
    if m == 1:
        return np.linspace(-radius, radius, n)[:, None]
    n_shell = max(int(round(math.sqrt(n))), 8)
    radii = np.concatenate(
        [np.linspace(0.0, radius, n_shell), [radius * (1.0 - 1e-4), radius * (1.0 - 1e-3)]]
    )
    n_dirs = n_shell
    if m == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(12345)
        dirs = rng.standard_normal((n_dirs, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, m)


def _field_states(obj):
    """(u, grad_sq, points) triples from either a Trajectory or a GridField."""
    if isinstance(obj, Trajectory):
        u = obj.u
        gradsq = np.sum(obj.v**2, axis=-1)
        pts = obj.times[:, None]
        return u, gradsq, pts
    if isinstance(obj, GridField):
        jets = grid_jets(obj)
        return jets.u.reshape(-1, jets.m), jets.grad_sq().reshape(-1), jets.x.reshape(-1, jets.n)
    raise TypeError(f"expected Trajectory or GridField, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# theorem checkers


def diagonal_system_check(cfg: DiagonalSystemConfig, g: GridField | None = None,
                          tol: float = 1e-7) -> DefectReport:
    """Validate the diagonal-system hypotheses, compute the multiplier lambda
    (constants["lambda"]), and (when a solution grid is supplied) check the
    gradient estimate sum (nu_j/2)|grad u^j|^2 <= (lam/2)(1 - <Au,u>) and
    confinement <Au,u> <= 1."""
    cfg.validate()
    lam = cfg.lambda_multiplier()
    constants = {
        "lambda": lam,
        "a": cfg.a,
        "c": cfg.c,
        "nu_max": float(np.max(cfg.nu)),
        "M": cfg.M,
        "gradient_system": cfg.is_gradient(),
    }
    if g is None:
        return DefectReport.from_margins("diagonal-system", [], None, tol, constants)
    jets, quad, residual = _diagonal_solution(g, cfg, 1e-4)
    constants["solution_residual"] = residual
    gradsq_j = np.sum(jets.du**2, axis=-1)
    lhs = 0.5 * np.sum(cfg.nu * gradsq_j, axis=-1)
    margins = (0.5 * lam * (1.0 - quad) - lhs).ravel()
    conf = (1.0 - quad).ravel()
    pts = jets.x.reshape(-1, jets.n)
    all_margins = np.concatenate([margins, conf])
    all_pts = np.concatenate([pts, pts])
    constants["confinement_worst"] = float(np.min(conf))
    return DefectReport.from_margins("diagonal-system", all_margins, all_pts, tol, constants)


def ball_confinement_check(p: Potential, obj, R: float, tol: float = 1e-7) -> DefectReport:
    """Constants and margins for the ball-confinement gradient estimate
    0.5|grad u|^2 <= C (R^2 - |u|^2), C = (kappa + mu)/2.

    kappa is the smallest sampled constant with u.grad W >= kappa(|u|^2 - R^2)
    on |u| <= R; mu bounds the negative part of the Hessian spectrum on
    |u|^2 <= M = R^2.  All three sit in the report's constants.  The standing
    hypothesis u.grad W > 0 for |u| > R is validated on shells |u| in
    (R, R+1] and raises on failure.  Each set is sampled at 10^4 points.
    """
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be positive and finite, got {R!r}")
    M, n_samples = R * R, 10_000
    outside = ball_samples(p.m, R + 1.0, n_samples)
    norms = np.linalg.norm(outside, axis=1)
    mask = norms > R * (1.0 + 1e-9)
    radial = np.sum(outside * p.grad(outside), axis=-1)
    bad = mask & (radial <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise HypothesisError(
            f"condition ball fails at u={outside[k]} (u.grad W = {radial[k]:.3e} <= 0)"
        )

    inside = ball_samples(p.m, R, n_samples)
    radial_in = np.sum(inside * p.grad(inside), axis=-1)
    denom = np.sum(inside**2, axis=-1) - R * R
    neg = radial_in < 0.0
    kappa = float(np.max(radial_in[neg] / denom[neg])) if np.any(neg) else tol

    hess_samples = ball_samples(p.m, math.sqrt(M), n_samples)
    eigmin = np.min(np.linalg.eigvalsh(p.hess(hess_samples)), axis=-1)
    mu = max(0.0, -float(np.min(eigmin)))

    C = 0.5 * (kappa + mu)
    constants = {"R": R, "M": M, "mu": mu, "kappa": kappa, "C": C}
    if obj is None:
        return DefectReport.from_margins("ball-confinement", [], None, tol, constants)
    u, gradsq, pts = _field_states(obj)
    unorm2 = np.sum(u**2, axis=-1)
    margins = C * (R * R - unorm2) - 0.5 * gradsq
    confinement = R * R - unorm2
    constants["confinement_worst"] = float(np.min(confinement))
    all_margins = np.concatenate([margins, confinement])
    all_pts = np.concatenate([pts, pts])
    return DefectReport.from_margins("ball-confinement", all_margins, all_pts, tol, constants)


# the convex-well floor is sought on [-_WELL_BOX, _WELL_BOX]^m: a grid of
# _WELL_GRID points for m = 1, that many ball samples otherwise
_WELL_BOX = 2.0
_WELL_GRID = 4001


def _convexity_floor_1d(p: Potential) -> tuple[float, tuple]:
    """inf W over the nonconvexity set {W'' < 0} for a scalar potential,
    with the set's boundary located by root-finding on W''."""
    grid = np.linspace(-_WELL_BOX, _WELL_BOX, _WELL_GRID)
    hess = p.hess(grid[:, None])[:, 0, 0]
    w_vals = p.w(grid[:, None])
    outside = hess < 0.0
    if not np.any(outside):
        return math.inf, ()
    best = float(np.min(w_vals[outside]))
    # bisect every sign-change bracket of W'' at once, to 1e-14 + 4 eps |x|
    k = np.nonzero(np.diff(np.signbit(hess)))[0]
    lo, hi, lo_neg = grid[k], grid[k + 1], np.signbit(hess[k])
    while np.any(hi - lo > 1e-14 + 4.0 * np.finfo(float).eps * np.abs(lo)):
        mid = 0.5 * (lo + hi)
        left = np.signbit(p.hess(mid[:, None])[:, 0, 0]) == lo_neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    roots = 0.5 * (lo + hi)
    if roots.size:
        best = min(best, float(np.min(p.w(roots[:, None]))))
    return best, tuple(float(r) for r in roots)


def convex_well_check(p: Potential, obj=None, tol: float = 1e-7) -> DefectReport:
    """Constants and margins for the convex-well estimate
    (eps/S)|grad u|^2 <= W, valid when 0 < S < 2 eps / n.

    eps = inf W outside the convexity region {lambda_min(D^2 W) >= 0} and
    S = sup |grad u|^2 over the field's states outside it; the report's
    constants carry eps, S and whether condition_met holds."""
    if p.m == 1:
        eps, _ = _convexity_floor_1d(p)
    else:
        samples = ball_samples(p.m, _WELL_BOX, _WELL_GRID)
        eigmin = np.min(np.linalg.eigvalsh(p.hess(samples)), axis=-1)
        outside = eigmin < 0.0
        eps = float(np.min(p.w(samples[outside]))) if np.any(outside) else math.inf
    if obj is None:
        return DefectReport.from_margins("convex-well", [], None, tol,
                                         {"eps": eps, "S": 0.0, "note": "no field supplied"})
    u, gradsq, pts = _field_states(obj)
    n_dim = 1 if isinstance(obj, Trajectory) else obj.n
    eigmin_u = np.min(np.linalg.eigvalsh(p.hess(u)), axis=-1)
    outside = eigmin_u < 0.0
    S = float(np.max(gradsq[outside])) if np.any(outside) else 0.0
    condition = 0.0 < S < 2.0 * eps / n_dim
    constants = {
        "eps": eps if math.isfinite(eps) else None,
        "S": S,
        "n": n_dim,
        "condition_2eps_over_n": (2.0 * eps / n_dim) if math.isfinite(eps) else None,
        "condition_met": condition,
    }
    if not condition:
        # S = 0 when no state leaves the convexity region
        constants["note"] = ("constant expected" if S == 0.0
                             else "hypothesis S < 2 eps / n fails; estimate not asserted")
        return DefectReport("convex-well", int(u.shape[0]), math.inf, None, "vacuous", constants)
    margins = np.asarray(p.w(u)) - (eps / S) * gradsq
    return DefectReport.from_margins("convex-well", margins, pts, tol, constants)


def polygon_confinement_check(vertices, n_samples: int = 100, seed: int = 0,
                              tol: float = 1e-12) -> DefectReport:
    """For the product potential with wells at the polygon's vertices, check
    <grad W(u), r> > 0 at exterior samples beyond each edge (outward normal r).
    """
    verts = np.asarray(vertices, float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise ValueError(f"vertices must be a list of points of the plane, got shape {verts.shape}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    N = len(verts)
    if N < 3:
        raise HypothesisError("need at least three vertices")
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    order = np.argsort(ang)
    verts = verts[order]
    cross = []
    for i in range(N):
        a, b, c = verts[i], verts[(i + 1) % N], verts[(i + 2) % N]
        e1, e2 = b - a, c - b
        cross.append(e1[0] * e2[1] - e1[1] * e2[0])
    cross = np.asarray(cross)
    if not (np.all(cross > 0.0) or np.all(cross < 0.0)):
        raise HypothesisError("vertices do not form a convex polygon")

    p = make_potential("polygon_product", vertices=verts.tolist())
    rng = np.random.default_rng(seed)
    pts = center + rng.uniform(-3.0, 3.0, size=(n_samples, 2)) * (
        1.0 + np.max(np.linalg.norm(verts - center, axis=1))
    )
    margins = []
    points = []
    hyp_count = 0
    for i in range(N):
        a, b = verts[i], verts[(i + 1) % N]
        edge = b - a
        r = np.array([edge[1], -edge[0]])
        r /= np.linalg.norm(r)
        if np.dot(r, center - a) > 0:
            r = -r
        side = (pts - a) @ r
        mask = side > 1e-12
        hyp_count += int(np.sum(mask))
        if np.any(mask):
            gw = p.grad(pts[mask])
            margins.append(gw @ r)
            points.append(pts[mask])
    if hyp_count == 0:
        return DefectReport.from_margins("polygon-confinement", [], None, tol)
    margins = np.concatenate(margins)
    points = np.concatenate(points)
    return DefectReport.from_margins(
        "polygon-confinement", margins, points, tol, {"vertices": verts.tolist()}
    )


# ---------------------------------------------------------------------------
# the scalar GL ODE barrier and bounds


@dataclass(frozen=True)
class PhiBarrier:
    """Mollified barrier phi_eps(s) = integral_0^s rho_eps(6t+1) dt and its
    uniform limit phi, used to certify the Hamiltonian bound H <= 1/12.

    rho_eps rounds the corner of t -> max(t, eps): identically eps below 0,
    identically t above 2 eps, C-infinity and nondecreasing in between, and
    always >= t.  Integrating rho_eps' = smoothstep gives exact junctions.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0 / 12.0:
            raise ValueError("eps must lie in (0, 1/12]")

    # -- rho and its antiderivative ------------------------------------------

    def rho(self, t):
        t = np.asarray(t, float)
        e = self.eps
        y = np.clip(t / (2.0 * e), 0.0, 1.0)
        mid = e + 2.0 * e * smooth.smoothstep_integral(y)
        return np.where(t <= 0.0, e, np.where(t >= 2.0 * e, t, mid))

    def _rho_antiderivative(self, x):
        """R(x) = integral_0^x rho_eps, closed form outside the blend and
        Gauss-Legendre inside it."""
        x = np.asarray(x, float)
        e = self.eps
        nodes, weights = np.polynomial.legendre.leggauss(32)
        # the blend on [0, clip(x)] and, as its last entry, on [0, 2 eps]
        xc = np.append(np.clip(x, 0.0, 2.0 * e), 2.0 * e)
        t = 0.5 * xc[..., None] * (nodes + 1.0)
        blend = 0.5 * xc * ((2.0 * e * smooth.smoothstep_integral(t / (2.0 * e))) @ weights)
        r_mid = e * xc + blend
        r_mid, r2e = r_mid[:-1].reshape(x.shape), r_mid[-1]
        return np.where(
            x <= 0.0, e * x, np.where(x >= 2.0 * e, r2e + 0.5 * (x**2 - 4.0 * e**2), r_mid)
        )

    # -- the barrier and its limit -------------------------------------------

    def phi_eps(self, s):
        s = np.asarray(s, float)
        r1 = self._rho_antiderivative(np.asarray(1.0))
        return (self._rho_antiderivative(6.0 * s + 1.0) - r1) / 6.0

    @staticmethod
    def phi(s):
        s = np.asarray(s, float)
        return np.where(s >= -1.0 / 6.0, 3.0 * s**2 + s, -1.0 / 12.0)

    def sup_deviation(self) -> float:
        """sup |phi_eps - phi| over 2001 points of [-1/2, 0]."""
        s = np.linspace(-0.5, 0.0, 2001)
        return float(np.max(np.abs(self.phi_eps(s) - self.phi(s))))

    def validate(self) -> dict:
        """Check every structural property the barrier is used for, on 2001
        points, to 1e-10."""
        n, tol = 2001, 1e-10
        t = np.linspace(-1.0, 1.0, n)
        rho = self.rho(t)
        below = float(np.min(rho - t))
        s = np.linspace(-0.5, 0.0, n)
        pe = self.phi_eps(s)
        upper = float(np.min((3.0 * s**2 + s) - pe))
        under_limit = float(np.min(self.phi(s) - pe))
        increasing = float(np.min(np.diff(pe)))
        second = np.diff(pe, 2) / (s[1] - s[0]) ** 2
        out = {
            "rho_floor": below,
            "upper_gap": upper,
            "limit_gap": under_limit,
            "min_increment": increasing,
            "min_second_difference": float(np.min(second)),
            "sup_deviation": self.sup_deviation(),
            "plateau_left_exact": float(self.rho(np.asarray(-0.5)) - self.eps),
            "plateau_right_exact": float(self.rho(np.asarray(3.0 * self.eps)) - 3.0 * self.eps),
        }
        # dividing second differences by h^2 amplifies value roundoff by 1/h^2,
        # so the convexity gate must scale with it.
        curv_floor = tol + 64.0 * np.finfo(float).eps / (s[1] - s[0]) ** 2
        bad = below < -tol or upper < -tol or under_limit < -tol or increasing <= 0.0
        if bad or out["min_second_difference"] < -curv_floor:
            raise HypothesisError(f"barrier validation failed: {out}")
        return out


def _require_gl(p: Potential, u: np.ndarray) -> None:
    q = np.sum(np.atleast_2d(u) ** 2, axis=-1)
    ref = 0.25 * (q - 1.0) ** 2
    dev = float(np.max(np.abs(np.asarray(p.w(u)) - ref)))
    if dev > 1e-10:
        raise HypothesisError(f"potential does not match the GL form on the trajectory (dev {dev:.3e})")


def ode_bound_check(traj: Trajectory, p: Potential, tol: float = 1e-7) -> DefectReport:
    """Hamiltonian bounds for the GL ODE: pointwise
    0.5|u'|^2 <= |u|^2 sqrt(W) when |u|^2 >= 2/3 and <= W + 1/12 otherwise;
    globally H <= 1/12, refined to (1/4)(1-S)(3S-1) when S = sup|u|^2 > 2/3."""
    u, v = traj.u, traj.v
    _require_gl(p, u)
    unorm2 = np.sum(u**2, axis=-1)
    kin = 0.5 * np.sum(v**2, axis=-1)
    w = np.asarray(p.w(u))
    sqrt_w = np.sqrt(np.maximum(w, 0.0))
    upper = np.where(unorm2 >= 2.0 / 3.0, unorm2 * sqrt_w, w + 1.0 / 12.0)
    margins = upper - kin
    H = float(np.max(kin - w))
    S = float(np.max(unorm2))
    constants = {"H": H, "S": S, "H_bound": 1.0 / 12.0}
    h_margins = [1.0 / 12.0 - H]
    if S > 2.0 / 3.0:
        refined = 0.25 * (1.0 - S) * (3.0 * S - 1.0)
        constants["refined_bound"] = refined
        h_margins.append(refined - H)
    all_margins = np.concatenate([margins, np.asarray(h_margins)])
    pts = np.concatenate([traj.times[:, None], np.zeros((len(h_margins), 1))])
    return DefectReport.from_margins("ode-hamiltonian", all_margins, pts, tol, constants)


def speed_envelope_check(R_grid=None, dt: float = 1e-3) -> DefectReport:
    """Attainment of the kinetic-energy lower envelope for the scalar/planar
    GL ODE: max(circular-orbit speed, heteroclinic speed) at modulus r equals
    r^2 sqrt(W) for r^2 >= 1/3 and W for r^2 <= 1/3.

    Circular orbits contribute 0.5 r^2 (1 - r^2) at their own modulus
    (measured from integrated trajectories); the heteroclinic contributes
    its equipartition speed W at every modulus it crosses.  The envelope
    holds to 5e-7 and must match the bound to 1e-4.
    """
    tol = 5e-7
    R_grid = np.sqrt(np.linspace(0.05, 0.95, 19)) if R_grid is None else np.asarray(R_grid, float)
    gl = make_potential("ginzburg_landau", m=2)
    dw = make_potential("double_well")
    het = shoot_heteroclinic(dw, -1.0, 1.0, dt=dt)
    het_u = het.u[:, 0]
    het_kin = 0.5 * het.v[:, 0] ** 2
    order = np.argsort(np.abs(het_u))
    het_mod = np.abs(het_u)[order]
    het_kin = het_kin[order]

    # Circular orbits with R^2 > 2/3 are radially unstable (the linearized
    # growth rate is sqrt(6R^2 - 4)), so roundoff escapes over a full slow
    # period (2 pi / sqrt(1 - R^2) > 6).  The orbit speed is constant in time,
    # so a short window measures the kinetic maximum just as well.
    steps = int(round(6.0 / dt))
    starts = [orbit_family(float(R)).start_state() for R in R_grid]
    trajs = integrate_many(gl, starts, dt, steps, drift_tol=1e-6)
    margins = []
    points = []
    for R, traj in zip(R_grid, trajs):
        measured_orbit = float(np.max(0.5 * np.sum(traj.v**2, axis=-1)))
        measured_het = float(np.interp(R, het_mod, het_kin))
        envelope = max(measured_orbit, measured_het)
        w = 0.25 * (R * R - 1.0) ** 2
        bound = R * R * math.sqrt(w) if R * R >= 1.0 / 3.0 else w
        margins.append(envelope - bound)
        points.append([R])
    margins = np.asarray(margins)
    # attainment: the envelope not only dominates but matches the bound
    worst_match = float(np.max(np.abs(margins)))
    constants = {"R_grid": [float(r) for r in R_grid], "orbits": len(starts), "verlet_steps": steps,
                 "worst_attainment_gap": worst_match}
    if worst_match > 1e-4:
        return DefectReport("speed-envelope", margins.size, -worst_match, None, "violated", constants)
    return DefectReport.from_margins("speed-envelope", margins, np.asarray(points), tol, constants)
