"""Planar stress-energy machinery.

For a solution of Lap u = grad W(u) on a plane domain, the stress-energy
tensor T is divergence-free, and its two divergence identities are exactly
the compatibility conditions for a scalar function U with prescribed Hessian

    D2U = [[ |u_x1|^2 - |u_x2|^2 + 2W ,  2 u_x1 . u_x2              ],
           [ 2 u_x1 . u_x2            ,  |u_x2|^2 - |u_x1|^2 + 2W ]]

so that D2U = -2 adj T and Lap U = 4 W(u).  This module computes T and D2U
from jets, one node or a batch of them:

    jets = grid_jets(g)            # every interior node of a planar grid
    T = stress_tensor(jets, p)     # (ni, nj, 2, 2)
    H = hessian_U(jets, p)         # (ni, nj, 2, 2)

It takes their divergence and compatibility residuals with the grid-jet
difference kernel, reconstructs U on grids by path integration, classifies
its convexity (equivalent to det D2U >= 0), and evaluates the Green boundary
identity and the radial monotonicity profiles that follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smooth
from .estimates import _solution_gate
from .fields import ClosedFormField, GridField, Jet2, _first_differences, _laplacian, grid_jets
from .potentials import Potential, _sum_columns

__all__ = [
    "UField",
    "MonotoneProfile",
    "stress_tensor",
    "divergence_residual",
    "divergence_pair",
    "hessian_U",
    "compatibility_residual",
    "reconstruct_U",
    "convexity_margin",
    "green_boundary_identity",
    "monotonicity_profile",
    "disk_integral",
]


# ---------------------------------------------------------------------------
# tensor algebra at a jet, one node or a batch


def stress_tensor(jet: Jet2, p: Potential) -> np.ndarray:
    """The stress-energy tensor T = -(0.5|grad u|^2 + W) I + (u_xi . u_xj):
    (n, n) at a single jet, (..., n, n) per node of a batched one."""
    gram = np.einsum("...mi,...mj->...ij", jet.du, jet.du)
    scalar = np.asarray(0.5 * jet.grad_sq() + p.w(jet.u))
    return gram - scalar[..., None, None] * np.eye(jet.n)


def _convexity_terms(jet: Jet2, p: Potential):
    """W(u), |u_x1|^2 - |u_x2|^2 and 2 u_x1.u_x2 per node of a planar jet."""
    if jet.n != 2:
        raise ValueError("the auxiliary function U needs a planar jet (n=2)")
    du = jet.du
    d = _sum_columns(du[..., 0] * du[..., 0]) - _sum_columns(du[..., 1] * du[..., 1])
    return np.asarray(p.w(jet.u)), d, 2.0 * _sum_columns(du[..., 0] * du[..., 1])


def hessian_U(jet: Jet2, p: Potential) -> np.ndarray:
    """Prescribed Hessian of the auxiliary function U: (2, 2) at a single
    planar jet, (..., 2, 2) per node of a batched one."""
    w, d, c = _convexity_terms(jet, p)
    H = np.empty(d.shape + (2, 2))
    H[..., 0, 0], H[..., 1, 1] = d + 2.0 * w, 2.0 * w - d
    H[..., 0, 1] = H[..., 1, 0] = c
    return H


def convexity_margin(jet: Jet2, p: Potential):
    """Margin 4W^2 - (|u_x1|^2-|u_x2|^2)^2 - 4(u_x1.u_x2)^2 of the convexity
    inequality for U, per node of a batched planar jet: det D2U written
    without the Hessian, so U is convex where it is nonnegative."""
    w, d, c = _convexity_terms(jet, p)
    return 4.0 * w * w - d * d - c * c


# ---------------------------------------------------------------------------
# the identities on grids


def _solution_jets(g: GridField, p: Potential, gate: float) -> Jet2:
    """Interior-node jets of a planar grid field that solves the system within `gate`."""
    if g.n != 2:
        raise ValueError("stress-energy fields require a planar grid")
    jets = grid_jets(g)
    _solution_gate(jets.laplacian() - np.asarray(p.grad(jets.u)), gate, "field does not solve the system")
    return jets


def divergence_residual(g: GridField, p: Potential, gate: float = 1e-5,
                        margin: float = 0.0) -> float:
    """sup-norm of the finite-difference divergence of the stress tensor over
    the deep interior.  The field must solve the system within `gate`.

    `margin` excludes nodes within that physical distance of the grid
    boundary: Dirichlet data that is not the trace of a globally smooth
    solution puts corner singularities into the field, and interior elliptic
    regularity only controls derivatives a fixed distance away from them.
    """
    jets = _solution_jets(g, p, gate)
    # row r of div T is the trace of the difference Jacobian of row r of T
    div = np.einsum("...ii->...", _first_differences(stress_tensor(jets, p), g.spacing))
    if margin > 0.0:
        inner = [(ax[2:-2] >= ax[0] + margin) & (ax[2:-2] <= ax[-1] - margin) for ax in g.axes()]
        keep = inner[0][:, None] & inner[1][None, :]
        if not np.any(keep):
            raise ValueError("margin leaves no measurement nodes")
        div = div[keep]
    return float(np.max(np.abs(div)))


def divergence_pair(make_grid, p: Potential, h: float, gate: float = 1e-5,
                    margin: float = 0.0) -> dict:
    """Divergence residual at spacings h and h/2 plus their ratio; `make_grid`
    maps a spacing to a solution GridField (sampled or relaxed)."""
    r_h = divergence_residual(make_grid(h), p, gate, margin)
    r_h2 = divergence_residual(make_grid(h / 2.0), p, gate, margin)
    return {"h": h, "margin": margin, "residual_h": r_h, "residual_h2": r_h2,
            "ratio": r_h / r_h2 if r_h2 else math.inf}


def compatibility_residual(g: GridField, p: Potential) -> float:
    """sup-norm of the two cross-derivative compatibility conditions
    (equivalently div T = 0) evaluated by finite differences: row i of D2U
    is the gradient of U_xi, so the curl of each row vanishes."""
    dH = _first_differences(hessian_U(grid_jets(g), p), g.spacing)
    return float(np.max(np.abs(dH[..., 0, 1] - dH[..., 1, 0])))


# ---------------------------------------------------------------------------
# the auxiliary function U


def _cumtrapz(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Cumulative trapezoid along an axis, starting at zero."""
    v = np.moveaxis(values, axis, 0)
    out = np.zeros_like(v)
    out[1:] = np.cumsum(0.5 * (v[1:] + v[:-1]) * h, axis=0)
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class UField:
    """Reconstructed auxiliary function on the interior nodes of a grid."""

    grid: GridField  # scalar field of U values
    gauge_index: tuple
    path_defect: float  # sup difference between the two integration orders
    laplacian_defect: float  # sup |Lap_h U - 4 W(u)| on the deep interior

    @property
    def values(self) -> np.ndarray:
        return self.grid.values[..., 0]


def reconstruct_U(g: GridField, p: Potential, gate: float = 1e-4) -> UField:
    """Integrate the prescribed Hessian twice along axis paths to recover U
    on the interior nodes, gauged so U and grad U vanish at the gauge node,
    the central interior node.

    Path independence of the reconstruction (x1-then-x2 versus x2-then-x1) is
    the discrete form of the compatibility conditions; its defect is measured
    and reported rather than assumed.
    """
    jets = _solution_jets(g, p, gate)
    H = hessian_U(jets, p)
    h1, h2 = g.spacing
    ni, nj = H.shape[:2]
    i0, j0 = ni // 2, nj // 2

    def integrate_from_gauge(d1, d2):
        """Potential field with gradient (d1, d2), zero at the gauge node,
        averaged over the two L-shaped path orders; returns (field, defect)."""
        p1 = _cumtrapz(d1, h1, axis=0)
        p1 -= p1[i0 : i0 + 1, :]
        p2 = _cumtrapz(d2, h2, axis=1)
        p2 -= p2[:, j0 : j0 + 1]
        path_a = p1[:, j0 : j0 + 1] + p2  # x1 first, then x2
        path_b = p2[i0 : i0 + 1, :] + p1  # x2 first, then x1
        return 0.5 * (path_a + path_b), float(np.max(np.abs(path_a - path_b)))

    # row i of D2U is the gradient of U_xi
    ux1, defect1 = integrate_from_gauge(H[..., 0, 0], H[..., 0, 1])
    ux2, defect2 = integrate_from_gauge(H[..., 1, 0], H[..., 1, 1])
    u_field, defect3 = integrate_from_gauge(ux1, ux2)
    path_defect = max(defect1, defect2, defect3)

    lap = _laplacian(u_field, g.spacing)[:, 1:-1]
    w_interior = np.asarray(p.w(jets.u))[1:-1, 1:-1]
    lap_defect = float(np.max(np.abs(lap - 4.0 * w_interior)))

    grid = GridField(
        origin=g.node_position((1, 1)),
        spacing=g.spacing,
        values=u_field[..., None],
        meta={"gauge_index": [int(i0), int(j0)], "content": "auxiliary-U"},
    )
    return UField(grid=grid, gauge_index=(int(i0), int(j0)),
                  path_defect=path_defect, laplacian_defect=lap_defect)


# ---------------------------------------------------------------------------
# quadrature, the Green identity, monotonicity profiles


def disk_integral(fn, center, r: float, n_r: int = 64, n_theta: int = 256) -> float:
    """Integral of a scalar density over the disk B(center, r): Gauss-Legendre
    in radius (weighted by radius) times a uniform trapezoid rule in angle."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    center = np.asarray(center, float)
    if center.shape != (2,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be a finite point of the plane, got {center.tolist()}")
    nodes, weights = smooth._gauss_legendre(n_r)
    radii = 0.5 * r * (nodes + 1.0)
    ang = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)  # (n_theta, 2)
    pts = center + radii[:, None, None] * dirs[None, :, :]  # (n_r, n_theta, 2)
    vals = np.asarray(fn(pts), float)
    angular = vals.mean(axis=1) * 2.0 * math.pi
    return float(0.5 * r * np.sum(weights * radii * angular))


def green_boundary_identity(f: ClosedFormField, p: Potential, center, R: float) -> dict:
    """Both sides of the Green identity for the auxiliary function:
    integral over B of 4W(u) equals R times the boundary integral of
    |u_tau|^2 - |u_nu|^2 + 2W(u), with a 64-node radial rule and 256
    boundary nodes.  The field must solve the system on the boundary
    nodes to 1e-5."""
    n_r, n_theta, gate = 64, 256, 1e-5
    center = np.asarray(center, float)
    if f.n != 2:
        raise ValueError("green_boundary_identity requires a planar field")

    def density(pts):
        return 4.0 * np.asarray(p.w(f.values(pts)))

    lhs = disk_integral(density, center, R, n_r=n_r, n_theta=n_theta)

    ang = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    nu = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    tau = np.stack([-nu[:, 1], nu[:, 0]], axis=-1)
    jets = f.jets(center + R * nu)
    u_tau = np.matmul(jets.du, tau[:, :, None])[..., 0]
    u_nu = np.matmul(jets.du, nu[:, :, None])[..., 0]
    _solution_gate(jets.laplacian() - p.grad(jets.u), gate,
                   "field does not solve the system on the boundary")
    integrand = _sum_columns(u_tau * u_tau) - _sum_columns(u_nu * u_nu) + 2.0 * p.w(jets.u)
    rhs = R * R * float(integrand.mean() * 2.0 * math.pi)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "defect": abs(lhs - rhs),
        "rule_order": n_r,
        "boundary_nodes": n_theta,
    }


@dataclass(frozen=True)
class MonotoneProfile:
    center: tuple
    radii: tuple
    values: tuple
    errors: tuple  # per-radius quadrature error estimates
    density: str

    def is_monotone(self) -> bool:
        """Nondecreasing, up to twice the summed quadrature error estimates
        of each pair of neighbouring radii."""
        v = np.asarray(self.values)
        e = np.asarray(self.errors)
        tol = 2.0 * (e[1:] + e[:-1])
        return bool(np.all(np.diff(v) >= -tol))

    def to_csv(self, path) -> None:
        lines = ["r,M,quad_error_estimate"]
        for r, m, e in zip(self.radii, self.values, self.errors):
            lines.append(f"{r!r},{m!r},{e!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


_DENSITIES = ("potential", "laplacian_quadratic", "grad_sq")


def monotonicity_profile(density: str, f: ClosedFormField | None, p: Potential | None,
                         center, radii) -> MonotoneProfile:
    """Radial profile M(r) = r^{-(n-1)} integral_{B(r)} density, n = 2, on a
    64 x 256 disk rule, with the 32 x 128 rule for the error estimate.

    Densities: "potential" is W(u(x)) (monotone for solutions whose U is
    convex); "laplacian_quadratic" is Lap|x|^2 = 4 (profile exactly 4 pi r);
    "grad_sq" is |grad u|^2 for harmonic fields (monotone when |u|^2 is
    convex).
    """
    if density not in _DENSITIES:
        raise ValueError(f"unknown density {density!r}; known: {', '.join(_DENSITIES)}")
    if density == "potential" and (f is None or p is None):
        raise ValueError("density 'potential' needs a field and a potential")
    if density == "grad_sq" and f is None:
        raise ValueError("density 'grad_sq' needs a field")
    if density != "laplacian_quadratic" and f.n != 2:
        raise ValueError(f"{f.name}: density {density!r} needs a planar field (n=2)")
    fn = {
        "potential": lambda pts: np.asarray(p.w(f.values(pts))),
        "laplacian_quadratic": lambda pts: np.full(pts.shape[:-1], 4.0),
        "grad_sq": lambda pts: f.jets(pts).grad_sq(),
    }[density]
    center = np.asarray(center, float)
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError(f"a profile compares at least two radii, got {len(radii)}")
    if not all(0.0 < r < math.inf for r in radii) or list(radii) != sorted(set(radii)):
        raise ValueError(f"radii must be positive, finite and strictly increasing, got {list(radii)}")

    values, errors = [], []
    for r in radii:
        full = disk_integral(fn, center, r, n_r=64, n_theta=256)
        coarse = disk_integral(fn, center, r, n_r=32, n_theta=128)
        values.append(full / r)
        errors.append(abs(full - coarse) / r)
    return MonotoneProfile(
        center=tuple(float(c) for c in center),
        radii=radii,
        values=tuple(values),
        errors=tuple(errors),
        density=density,
    )

