"""Relaxation solver for Lap u = grad W(u) on rectangles with Dirichlet data.

Explicit damped gradient flow of the discrete energy: red-black sweeps of

    u_ij += tau * (Lap_h u_ij - grad W(u_ij))

with the step size chosen from the sampled stiffness of W so the discrete
flow energy is a Lyapunov function.  The flow energy (edge-based gradient
plus node-based W) decreases monotonically by construction and is checked
every sweep; any increase beyond roundoff aborts the run, as does value
blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ClosedFormField, GridField, _laplacian
from .potentials import Potential

__all__ = [
    "RelaxError",
    "RelaxConfig",
    "RelaxResult",
    "relax",
    "residual",
    "energy",
    "flow_energy",
    "stiffness_bound",
    "run_log",
]


class RelaxError(RuntimeError):
    """The relaxation aborted: energy increased or values blew up."""


@dataclass(frozen=True)
class RelaxConfig:
    origin: tuple
    spacing: tuple
    shape: tuple  # nodes per axis, (n1, n2)
    boundary: object  # ClosedFormField, or dict of edge arrays (left/right/bottom/top)
    max_iters: int = 50_000
    tol: float = 1e-8
    safety: float = 0.9
    value_margin: float = 0.5  # padding of the value-range box used for the stiffness bound
    meta: dict = dc_field(default_factory=dict)

    def axes(self):
        return tuple(
            self.origin[k] + self.spacing[k] * np.arange(self.shape[k]) for k in range(2)
        )


def stiffness_bound(p: Potential, lo: np.ndarray, hi: np.ndarray, n_per_axis: int = 17) -> float:
    """Sampled sup of the spectral norm of D2W over the box [lo, hi]^m."""
    axes = [np.linspace(lo[k], hi[k], n_per_axis) for k in range(p.m)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.m)
    H = np.asarray(p.hess(pts))
    eig = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))
    return float(np.max(np.abs(eig)))


def _boundary_values(cfg: RelaxConfig, m: int) -> dict:
    """Dirichlet data on the four edges as arrays keyed left/right/bottom/top."""
    x1, x2 = cfg.axes()
    src = cfg.boundary
    if isinstance(src, ClosedFormField):
        def trace(points):
            return src.values(points)

        left = trace(np.stack([np.full_like(x2, x1[0]), x2], axis=-1))
        right = trace(np.stack([np.full_like(x2, x1[-1]), x2], axis=-1))
        bottom = trace(np.stack([x1, np.full_like(x1, x2[0])], axis=-1))
        top = trace(np.stack([x1, np.full_like(x1, x2[-1])], axis=-1))
        return {"left": left, "right": right, "bottom": bottom, "top": top}
    if isinstance(src, dict):
        out = {}
        for key, n_expect in (("left", cfg.shape[1]), ("right", cfg.shape[1]),
                              ("bottom", cfg.shape[0]), ("top", cfg.shape[0])):
            arr = np.asarray(src[key], float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape != (n_expect, m):
                raise ValueError(f"boundary {key!r} must have shape {(n_expect, m)}")
            out[key] = arr
        return out
    raise TypeError("boundary must be a ClosedFormField or a dict of edge arrays")


def _apply_boundary(u: np.ndarray, bc: dict) -> None:
    u[0, :] = bc["left"]
    u[-1, :] = bc["right"]
    u[:, 0] = bc["bottom"]
    u[:, -1] = bc["top"]


def residual(g: GridField, p: Potential) -> float:
    """sup-norm of Lap_h u - grad W(u) over the interior nodes."""
    lap = _laplacian(g.values, g.spacing)
    gw = np.asarray(p.grad(g.values[1:-1, 1:-1]))
    return float(np.max(np.abs(lap - gw)))


def flow_energy(g_or_values, p: Potential, spacing=None) -> float:
    """The Lyapunov function of the discrete flow: edge-based gradient energy
    plus node-based potential energy.  Its interior gradient is exactly
    -h1 h2 (Lap_h u - grad W), so the damped flow cannot increase it."""
    if isinstance(g_or_values, GridField):
        u, (h1, h2) = g_or_values.values, g_or_values.spacing
    else:
        u, (h1, h2) = g_or_values, spacing
    e_grad = 0.5 * h2 / h1 * np.sum((u[1:, :] - u[:-1, :]) ** 2) + 0.5 * h1 / h2 * np.sum(
        (u[:, 1:] - u[:, :-1]) ** 2
    )
    e_pot = h1 * h2 * float(np.sum(p.w(u)))
    return float(e_grad + e_pot)


def energy(g: GridField, p: Potential) -> float:
    """Reported energy: composite trapezoid rule of 0.5|grad_h u|^2 + W(u),
    with central differences inside and one-sided differences on the edges.
    On a strip containing a flat interface profile this reproduces the
    one-dimensional transition energy times the strip height."""
    u = g.values
    h1, h2 = g.spacing
    d1 = np.gradient(u, h1, axis=0)
    d2 = np.gradient(u, h2, axis=1)
    density = 0.5 * (np.sum(d1**2, axis=-1) + np.sum(d2**2, axis=-1)) + np.asarray(p.w(u))
    wts1 = np.ones(u.shape[0]); wts1[0] = wts1[-1] = 0.5
    wts2 = np.ones(u.shape[1]); wts2[0] = wts2[-1] = 0.5
    return float(h1 * h2 * np.einsum("i,j,ij->", wts1, wts2, density))


@dataclass(frozen=True)
class RelaxResult:
    field: GridField
    iterations: int
    converged: bool
    tau: float
    stiffness: float
    residuals: np.ndarray  # recorded per sweep
    energies: np.ndarray  # flow energy per sweep (nonincreasing)

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


def relax(p: Potential, cfg: RelaxConfig, init: GridField | None = None) -> RelaxResult:
    """Run the damped gradient flow until the residual drops below cfg.tol
    or cfg.max_iters sweeps elapse.  Each sweep updates the two checkerboard
    colors in a fixed order, so runs are bit-reproducible."""
    if len(cfg.shape) != 2:
        raise ValueError("relax works on planar grids")
    n1, n2 = cfg.shape
    if n1 < 3 or n2 < 3:
        raise ValueError("grid must have interior nodes")
    h1, h2 = cfg.spacing
    m = p.m

    bc = _boundary_values(cfg, m)
    if init is not None:
        if init.values.shape != (n1, n2, m):
            raise ValueError("init shape does not match the configured grid")
        u = init.values.astype(float).copy()
    elif isinstance(cfg.boundary, ClosedFormField):
        x1, x2 = cfg.axes()
        pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
        u = cfg.boundary.values(pts).reshape(n1, n2, m).astype(float)
    else:
        u = np.zeros((n1, n2, m))
    _apply_boundary(u, bc)

    lo = u.reshape(-1, m).min(axis=0) - cfg.value_margin
    hi = u.reshape(-1, m).max(axis=0) + cfg.value_margin
    L = stiffness_bound(p, lo, hi)
    h = min(h1, h2)
    tau = cfg.safety * h * h / (4.0 + h * h * L)

    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    colors = ((ii + jj) % 2 == 0)

    energies = []
    residuals = []
    e_prev = flow_energy(u, p, (h1, h2))
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_iters + 1):
        for color in (colors, ~colors):
            lap = _laplacian(u, cfg.spacing)
            gw = np.asarray(p.grad(u[1:-1, 1:-1]))
            step = tau * (lap - gw)
            u[1:-1, 1:-1][color] += step[color]
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise RelaxError(f"values blew up after {sweeps} sweeps")
        e_now = flow_energy(u, p, (h1, h2))
        if e_now > e_prev + 1e-12 * max(1.0, abs(e_prev)):
            raise RelaxError(
                f"flow energy increased at sweep {sweeps}: {e_prev!r} -> {e_now!r}"
            )
        lap = _laplacian(u, cfg.spacing)
        gw = np.asarray(p.grad(u[1:-1, 1:-1]))
        r = float(np.max(np.abs(lap - gw)))
        energies.append(e_now)
        residuals.append(r)
        e_prev = e_now
        if r <= cfg.tol:
            converged = True
            break

    g = GridField(
        origin=tuple(cfg.origin),
        spacing=tuple(cfg.spacing),
        values=u,
        meta={"solver": "damped-gradient-flow", "potential": p.name,
              "tau": tau, "sweeps": sweeps, **cfg.meta},
    )
    return RelaxResult(
        field=g,
        iterations=sweeps,
        converged=converged,
        tau=tau,
        stiffness=L,
        residuals=np.asarray(residuals),
        energies=np.asarray(energies),
    )


def run_log(result: RelaxResult) -> dict:
    return {
        "iters": int(result.iterations),
        "converged": bool(result.converged),
        "residual": result.final_residual,
        "energy_first": float(result.energies[0]),
        "energy_last": float(result.energies[-1]),
        "tau": float(result.tau),
    }
