"""Relaxation solver for Lap u = grad W(u) on rectangles with Dirichlet data.

Nonlinear full-approximation-scheme (FAS) multigrid V-cycles whose smoother
is the explicit damped gradient flow of the discrete energy, red-black
sweeps of

    u_ij += tau * (Lap_h u_ij - grad W(u_ij) + f_ij)

where f is 0 on the finest grid and the FAS forcing on coarser ones.  Every
level takes its step size from one sampled stiffness bound of W, so the
discrete flow energy is a Lyapunov function of the sweeps.
The grid halves while both node counts minus one are even and the coarse
grid keeps an interior node; a grid that cannot coarsen is one level, where
a cycle is one sweep of the plain flow.  A coarse correction is kept only
if it does not raise the energy beyond roundoff, so the fine flow energy
(edge-based gradient plus node-based W) is nonincreasing from cycle to
cycle up to roundoff.  It is checked every cycle: any increase beyond roundoff aborts the
run, as does value blow-up.  The number of cycles to a given residual does
not grow as h shrinks (A. Brandt, Math. Comp. 31, 1977).
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
    iterations: int  # cycles
    converged: bool
    tau: float  # step of the finest level
    stiffness: float
    residuals: np.ndarray  # recorded per cycle
    energies: np.ndarray  # flow energy per cycle (nonincreasing)
    levels: int  # grids in the multigrid hierarchy; 1 is the plain flow

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


# The cycle shape: smoothing sweeps before and after each coarse correction,
# and the sweeps that stand in for a solve on the coarsest grid.
_PRE_SWEEPS = 2
_POST_SWEEPS = 2
_COARSEST_SWEEPS = 16
# Relative rise of a level's energy that a coarse correction may cause and
# still be kept: the roundoff of summing the energy, far below the 1e-12
# that aborts a run.  Near convergence a correction gains less than roundoff.
_ENERGY_ROUNDOFF = 1e-14
# Cycles without a new smallest residual after which a run stops unconverged:
# the five-point residual has a roundoff floor near eps |u| / h^2, and a tol
# below it is never met.  Converging runs set a new minimum every cycle.
_STALL_CYCLES = 8


@dataclass(frozen=True)
class _Level:
    spacing: tuple
    tau: float
    colors: tuple  # checkerboard masks of the interior nodes, in sweep order


def _hierarchy(shape, spacing, safety: float, L: float) -> list[_Level]:
    """Grids from fine to coarse: halve while n1 - 1 and n2 - 1 are both
    even and the coarse grid keeps an interior node.  Every level steps with
    tau = safety h^2 / (4 + h^2 L), which keeps the flow a descent there."""
    (n1, n2), (h1, h2) = shape, spacing
    levels = []
    while True:
        h = min(h1, h2)
        ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
        colors = ((ii + jj) % 2 == 0)
        levels.append(_Level((h1, h2), safety * h * h / (4.0 + h * h * L), (colors, ~colors)))
        if (n1 - 1) % 2 or (n2 - 1) % 2 or min(n1, n2) < 5:
            return levels
        n1, n2, h1, h2 = (n1 - 1) // 2 + 1, (n2 - 1) // 2 + 1, 2.0 * h1, 2.0 * h2


def _defect(u: np.ndarray, p: Potential, spacing, f) -> np.ndarray:
    """Lap_h u - grad W(u) + f over the interior nodes (f = None is zero)."""
    a = _laplacian(u, spacing) - np.asarray(p.grad(u[1:-1, 1:-1]))
    return a if f is None else a + f


def _level_energy(u: np.ndarray, p: Potential, spacing, f) -> float:
    """The flow energy minus the forcing's work: its interior gradient is
    -h1 h2 (Lap_h u - grad W + f), so a level's sweeps descend it."""
    e = flow_energy(u, p, spacing)
    return e if f is None else e - spacing[0] * spacing[1] * float(np.sum(f * u[1:-1, 1:-1]))


def _smooth(u: np.ndarray, p: Potential, lvl: _Level, f, sweeps: int, a=None) -> None:
    """Red-black sweeps of u += tau (Lap_h u - grad W(u) + f) in place;
    `a` is the defect of u when the caller already has it."""
    inner = u[1:-1, 1:-1]
    for _ in range(sweeps):
        for color in lvl.colors:
            if a is None:
                a = _defect(u, p, lvl.spacing, f)
            inner[color] += lvl.tau * a[color]
            a = None


def _restrict(r: np.ndarray) -> np.ndarray:
    """Full weighting of fine interior values onto the coarse interior nodes."""
    rows = 0.25 * (r[:-2:2] + 2.0 * r[1::2] + r[2::2])
    return 0.25 * (rows[:, :-2:2] + 2.0 * rows[:, 1::2] + rows[:, 2::2])


def _prolong(e: np.ndarray, shape) -> np.ndarray:
    """Bilinear interpolation of coarse nodal values onto the fine grid."""
    fine = np.empty(shape)
    fine[::2, ::2] = e
    fine[1::2, ::2] = 0.5 * (e[:-1] + e[1:])
    fine[:, 1::2] = 0.5 * (fine[:, :-1:2] + fine[:, 2::2])
    return fine


def _vcycle(u: np.ndarray, p: Potential, levels: list, f, a=None) -> None:
    """One FAS V-cycle for Lap_h u - grad W(u) + f = 0 on levels[0], in place;
    `a` is the defect of u when the caller already has it.

    The coarse problem is Lap_H v - grad W(v) + f_H = 0 with
    f_H = R(Lap_h u - grad W(u) + f) - (Lap_H - grad W)(u_hat), where R is
    full weighting and u_hat the injected u (Dirichlet data included); u
    gains the bilinear prolongation of v - u_hat unless that would raise
    the level's energy beyond roundoff, so a cycle keeps the descent of its
    sweeps."""
    lvl = levels[0]
    if len(levels) == 1:
        _smooth(u, p, lvl, f, _COARSEST_SWEEPS)
        return
    _smooth(u, p, lvl, f, _PRE_SWEEPS, a)
    u_hat = u[::2, ::2].copy()
    f_H = _restrict(_defect(u, p, lvl.spacing, f)) - _defect(u_hat, p, levels[1].spacing, None)
    v = u_hat.copy()
    _vcycle(v, p, levels[1:], f_H)
    trial = u + _prolong(v - u_hat, u.shape)
    e = _level_energy(u, p, lvl.spacing, f)
    # `<=` is False on nan, so a correction that overflowed is dropped too
    if _level_energy(trial, p, lvl.spacing, f) <= e + _ENERGY_ROUNDOFF * max(1.0, abs(e)):
        u[...] = trial
    _smooth(u, p, lvl, f, _POST_SWEEPS)


def relax(p: Potential, cfg: RelaxConfig, init: GridField | None = None) -> RelaxResult:
    """Run FAS multigrid cycles until the residual drops below cfg.tol, stops
    falling for _STALL_CYCLES cycles, or cfg.max_iters cycles elapse.  On a grid that cannot coarsen a cycle is one
    sweep of the damped flow.  Sweeps update the two checkerboard colors in a
    fixed order, so runs are bit-reproducible."""
    if len(cfg.shape) != 2:
        raise ValueError("relax works on planar grids")
    n1, n2 = cfg.shape
    if n1 < 3 or n2 < 3:
        raise ValueError("grid must have interior nodes")
    if cfg.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {cfg.max_iters!r}")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise ValueError(f"tol must be positive and finite, got {cfg.tol!r}")
    if not all(math.isfinite(hk) and hk > 0 for hk in cfg.spacing):
        raise ValueError(f"spacing must be positive and finite, got {tuple(cfg.spacing)!r}")
    if not 0 < cfg.safety <= 1:
        raise ValueError(f"safety must lie in (0, 1], got {cfg.safety!r}")
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
    levels = _hierarchy((n1, n2), (h1, h2), cfg.safety, L)
    fine = levels[0]

    energies = []
    residuals = []
    e_prev = flow_energy(u, p, (h1, h2))
    converged = False
    best, since_best = math.inf, 0
    a = None  # defect of u, carried from one cycle's residual into the next sweep
    for cycles in range(1, cfg.max_iters + 1):
        if len(levels) == 1:
            _smooth(u, p, fine, None, 1, a)
        else:
            _vcycle(u, p, levels, None, a)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise RelaxError(f"values blew up after {cycles} cycles")
        e_now = flow_energy(u, p, (h1, h2))
        if e_now > e_prev + 1e-12 * max(1.0, abs(e_prev)):
            raise RelaxError(
                f"flow energy increased at cycle {cycles}: {e_prev!r} -> {e_now!r}"
            )
        a = _defect(u, p, fine.spacing, None)
        r = float(np.max(np.abs(a)))
        energies.append(e_now)
        residuals.append(r)
        e_prev = e_now
        if r <= cfg.tol:
            converged = True
            break
        best, since_best = (r, 0) if r < best else (best, since_best + 1)
        if since_best == _STALL_CYCLES:
            break

    g = GridField(
        origin=tuple(cfg.origin),
        spacing=tuple(cfg.spacing),
        values=u,
        meta={"solver": "fas-multigrid", "potential": p.name, "tau": fine.tau,
              "cycles": cycles, "levels": len(levels), **cfg.meta},
    )
    return RelaxResult(
        field=g,
        iterations=cycles,
        converged=converged,
        tau=fine.tau,
        stiffness=L,
        residuals=np.asarray(residuals),
        energies=np.asarray(energies),
        levels=len(levels),
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
