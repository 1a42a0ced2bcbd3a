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
a cycle is one sweep of the plain flow.  On the coarsest of several levels a
cycle takes one Newton step where that level has at most 256 unknowns, a
spacing with h^2 L <= 4 for the stiffness bound L of W, and a locally
convex energy, else 16 sweeps of the flow.  A coarse
correction is kept only if it does not raise the energy beyond roundoff, so
the fine flow energy
(edge-based gradient plus node-based W) is nonincreasing from cycle to
cycle up to roundoff.  It is checked every cycle: any increase beyond roundoff aborts the
run, as does value blow-up.  The number of cycles to a given residual does
not grow as h shrinks (A. Brandt, Math. Comp. 31, 1977).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import ClosedFormField, GridField, _laplacian
from .potentials import Potential, _sum_columns

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
    boundary: ClosedFormField  # planar, with the potential's m components
    max_iters: int = 50_000
    tol: float = 1e-8

    def axes(self):
        return tuple(
            self.origin[k] + self.spacing[k] * np.arange(self.shape[k]) for k in range(2)
        )


# Every level steps with tau = _SAFETY h^2 / (4 + h^2 L), where L bounds D2W
# on the value range of the start padded by _VALUE_MARGIN.
_SAFETY = 0.9
_VALUE_MARGIN = 0.5


def stiffness_bound(p: Potential, lo: np.ndarray, hi: np.ndarray) -> float:
    """Sampled sup of the spectral norm of D2W over the box [lo, hi]^m, at
    17 points per axis."""
    axes = [np.linspace(lo[k], hi[k], 17) for k in range(p.m)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.m)
    H = np.asarray(p.hess(pts))
    eig = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))
    return float(np.max(np.abs(eig)))


def flow_energy(u: np.ndarray, p: Potential, spacing) -> float:
    """The Lyapunov function of the discrete flow on grid values u: edge-based
    gradient energy plus node-based potential energy.  Its interior gradient
    is exactly -h1 h2 (Lap_h u - grad W), so the damped flow cannot increase it."""
    h1, h2 = spacing
    d1 = u[1:, :] - u[:-1, :]
    d1 *= d1
    d2 = u[:, 1:] - u[:, :-1]
    d2 *= d2
    e_grad = 0.5 * h2 / h1 * d1.sum() + 0.5 * h1 / h2 * d2.sum()
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
    density = 0.5 * (_sum_columns(d1 * d1) + _sum_columns(d2 * d2)) + np.asarray(p.w(u))
    wts1 = np.ones(u.shape[0]); wts1[0] = wts1[-1] = 0.5
    wts2 = np.ones(u.shape[1]); wts2[0] = wts2[-1] = 0.5
    return float(h1 * h2 * np.einsum("i,j,ij->", wts1, wts2, density))


@dataclass(frozen=True)
class RelaxResult:
    field: GridField
    iterations: int  # cycles
    converged: bool
    tau: float  # step of the finest level
    residuals: np.ndarray  # recorded per cycle
    energies: np.ndarray  # flow energy per cycle (nonincreasing)
    levels: int  # grids in the multigrid hierarchy; 1 is the plain flow
    newton_steps: int  # coarsest-grid visits that took the Newton step

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


# The cycle shape: smoothing sweeps before and after each coarse correction,
# and the sweeps that stand in for a solve on the coarsest grid.
_PRE_SWEEPS = 2
_POST_SWEEPS = 2
_COARSEST_SWEEPS = 16
# Most unknowns, (n1 - 2)(n2 - 2) m, for which the coarsest grid holds the
# dense Lap_H (x) I_m and may take a Newton step: 512 KB and about 2e7 flops
# per step.  It covers the 6 x 6 and 11 x 11 grids that GL (m = 2) squares
# coarsen to; a larger coarsest grid, left by a node count minus one that is
# odd, keeps the 16 sweeps, which cost O(unknowns) and not O(unknowns^3).
_NEWTON_MAX_UNKNOWNS = 256
# Largest h^2 L for which the coarsest grid may take the Newton step: there
# Lap_H dominates the step's denominator 4 + h^2 L.  On a coarser grid
# (squares of side 16 coarsen to spacing 3.2 or 6.4) the exact coarse solve
# overcorrects the fine grid, and relaxation stalls short of its tolerance.
_NEWTON_MAX_H2L = 4.0
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
    # per checkerboard colour, in sweep order: the element indices of its
    # interior nodes in u.reshape(-1) and in the whole-row defect's
    # a.reshape(-1), which starts one row of u later
    colors: tuple
    # Lap_h (x) I_m on the coarsest of several levels with at most
    # _NEWTON_MAX_UNKNOWNS unknowns and h^2 L <= _NEWTON_MAX_H2L, else None
    lap: np.ndarray | None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _color_indices(n1: int, n2: int, m: int) -> tuple:
    """((iu, ia), (iu, ia)) for the colours (i + j) even, then odd, each
    listing its nodes in row-major order and every node's m components;
    cached per shape, read-only."""
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    even = (ii + jj) % 2 == 0
    comps = np.arange(m)
    out = []
    for color in (even, ~even):
        i, j = ii[color][:, None], jj[color][:, None]
        iu = _read_only(((i * n2 + j) * m + comps).reshape(-1))
        out.append((iu, _read_only(iu - n2 * m)))
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _interior_laplacian(n1: int, n2: int, spacing, m: int) -> np.ndarray:
    """The five-point Lap_h on the interior nodes in row-major order, acting
    on each of m components: the dense matrix Lap_h (x) I_m, cached per
    shape and spacing, read-only.  The Dirichlet data enters through the
    defect instead."""
    def second_difference(n, h):
        return (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / (h * h)

    k1, k2 = n1 - 2, n2 - 2
    lap = (np.kron(second_difference(k1, spacing[0]), np.eye(k2))
           + np.kron(np.eye(k1), second_difference(k2, spacing[1])))
    return _read_only(np.kron(lap, np.eye(m)))


def _hierarchy(shape, spacing, m: int, L: float) -> list[_Level]:
    """Grids from fine to coarse: halve while n1 - 1 and n2 - 1 are both
    even and the coarse grid keeps an interior node.  Every level steps with
    tau = _SAFETY h^2 / (4 + h^2 L), which keeps the flow a descent there;
    the coarsest of two or more levels also holds its Lap_h matrix if it has
    at most _NEWTON_MAX_UNKNOWNS unknowns and h^2 L <= _NEWTON_MAX_H2L."""
    (n1, n2), (h1, h2) = shape, spacing
    levels = []
    while True:
        h = min(h1, h2)
        coarsest = (n1 - 1) % 2 or (n2 - 1) % 2 or min(n1, n2) < 5
        newton = (n1 - 2) * (n2 - 2) * m <= _NEWTON_MAX_UNKNOWNS and h * h * L <= _NEWTON_MAX_H2L
        lap = _interior_laplacian(n1, n2, (h1, h2), m) if coarsest and levels and newton else None
        levels.append(_Level((h1, h2), _SAFETY * h * h / (4.0 + h * h * L),
                             _color_indices(n1, n2, m), lap))
        if coarsest:
            return levels
        n1, n2, h1, h2 = (n1 - 1) // 2 + 1, (n2 - 1) // 2 + 1, 2.0 * h1, 2.0 * h2


def _defect(u: np.ndarray, p: Potential, spacing, f, g) -> tuple:
    """(a, g): a = Lap_h u - grad W(u) + f on the interior rows of u, whole
    rows (f = None is zero), and g = grad W on those rows, evaluated here
    when g is None.  Columns 0 and n2 - 1 of a are not defects; the
    interior is a[:, 1:-1].

    A given g is reused: a potential evaluates each point on its own, so g
    stays exact at every node that has not moved since it was evaluated."""
    if g is None:
        g = p.grad(u[1:-1])
    a = _laplacian(u, spacing)
    a -= g
    if f is not None:
        a[:, 1:-1] += f
    return a, g


def _level_energy(u: np.ndarray, p: Potential, spacing, f) -> float:
    """The flow energy minus the forcing's work: its interior gradient is
    -h1 h2 (Lap_h u - grad W + f), so a level's sweeps descend it."""
    e = flow_energy(u, p, spacing)
    return e if f is None else e - spacing[0] * spacing[1] * float(np.sum(f * u[1:-1, 1:-1]))


def _smooth(u: np.ndarray, p: Potential, lvl: _Level, f, sweeps: int, a, g) -> None:
    """Red-black sweeps of u += tau (Lap_h u - grad W(u) + f) in place, u
    C-contiguous; (a, g) is _defect(u) when the caller already has it, else
    (None, None).  One grad W per sweep: the second colour's nodes have not
    moved when the first updates, so the second reuses the first's g."""
    flat = u.reshape(-1)
    for _ in range(sweeps):
        for iu, ia in lvl.colors:
            if a is None:
                a, g = _defect(u, p, lvl.spacing, f, g)
            flat[iu] += lvl.tau * a.reshape(-1)[ia]
            a = None
        g = None


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


def _coarsest_solve(u: np.ndarray, p: Potential, lvl: _Level, f, a, g) -> bool:
    """One Newton step for Lap_H u - grad W(u) + f = 0 where the level
    holds its Lap_H and its energy is locally convex, that is where -J,
    J = Lap_H (x) I_m - blockdiag(D2W(u)), has a Cholesky factor; else
    _COARSEST_SWEEPS sweeps.  On a nonconvex energy Newton would head for a
    saddle.  (a, g) is _defect(u).  True if the step was Newton's."""
    if lvl.lap is None:
        _smooth(u, p, lvl, f, _COARSEST_SWEEPS, a, g)
        return False
    inner = u[1:-1, 1:-1]
    m = u.shape[-1]
    nodes = lvl.lap.shape[0] // m
    J = lvl.lap.copy()
    k = np.arange(nodes)
    J.reshape(nodes, m, nodes, m)[k, :, k, :] -= np.asarray(p.hess(inner)).reshape(nodes, m, m)
    try:
        np.linalg.cholesky(-J)
    except np.linalg.LinAlgError:
        _smooth(u, p, lvl, f, _COARSEST_SWEEPS, a, g)
        return False
    F = a[:, 1:-1]
    inner += np.linalg.solve(J, -F.reshape(-1)).reshape(F.shape)
    return True


def _vcycle(u: np.ndarray, p: Potential, levels: list, f, a, g) -> bool:
    """One FAS V-cycle for Lap_h u - grad W(u) + f = 0 on levels[0], in place;
    (a, g) is _defect(u) when the caller already has it, else (None, None).
    True if the coarsest grid took the Newton step.

    The coarse problem is Lap_H v - grad W(v) + f_H = 0 with
    f_H = R(Lap_h u - grad W(u) + f) - (Lap_H - grad W)(u_hat), where R is
    full weighting and u_hat the injected u (Dirichlet data included); u
    gains the bilinear prolongation of v - u_hat unless that would raise
    the level's energy beyond roundoff, so a cycle keeps the descent of its
    sweeps.  The coarse defect of u_hat, plus f_H, is the coarse level's
    first defect bit for bit, so it goes down with its gradient."""
    lvl = levels[0]
    if len(levels) == 1:
        return _coarsest_solve(u, p, lvl, f, a, g)
    _smooth(u, p, lvl, f, _PRE_SWEEPS, a, g)
    a, g = _defect(u, p, lvl.spacing, f, None)
    u_hat = u[::2, ::2].copy()
    # grad W at the injected interior nodes is the fine gradient's, bit for bit
    a_H, g_H = _defect(u_hat, p, levels[1].spacing, None, None if g is None else g[1::2, ::2])
    f_H = _restrict(a[:, 1:-1]) - a_H[:, 1:-1]
    a_H[:, 1:-1] += f_H
    v = u_hat.copy()
    newton = _vcycle(v, p, levels[1:], f_H, a_H, g_H)
    trial = u + _prolong(v - u_hat, u.shape)
    e = _level_energy(u, p, lvl.spacing, f)
    # `<=` is False on nan, so a correction that overflowed is dropped too
    if _level_energy(trial, p, lvl.spacing, f) <= e + _ENERGY_ROUNDOFF * max(1.0, abs(e)):
        u[...] = trial
    _smooth(u, p, lvl, f, _POST_SWEEPS, None, None)
    return newton


def relax(p: Potential, cfg: RelaxConfig, init: GridField | None = None) -> RelaxResult:
    """Run FAS multigrid cycles until the residual drops below cfg.tol, stops
    falling for _STALL_CYCLES cycles, or cfg.max_iters cycles elapse.  On a
    grid that cannot coarsen a cycle is one sweep of the damped flow.  Sweeps
    update the two checkerboard colors in a fixed order, so runs are
    bit-reproducible.

    The start is cfg.boundary sampled on the grid; an `init` replaces its
    interior, and the Dirichlet data stays on the edges."""
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
    b = cfg.boundary
    if not (isinstance(b, ClosedFormField) and b.n == 2 and b.m == p.m):
        got = f"{b.name} (n = {b.n}, m = {b.m})" if isinstance(b, ClosedFormField) else type(b).__name__
        raise ValueError(f"boundary must be a closed-form field on the plane (n = 2) with the"
                         f" potential's m = {p.m} components, got {got}")
    h1, h2 = cfg.spacing
    m = p.m

    pts = np.stack(np.meshgrid(*cfg.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    u = b.values(pts).reshape(n1, n2, m).astype(float)
    if init is not None:
        if init.values.shape != (n1, n2, m):
            raise ValueError("init shape does not match the configured grid")
        u[1:-1, 1:-1] = init.values[1:-1, 1:-1]

    lo = u.reshape(-1, m).min(axis=0) - _VALUE_MARGIN
    hi = u.reshape(-1, m).max(axis=0) + _VALUE_MARGIN
    L = stiffness_bound(p, lo, hi)
    levels = _hierarchy((n1, n2), (h1, h2), m, L)
    fine = levels[0]

    energies = []
    residuals = []
    e_prev = flow_energy(u, p, (h1, h2))
    converged = False
    best, since_best = math.inf, 0
    newton_steps = 0
    # defect of u and its grad W, carried from one cycle's residual into the next sweep
    a = g = None
    for cycles in range(1, cfg.max_iters + 1):
        if len(levels) == 1:
            _smooth(u, p, fine, None, 1, a, g)
        else:
            newton_steps += _vcycle(u, p, levels, None, a, g)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise RelaxError(f"values blew up after {cycles} cycles")
        e_now = flow_energy(u, p, (h1, h2))
        if e_now > e_prev + 1e-12 * max(1.0, abs(e_prev)):
            raise RelaxError(
                f"flow energy increased at cycle {cycles}: {e_prev!r} -> {e_now!r}"
            )
        a, g = _defect(u, p, fine.spacing, None, None)
        r = float(np.max(np.abs(a[:, 1:-1])))
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
              "cycles": cycles, "levels": len(levels)},
    )
    return RelaxResult(
        field=g,
        iterations=cycles,
        converged=converged,
        tau=fine.tau,
        residuals=np.asarray(residuals),
        energies=np.asarray(energies),
        levels=len(levels),
        newton_steps=newton_steps,
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
