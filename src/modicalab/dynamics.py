"""Hamiltonian dynamics for the traveling-coordinate ODE u'' = grad W(u).

The conserved quantity throughout is H = |u'|^2 / 2 - W(u) (note the minus
sign: the system is Newtonian in the inverted potential -W).  Orbits are
integrated with position Verlet, which preserves H up to a bounded O(dt^2)
oscillation, so a drift check is a meaningful diagnostic of step size:
integration raises when max |H - H_0| exceeds its `drift_tol`.

Two loops take the steps.  `integrate_many` advances a batch of B starting
states together as one (B, m) state through numpy calls.  `integrate` steps
one planar start on Python floats when the potential's gradient carries a
point kernel, as the catalog's `ginzburg_landau` with m = 2 does: on a
single point numpy's per-call overhead is most of a step's cost, and the
float step has none.  Any other start is the batch loop's single-start
case.  Both loops do the same IEEE additions and multiplications in the
same order and test for blow-up at the same steps, so a trajectory is
bit-identical whichever loop computes it, alone or in a batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import smooth
from .potentials import Potential, _sum_columns

__all__ = [
    "PhasePoint",
    "Trajectory",
    "OrbitFamily",
    "BlowUpError",
    "integrate",
    "integrate_many",
    "orbit_family",
    "shoot_heteroclinic",
]


@dataclass(frozen=True)
class PhasePoint:
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, float)))
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have the same shape")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled phase trajectory with its Hamiltonian series."""

    times: np.ndarray  # (k+1,)
    u: np.ndarray  # (k+1, m)
    v: np.ndarray  # (k+1, m)
    H: np.ndarray  # (k+1,)

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def drift(self) -> float:
        return float(np.max(np.abs(self.H - self.H[0])))

    def save(self, path) -> None:
        """The rows t, u_1..u_m, v_1..v_m, H as one C-ordered float64 `.npy`
        array at path, and their column names in the sidecar `path.json`."""
        m = self.m
        columns = ["t"] + [f"u_{j+1}" for j in range(m)] + [f"v_{j+1}" for j in range(m)] + ["H"]
        with open(path, "wb") as fh:
            np.save(fh, np.column_stack([self.times, self.u, self.v, self.H]), allow_pickle=False)
        with open(f"{path}.json", "w") as fh:
            json.dump({"columns": columns}, fh, indent=1)
            fh.write("\n")


class BlowUpError(RuntimeError):
    """Raised when the integration leaves the trusted region; carries the
    portion of the trajectory computed before the blow-up."""

    def __init__(self, message, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def _trajectory(p, times, uu, vv):
    """The trajectory through the samples (uu, vv), with H = 0.5|v|^2 - W(u)."""
    H = 0.5 * _sum_columns(vv * vv) - p.w(uu)
    return Trajectory(times=times, u=uu, v=vv, H=H)


# A coordinate past _BLOWUP, inf or nan ends an integration; the test runs
# once per block of _BLOCK steps.
_BLOWUP = 1e6
_BLOCK = 256


def _check_arguments(dt, steps, drift_tol) -> None:
    if not (dt > 0 and steps >= 1 and drift_tol >= 0):
        raise ValueError("need dt > 0, steps >= 1 and drift_tol >= 0")


def _which(i: int, B: int) -> str:
    return f"trajectory {i}: " if B > 1 else ""


def _close_block(p, dt, uu, vv, H, lo, hi) -> None:
    """Raise BlowUpError for the first step in lo < k <= hi of the (steps + 1,
    B, m) samples whose state leaves [-_BLOWUP, _BLOWUP]^m, naming its first
    failing trajectory and attaching that trajectory's valid prefix; else
    write H = 0.5|v|^2 - W(u), _trajectory's bits, into entries lo..hi of
    each trajectory's H array (one (steps + 1, B) buffer raised peak memory)."""
    inside = np.abs(uu[lo + 1 : hi + 1]) <= _BLOWUP  # False on inf and nan as well
    if inside.all():
        v = vv[lo : hi + 1]
        rows = 0.5 * _sum_columns(v * v) - p.w(uu[lo : hi + 1])
        for i, Hi in enumerate(H):
            Hi[lo : hi + 1] = rows[:, i]
        return
    rows = inside.all(axis=2)
    j = int(np.argmin(rows.all(axis=1)))
    k, i = lo + 1 + j, int(np.argmin(rows[j]))
    partial = _trajectory(p, dt * np.arange(k), uu[:k, i], vv[:k, i])
    raise BlowUpError(_which(i, uu.shape[1]) + f"blow-up at step {k} (t = {k * dt:g})", partial)


def _trajectories(dt, uu, vv, H, drift_tol) -> list[Trajectory]:
    """The trajectories of the (steps + 1, B, m) samples and H arrays; raises
    BlowUpError for the first whose energy drift exceeds drift_tol."""
    times = dt * np.arange(uu.shape[0])
    B = uu.shape[1]
    trajectories = [Trajectory(times, uu[:, i], vv[:, i], H[i]) for i in range(B)]
    for i, traj in enumerate(trajectories):
        if traj.drift() > drift_tol:
            raise BlowUpError(_which(i, B) + f"energy drift {traj.drift():.3e} > drift_tol {drift_tol:g}", traj)
    return trajectories


def integrate_many(
    p: Potential,
    starts,
    dt: float,
    steps: int,
    drift_tol: float = 1e-6,
) -> list[Trajectory]:
    """Position-Verlet integration of u'' = grad W(u) from every start at once.

    The B starting states advance together as one (B, m) state through numpy
    calls, and each returned trajectory is bit-identical to its run on its
    own, by this loop or by `integrate`'s loop on floats: the update is
    elementwise per row, and a potential evaluates each point on its own.
    Each step is written in place into row k of time-major (steps + 1, B, m)
    buffers, so every Trajectory's u and v are views of them, with no copy
    (contiguous when B = 1), and its H is taken a 256-step block at a time.
    The kick dt grad W is written into one (B, m) buffer by the gradient's
    batch kernel (`_grad.kernel`), or else copied from `p.grad`.

    Raises BlowUpError at the first step where a coordinate of a trajectory
    leaves [-1e6, 1e6] or stops being finite, attaching that trajectory's valid
    prefix, and after the last step for the first trajectory whose energy
    drift max |H - H_0| exceeds `drift_tol`, attaching the whole trajectory.
    With more than one start the message names the trajectory's index.
    Steps run in blocks of 256 with one blow-up test per block, so a block
    runs on past a blow-up, with floating-point warnings silenced, before
    the test reports its first failing step.
    """
    _check_arguments(dt, steps, drift_tol)
    starts = list(starts)
    if not starts:
        raise ValueError("need at least one starting state")
    m = starts[0].u.size
    if any(s.u.size != m for s in starts):
        raise ValueError("all starting states must have the same dimension m")
    uu = np.empty((steps + 1, len(starts), m))
    vv = np.empty((steps + 1, len(starts), m))
    H = [np.empty(steps + 1) for _ in starts]
    uu[0] = [s.u for s in starts]
    vv[0] = [s.v for s in starts]
    u, v = uu[0], vv[0]
    if hasattr(p._grad, "kernel"):
        grad_into = p._grad.kernel(p._check(u).shape)  # the kernel checks no shape
    else:
        def grad_into(x, out):
            out[...] = p.grad(x)
    add, multiply = np.add, np.multiply
    dt64, half = np.array(dt, float), np.array(0.5 * dt, float)  # 0-d: a scalar is converted each call
    half_v = half * v  # the last half-drift's product is the next half-kick's
    u_mid, kick = np.empty_like(u), np.empty_like(u)
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        try:
            with np.errstate(all="ignore"):
                for k in range(lo + 1, hi + 1):
                    add(u, half_v, u_mid)
                    grad_into(u_mid, kick)
                    multiply(kick, dt64, kick)
                    v = add(v, kick, vv[k])
                    multiply(half, v, half_v)
                    u = add(u_mid, half_v, uu[k])
        except Exception:
            # the potential may fail on the values computed past a blow-up,
            # and then the blow-up is the result, as the per-step test gave
            _close_block(p, dt, uu, vv, H, lo, k - 1)
            raise
        _close_block(p, dt, uu, vv, H, lo, hi)
    return _trajectories(dt, uu, vv, H, drift_tol)


def integrate(
    p: Potential,
    start: PhasePoint,
    dt: float,
    steps: int,
    drift_tol: float = 1e-6,
) -> Trajectory:
    """Position-Verlet integration of u'' = grad W(u) for `steps` steps.

    Returns the synchronized (u_k, v_k) samples at t_k = k dt together with
    the measured Hamiltonian series.  Raises BlowUpError when the state
    leaves [-1e6, 1e6]^m or stops being finite, attaching the valid prefix,
    and when the energy drift exceeds `drift_tol`, as `integrate_many` does.

    A planar start on a potential whose gradient offers a point kernel
    (`p.grad` of a tuple of floats returns a tuple, as for the catalog's
    `ginzburg_landau` with m = 2) steps on Python floats, the same IEEE
    operations in the same order as `integrate_many`'s loop, and copies
    each 256-step block into the same (steps + 1, 1, 2) buffers before the
    same blow-up test and H, so the trajectory is bit-identical to its row
    there, blow-up and drift errors included.  Every other start is
    `integrate_many`'s single-start case.
    """
    if p.m != 2 or start.u.size != 2 or not hasattr(p._grad, "point"):
        return integrate_many(p, [start], dt, steps, drift_tol)[0]
    _check_arguments(dt, steps, drift_tol)
    # Python floats throughout: a numpy scalar would bring back numpy's
    # per-operation overhead
    grad, dt = p.grad, float(dt)
    half = 0.5 * dt
    uu = np.empty((steps + 1, 1, 2))
    vv = np.empty((steps + 1, 1, 2))
    H = [np.empty(steps + 1)]
    uu[0, 0], vv[0, 0] = start.u, start.v
    x, y = start.u.tolist()
    vx, vy = start.v.tolist()
    hx, hy = half * vx, half * vy  # the last half-drift's product is the next half-kick's
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        # the block's coordinates, copied into rows lo + 1 .. hi after it
        block_u, block_v = [], []
        put_u, put_v = block_u.append, block_v.append
        # past a blow-up, floats run on through inf and nan without raising
        for _ in range(lo, hi):
            x += hx
            y += hy
            gx, gy = grad((x, y))
            vx += dt * gx
            vy += dt * gy
            hx = half * vx
            hy = half * vy
            x += hx
            y += hy
            put_u(x)
            put_u(y)
            put_v(vx)
            put_v(vy)
        uu[lo + 1 : hi + 1] = np.reshape(block_u, (-1, 1, 2))
        vv[lo + 1 : hi + 1] = np.reshape(block_v, (-1, 1, 2))
        _close_block(p, dt, uu, vv, H, lo, hi)
    return _trajectories(dt, uu, vv, H, drift_tol)[0]


@dataclass(frozen=True)
class OrbitFamily:
    """Circular orbit u_R(x) = R (cos x sqrt(1-R^2), sin x sqrt(1-R^2)) of the
    quartic radial well, with its conserved quantities in closed form."""

    R: float
    lam: float
    mu: float
    period: float
    H: float

    def start_state(self) -> PhasePoint:
        omega = math.sqrt(self.mu)
        return PhasePoint(np.array([self.R, 0.0]), np.array([0.0, self.R * omega]))


def orbit_family(R: float) -> OrbitFamily:
    if not 0.0 < R < 1.0:
        raise ValueError(f"orbit family needs 0 < R < 1, got {R}")
    lam = 0.25 * (R**2 - 1.0) ** 2
    mu = 1.0 - R**2
    H = (-3.0 * R**4 + 4.0 * R**2 - 1.0) / 4.0
    return OrbitFamily(R=R, lam=lam, mu=mu, period=2.0 * math.pi / math.sqrt(mu), H=H)


def shoot_heteroclinic(p: Potential, a_minus, a_plus, dt: float = 1e-3) -> Trajectory:
    """Scalar connection between adjacent zeros via the equipartition reduction.

    On a monotone heteroclinic the Hamiltonian vanishes, so u' = sqrt(2 W(u)),
    and the time to go from the midpoint of (a-, a+) to u is a quadrature.
    On each side the substitution u = a - (a - mid) e^(-sigma) turns the
    logarithmic singularity at the well a into a smooth, bounded integrand on
    uniform sigma panels, up to sigma = log(|a - mid| / tol), i.e. to within
    tol = 1e-10 of the well.  The uniform time grid is inverted by Newton in
    sigma and clamped beyond the wells.

    Raises if W vanishes somewhere strictly between the wells (no connection)
    or if either side needs more time than max_span = 60 (a degenerate well).
    """
    tol, max_span = 1e-10, 60.0
    if p.m != 1:
        raise ValueError("heteroclinic shooting is implemented for scalar potentials")
    a_minus = float(np.atleast_1d(a_minus)[0])
    a_plus = float(np.atleast_1d(a_plus)[0])
    if not a_minus < a_plus:
        raise ValueError("need a_minus < a_plus")
    for a in (a_minus, a_plus):
        if abs(p.w(np.array([a]))) > 1e-12:
            raise ValueError(f"W({a}) != 0: endpoints must be zeros of the potential")
    interior = np.linspace(a_minus, a_plus, 2001)[1:-1][:, None]
    wmin = float(np.min(p.w(interior)))
    if wmin <= 0.0:
        raise ValueError("potential vanishes between the wells; no monotone connection")

    mid = 0.5 * (a_minus + a_plus)

    def side(a):
        """u(sigma) and the time table t(sigma) on the side of the well a."""
        def u_of(sigma):
            return a - (a - mid) * np.exp(-sigma)

        def dt_dsigma(sigma):
            return abs(a - mid) * np.exp(-sigma) / np.sqrt(2.0 * p.w(u_of(sigma)[..., None]))

        def dt_dsigma_d(sigma):
            # d/dsigma of log(dt/dsigma) is -1 - W'(u) u'(sigma) / (2 W(u))
            u = u_of(sigma)[..., None]
            f = dt_dsigma(sigma)
            return -f - f * p.grad(u)[..., 0] * (a - mid) * np.exp(-sigma) / (2.0 * p.w(u))

        clock = smooth._PanelIntegral(dt_dsigma, dt_dsigma_d, 0.0, math.log(abs(a - mid) / tol), 4096)
        span = float(clock.total)
        if not span <= max_span:
            raise RuntimeError(f"connection did not reach the wells within max_span: {span:.3e} > {max_span:g}")
        return u_of, clock

    (u_minus, c_minus), (u_plus, c_plus) = side(a_minus), side(a_plus)
    n_neg = int(math.ceil(float(c_minus.total) / dt))
    n_pos = int(math.ceil(float(c_plus.total) / dt))
    times = dt * np.arange(-n_neg, n_pos + 1)
    neg = times < 0.0
    uu = np.empty((times.size, 1))
    uu[neg, 0] = u_minus(c_minus.inverse(np.minimum(-times[neg], c_minus.total)))
    uu[~neg, 0] = u_plus(c_plus.inverse(np.minimum(times[~neg], c_plus.total)))
    vv = np.sqrt(2.0 * np.clip(p.w(uu), 0.0, None))[:, None]
    return _trajectory(p, times, uu, vv)
