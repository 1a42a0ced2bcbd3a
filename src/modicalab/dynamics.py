"""Hamiltonian dynamics for the traveling-coordinate ODE u'' = grad W(u).

The conserved quantity throughout is H = |u'|^2 / 2 - W(u) (note the minus
sign: the system is Newtonian in the inverted potential -W).  Orbits are
integrated with position Verlet, which preserves H up to a bounded O(dt^2)
oscillation, so a drift check is a meaningful diagnostic of step size:
integration raises when max |H - H_0| exceeds its `drift_tol`.  One loop,
`integrate_many`, advances a batch of starting states together; `integrate`
is its single-start case, and batching changes no trajectory by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smooth
from .potentials import Potential

__all__ = [
    "PhasePoint",
    "Trajectory",
    "OrbitFamily",
    "BlowUpError",
    "hamiltonian",
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
    drift_tol: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def drift(self) -> float:
        return float(np.max(np.abs(self.H - self.H[0])))

    def state(self, k: int) -> PhasePoint:
        return PhasePoint(self.u[k], self.v[k])

    def to_csv(self, path: str) -> None:
        """Rows t, u_1..u_m, v_1..v_m, H with repr floats and CRLF line ends,
        written 1024 rows at a time."""
        m = self.m
        header = ["t"] + [f"u_{j+1}" for j in range(m)] + [f"v_{j+1}" for j in range(m)] + ["H"]
        rows = np.column_stack([self.times, self.u, self.v, self.H])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, len(rows), 1024):
                fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows[lo : lo + 1024].tolist()))


class BlowUpError(RuntimeError):
    """Raised when the integration leaves the trusted region; carries the
    portion of the trajectory computed before the blow-up."""

    def __init__(self, message, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def hamiltonian(p: Potential, s: PhasePoint) -> float:
    return float(0.5 * np.sum(s.v**2) - p.w(s.u))


def _trajectory(p, times, uu, vv, drift_tol):
    H = 0.5 * np.sum(vv**2, axis=1) - p.w(uu)
    return Trajectory(times=times, u=uu, v=vv, H=H, drift_tol=drift_tol)


def integrate_many(
    p: Potential,
    starts,
    dt: float,
    steps: int,
    drift_tol: float = 1e-6,
    blowup: float = 1e6,
) -> list[Trajectory]:
    """Position-Verlet integration of u'' = grad W(u) from every start at once.

    The B starting states advance together as one (B, m) state, and each
    returned trajectory is bit-identical to its run on its own: the update
    is elementwise per row, and a potential evaluates each point on its
    own.  The run is recorded in (B, steps + 1, m) buffers, so every
    Trajectory's u and v are contiguous views.

    Raises BlowUpError at the first step where a trajectory leaves
    |u| <= blowup or stops being finite, attaching that trajectory's valid
    prefix, and after the last step for the first trajectory whose energy
    drift max |H - H_0| exceeds `drift_tol`, attaching the whole trajectory.
    With more than one start the message names the trajectory's index.
    """
    if not (dt > 0 and steps >= 1 and drift_tol >= 0):
        raise ValueError("need dt > 0, steps >= 1 and drift_tol >= 0")
    starts = list(starts)
    if not starts:
        raise ValueError("need at least one starting state")
    m = starts[0].u.size
    if any(s.u.size != m for s in starts):
        raise ValueError("all starting states must have the same dimension m")
    B = len(starts)

    def which(i):
        return f"trajectory {i}: " if B > 1 else ""

    uu = np.empty((B, steps + 1, m))
    vv = np.empty((B, steps + 1, m))
    u = np.array([s.u for s in starts])
    v = np.array([s.v for s in starts])
    uu[:, 0], vv[:, 0] = u, v
    half = 0.5 * dt
    for k in range(1, steps + 1):
        u_mid = u + half * v
        v = v + dt * p.grad(u_mid)
        u = u_mid + half * v
        inside = np.abs(u) <= blowup  # False on inf and nan as well
        if not inside.all():
            i = int(np.argmin(inside.all(axis=1)))
            partial = _trajectory(p, dt * np.arange(k), uu[i, :k], vv[i, :k], drift_tol)
            raise BlowUpError(which(i) + f"blow-up at step {k} (t = {k * dt:g})", partial)
        uu[:, k], vv[:, k] = u, v
    times = dt * np.arange(steps + 1)
    trajectories = [_trajectory(p, times, uu[i], vv[i], drift_tol) for i in range(B)]
    for i, traj in enumerate(trajectories):
        if traj.drift() > drift_tol:
            raise BlowUpError(which(i) + f"energy drift {traj.drift():.3e} > drift_tol {drift_tol:g}", traj)
    return trajectories


def integrate(
    p: Potential,
    start: PhasePoint,
    dt: float,
    steps: int,
    drift_tol: float = 1e-6,
    blowup: float = 1e6,
) -> Trajectory:
    """Position-Verlet integration of u'' = grad W(u) for `steps` steps.

    Returns the synchronized (u_k, v_k) samples at t_k = k dt together with
    the measured Hamiltonian series.  Raises BlowUpError when the state
    leaves |u| <= blowup or stops being finite, attaching the valid prefix,
    and when the energy drift exceeds `drift_tol` (see `integrate_many`).
    """
    return integrate_many(p, [start], dt, steps, drift_tol, blowup)[0]


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


def shoot_heteroclinic(
    p: Potential,
    a_minus,
    a_plus,
    tol: float = 1e-10,
    dt: float = 1e-3,
    max_span: float = 60.0,
) -> Trajectory:
    """Scalar connection between adjacent zeros via the equipartition reduction.

    On a monotone heteroclinic the Hamiltonian vanishes, so u' = sqrt(2 W(u)),
    and the time to go from the midpoint of (a-, a+) to u is a quadrature.
    On each side the substitution u = a - (a - mid) e^(-sigma) turns the
    logarithmic singularity at the well a into a smooth, bounded integrand on
    uniform sigma panels, up to sigma = log(|a - mid| / tol), i.e. to within
    `tol` of the well.  The uniform time grid is inverted by Newton in sigma
    and clamped beyond the wells.

    Raises if W vanishes somewhere strictly between the wells (no connection)
    or if either side needs more time than `max_span` (a degenerate well).
    """
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

        clock = smooth._PanelIntegral(dt_dsigma, 0.0, math.log(abs(a - mid) / tol), panels=256)
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
    H = 0.5 * vv[:, 0] ** 2 - p.w(uu)
    return Trajectory(times=times, u=uu, v=vv, H=H, drift_tol=tol)
