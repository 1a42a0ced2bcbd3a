"""System-level battery: one test per advertised guarantee of the package.

Each test states a verifiable quantitative claim about the assembled objects
(the periodic connection, the orbit family, the derived constants, the planar
identities, the command-line suite) at the tolerance the claim is made.
"""

import math
import subprocess
import sys
import time

import numpy as np

from modicalab import counterexample as cx
from modicalab import dynamics, estimates, fields, planar, potentials, solver

GL2 = potentials.make_potential("ginzburg_landau", m=2)


def _circle_trajectory(R, n=2001, span=6.0):
    """Closed-form circular orbit sampled on a uniform grid."""
    omega = math.sqrt(1.0 - R * R)
    t = np.linspace(0.0, span, n)
    u = R * np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
    v = R * omega * np.stack([-np.sin(omega * t), np.cos(omega * t)], axis=1)
    H = 0.5 * np.sum(v**2, axis=1) - np.asarray(GL2.w(u))
    return dynamics.Trajectory(times=t, u=u, v=v, H=H)


def _exp_modes():
    """Two exponential modes solving Lap u = u; genuinely two-dimensional."""
    a = np.array([math.cos(0.3), math.sin(0.3)])
    b = np.array([math.cos(1.2), math.sin(1.2)])

    def derivatives(X):
        e = values(X)  # (..., 2): the two modes
        modes = np.stack([a, b])
        return e[..., None] * modes, e[..., None, None] * np.einsum("ki,kj->kij", modes, modes)

    def values(X):
        X = np.asarray(X, float)
        return np.stack([np.exp(X @ a), 0.5 * np.exp(X @ b)], axis=-1)

    return fields.ClosedFormField("exp_modes", 2, 2, {}, derivatives, values)


def test_c01_periodic_connection_violates_both_bounds(assembled):
    pc = assembled.pc
    report = cx.verify_counterexample(pc)

    assert report["residual_max"] <= 1e-5
    defect = 0.5 * np.sum(pc.v**2, axis=1) - pc.potential.w(pc.u)
    assert float(np.max(np.abs(defect - 0.125))) <= 1e-7

    assert np.max(np.abs(pc.u[0] - np.array([2.0, 0.0]))) <= 1e-7
    u_half, _ = pc.orbit(np.array([0.5 * pc.T]))
    assert np.max(np.abs(u_half[0] - np.array([-2.0, 0.0]))) <= 1e-7
    assert float(pc.potential.w(pc.u[0])) == 0.0

    assert report["liouville_violated"]
    assert report["checks_pass"]
    assert assembled.seconds <= 10.0


def test_c02_hamiltonian_family_matches_closed_form():
    radii = np.arange(0.1, 0.95, 0.1)
    fams = [dynamics.orbit_family(float(R)) for R in radii]
    periods = [int(math.ceil(fam.period / 1e-3)) for fam in fams]
    # one batched run as long as the longest period; each orbit is checked on
    # its own one-period prefix, which is bitwise its unbatched integrate run
    runs = dynamics.integrate_many(
        GL2, [fam.start_state() for fam in fams], 1e-3, max(periods), drift_tol=math.inf
    )
    for R, steps, run in zip(radii, periods, runs):
        expected = (-3.0 * R**4 + 4.0 * R**2 - 1.0) / 4.0
        k = steps + 1
        traj = dynamics.Trajectory(run.times[:k], run.u[:k], run.v[:k], run.H[:k])
        assert float(np.max(np.abs(traj.H - expected))) <= 1e-8
        assert traj.drift() <= 1e-8

    third = 1.0 / 3.0
    assert abs(dynamics.orbit_family(math.sqrt(third)).H) <= 1e-15
    assert dynamics.orbit_family(math.sqrt(third - 1e-6)).H < 0.0
    assert dynamics.orbit_family(math.sqrt(third + 1e-6)).H > 0.0


def test_c03_radial_well_bound_is_sharp_as_r_tends_to_one():
    margins = {}
    for R in (0.9, 0.99):
        f = fields.make_field("gl_circle", R=R)
        expected = 0.5 * (1.0 - R * R) ** 2
        sampled = [estimates.gl_pointwise_bound(f.jets(np.array([x])))
                   for x in np.linspace(-3.0, 3.0, 21)]
        assert max(abs(m - expected) for m in sampled) <= 1e-10
        margins[R] = expected
    assert 0.0 < margins[0.99] < margins[0.9]


def test_c04_refined_kinetic_equality_and_barrier():
    # pointwise equality of kinetic energy and |u|^2 sqrt(W) on fast orbits
    for r_sq in (2.0 / 3.0, 0.75, 0.9):
        traj = _circle_trajectory(math.sqrt(r_sq))
        kin = 0.5 * np.sum(traj.v**2, axis=1)
        rhs = np.sum(traj.u**2, axis=1) * np.sqrt(np.asarray(GL2.w(traj.u)))
        assert float(np.max(np.abs(kin - rhs))) <= 1e-10
        report = estimates.ode_bound_check(traj, GL2, tol=1e-10)
        assert report.verdict == "holds"

    # the family's Hamiltonian is capped at 1/12, attained at R^2 = 2/3
    grid = np.concatenate([np.linspace(0.05, 0.995, 2001), [math.sqrt(2.0 / 3.0)]])
    H = np.array([dynamics.orbit_family(float(R)).H for R in grid])
    assert float(np.max(H)) <= 1.0 / 12.0 + 1e-12
    assert abs(dynamics.orbit_family(math.sqrt(2.0 / 3.0)).H - 1.0 / 12.0) <= 1e-12

    # barrier family: exact plateau contact, uniform convergence to the limit
    sups = []
    for eps in (1.0 / 12.0, 0.05, 0.02, 0.01):
        barrier = estimates.PhiBarrier(eps=eps)
        stats = barrier.validate()
        assert stats["plateau_left_exact"] == 0.0
        assert stats["plateau_right_exact"] == 0.0
        sups.append(barrier.sup_deviation())
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 0.05


def test_c05_derived_constants_and_bound_ordering():
    ball = estimates.ball_confinement_check(GL2, None, R=1.0).constants
    assert abs(ball["kappa"] - 1.0) <= 1e-3
    assert abs(ball["mu"] - 1.0) <= 1e-3

    cfg = estimates.DiagonalSystemConfig(D=np.ones(2), A=np.eye(2), M=1.0)
    lam = estimates.diagonal_system_check(cfg, g=None).constants["lambda"]
    assert abs(lam - 5.0) <= 1e-6  # 2m + 1 with m = 2

    # the GL right-hand sides, sharpest first: (1/2)(1-|u|^2) from the radial
    # bound, C (1-|u|^2) from ball confinement, (lam/2)(1-|u|^2) from 3.1
    assert 0.5 <= ball["C"] <= lam / 2.0


def test_c06_convex_well_floor_on_small_orbit():
    dw = potentials.make_potential("double_well")
    traj = dynamics.integrate(
        dw, dynamics.PhasePoint([0.2], [0.0]), 1e-3, 7000, drift_tol=math.inf
    )
    report = estimates.convex_well_check(dw, traj, tol=1e-7)
    eps, S = report.constants["eps"], report.constants["S"]
    assert abs(eps - 1.0 / 9.0) <= 1e-6
    assert 0.0 < S < 2.0 * eps
    assert report.constants["condition_met"]
    assert report.verdict == "holds"
    assert report.worst_margin >= -1e-7


def test_c07_planar_identities_and_second_order_decay():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        u = rng.normal(size=2)
        du = rng.normal(size=(2, 2))
        s = rng.normal(size=(2, 2, 2))
        jet = fields.Jet2(x=rng.normal(size=2), u=u, du=du,
                          d2u=0.5 * (s + np.swapaxes(s, 1, 2)))
        w = float(GL2.w(u))
        T = planar.stress_tensor(jet, GL2)
        assert abs(np.trace(T) + 2.0 * w) <= 1e-12
        assert abs(np.trace(planar.hessian_U(jet, GL2)) - 4.0 * w) <= 1e-12

    # div T on relaxed (not sampled) solution fields decays at second order
    bdry = fields.make_field("harmonic_linear_map")

    def relaxed(h):
        n = int(round(1.0 / h)) + 1
        cfg = solver.RelaxConfig(
            origin=(-0.5, -0.5), spacing=(h, h), shape=(n, n),
            boundary=bdry, max_iters=400_000, tol=1e-10,
        )
        result = solver.relax(GL2, cfg)
        assert result.converged
        return result.field

    pair = planar.divergence_pair(relaxed, GL2, 0.05, margin=0.15)
    assert 3.5 <= pair["ratio"] <= 4.5

    # path-independence defect of the U reconstruction is O(h^2)
    f = _exp_modes()
    q = potentials.make_potential("quadratic", m=2)
    defects = []
    for h in (0.025, 0.0125):
        n = int(round(2.0 / h)) + 1
        g = fields.sample_field(f, origin=(-1.0, -1.0), spacing=(h, h), extents=(n, n))
        defects.append(planar.reconstruct_U(g, q, gate=1.0).path_defect)
    assert 3.2 <= defects[0] / defects[1] <= 4.8


def test_c08_convexity_dichotomy():
    dw = potentials.make_potential("double_well")
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.uniform(-2.0, 2.0, size=1)
        w = float(dw.w(u))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        scale = rng.uniform(0.0, 1.0)
        du = (direction * math.sqrt(2.0 * w * scale))[None, :]  # 0.5|du|^2 <= W
        s = rng.normal(size=(1, 2, 2))
        jet = fields.Jet2(x=rng.normal(size=2), u=u, du=du,
                          d2u=0.5 * (s + np.swapaxes(s, 1, 2)))
        assert planar.convexity_margin(jet, dw) >= 0.0

    violating = fields.Jet2(
        x=np.zeros(2), u=np.array([0.0]),  # W(0) = 1/4
        du=np.array([[1.0, 0.0]]),  # 0.5|du|^2 = 1/2 > 1/4
        d2u=np.zeros((1, 2, 2)),
    )
    assert planar.convexity_margin(violating, dw) < 0.0

    for r_sq, expected in ((0.3, True), (0.5, False)):
        f = fields.make_field("gl_circle_planar", R=math.sqrt(r_sq))
        margin = planar.convexity_margin(f.jets(np.array([0.2, -1.4])), GL2)
        assert bool(margin >= 0.0) is expected


def test_c09_green_identity_and_monotone_profiles():
    circle = fields.make_field("gl_circle_planar", R=0.5)
    result = planar.green_boundary_identity(circle, GL2, (0.0, 0.0), 1.0)
    assert result["boundary_nodes"] == 256 and result["rule_order"] == 64
    assert result["defect"] <= 1e-6

    dw = potentials.make_potential("double_well")
    tanh = fields.make_field("tanh_planar")
    result = planar.green_boundary_identity(tanh, dw, (0.3, -0.2), 1.2)
    assert result["defect"] <= 1e-6

    radii = np.linspace(0.25, 2.0, 8)
    prof = planar.monotonicity_profile("potential", tanh, dw, (0.0, 0.0), radii)
    assert prof.is_monotone()

    exact = planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), radii)
    expected = 4.0 * math.pi * np.asarray(exact.radii)
    assert float(np.max(np.abs(np.asarray(exact.values) - expected))) <= 1e-10


def test_c10_suite_is_deterministic_and_fast(tmp_path):
    outputs = []
    for d in ("one", "two"):
        out = tmp_path / d
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "modicalab.cli", "suite", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed <= 120.0
        artifacts = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert artifacts
        outputs.append((proc.stdout, artifacts))

    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
