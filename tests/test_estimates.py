import math

import numpy as np
import pytest

from modicalab import dynamics, estimates, fields, potentials

GL = potentials.make_potential("ginzburg_landau", m=2)
DW = potentials.make_potential("double_well")


def _circle_trajectory(R, n=2001, span=6.0):
    """Closed-form samples of the circular orbit (no integrator error)."""
    omega = math.sqrt(1.0 - R * R)
    t = np.linspace(0.0, span, n)
    u = R * np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
    v = R * omega * np.stack([-np.sin(omega * t), np.cos(omega * t)], axis=1)
    H = 0.5 * np.sum(v**2, axis=1) - GL.w(u)
    return dynamics.Trajectory(times=t, u=u, v=v, H=H)


# ---------------------------------------------------------------------------
# pointwise quantities


def test_modica_defect_on_circle_jets():
    """The gradient excess of u_R equals the orbit Hamiltonian (1-R^2)(3R^2-1)/4."""
    for R in (0.3, 0.5, 0.9):
        f = fields.make_field("gl_circle", R=R)
        j = f.jets(np.array([0.4]))
        expected = (1.0 - R * R) * (3.0 * R * R - 1.0) / 4.0
        assert abs(estimates.modica_defect(j, GL) - expected) < 1e-14


def test_modica_defect_sign_dichotomy():
    f_low = fields.make_field("gl_circle", R=math.sqrt(0.2))
    f_high = fields.make_field("gl_circle", R=math.sqrt(0.5))
    assert estimates.modica_defect(f_low.jets(np.array([0.0])), GL) < 0.0
    assert estimates.modica_defect(f_high.jets(np.array([0.0])), GL) > 0.0


def test_gl_pointwise_bound_margin():
    for R in (0.9, 0.99):
        f = fields.make_field("gl_circle", R=R)
        j = f.jets(np.array([1.3]))
        assert abs(estimates.gl_pointwise_bound(j) - 0.5 * (1.0 - R * R) ** 2) < 1e-12


def test_gl_p_residual_on_sampled_circle_grid():
    h = 0.02
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.8), (0.0, 0.0), (h, h), (41, 9))
    resid = estimates.gl_p_residual(g)
    # the inequality gap equals the squared-curvature term, so up to O(h^2) noise
    assert float(np.min(resid)) > -1e-4


def test_gl_p_residual_gates_on_solutions():
    g = fields.sample_field(fields.make_field("product_saddle"), (0.0, 0.0), (0.1, 0.1), (9, 9))
    with pytest.raises(estimates.HypothesisError, match="not a GL solution"):
        estimates.gl_p_residual(g)


def test_grid_checks_on_a_line_grid():
    """Pointwise bounds take line grids; the P-function residuals need a plane."""
    g = fields.sample_field(fields.make_field("gl_circle", R=0.5), (-1.0,), (0.05,), (41,))
    report = estimates.ball_confinement_check(GL, g, R=1.0)
    assert report.verdict == "holds" and report.samples == 2 * 39
    assert report.constants["confinement_worst"] == pytest.approx(0.75)
    with pytest.raises(ValueError, match="planar"):
        estimates.gl_p_residual(g)


# ---------------------------------------------------------------------------
# diagonal systems


def test_diagonal_config_validation():
    good = estimates.DiagonalSystemConfig(D=np.eye(2), A=np.eye(2))
    good.validate()
    assert good.is_gradient()
    with pytest.raises(estimates.HypothesisError, match="positive diagonal"):
        estimates.DiagonalSystemConfig(D=np.diag([1.0, -1.0]), A=np.eye(2)).validate()
    with pytest.raises(estimates.HypothesisError, match="diagonal"):
        estimates.DiagonalSystemConfig(D=np.array([[1.0, 0.5], [0.5, 1.0]]), A=np.eye(2)).validate()
    with pytest.raises(estimates.HypothesisError, match="hypothesis"):
        estimates.DiagonalSystemConfig(D=np.eye(2), A=-np.eye(2)).validate()
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # sym part vanishes: no coercivity
    with pytest.raises(estimates.HypothesisError, match="coercivity"):
        estimates.DiagonalSystemConfig(D=np.eye(2), A=rotation).validate()


def test_gl_reduction_multiplier_is_five():
    """With D = A = I and M = 1 the sampled multiplier is 2m + 1 = 5 exactly."""
    cfg = estimates.DiagonalSystemConfig(D=np.eye(2), A=np.eye(2), M=1.0)
    lam = cfg.lambda_multiplier()
    assert abs(lam - 5.0) < 1e-12


def test_anisotropic_multiplier_exceeds_reduction():
    cfg = estimates.DiagonalSystemConfig(D=np.diag([1.0, 2.0]), A=np.eye(2), M=1.0)
    cfg.validate()
    assert cfg.lambda_multiplier() > 5.0


def test_diagonal_system_check_vacuous_without_grid():
    cfg = estimates.DiagonalSystemConfig(D=np.eye(2), A=np.eye(2))
    report = estimates.diagonal_system_check(cfg)
    assert report.verdict == "vacuous"
    assert report.constants["gradient_system"] is True
    assert abs(report.constants["lambda"] - 5.0) < 1e-12


def test_diagonal_system_check_on_circle_grid():
    cfg = estimates.DiagonalSystemConfig(D=np.eye(2), A=np.eye(2))
    h = 0.01
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.6), (0.0, 0.0), (h, h), (25, 7))
    report = estimates.diagonal_system_check(cfg, g)
    assert report.verdict == "holds"
    assert report.constants["confinement_worst"] > 0.0


def test_diagonal_p_residual_nonnegative_up_to_h2():
    cfg = estimates.DiagonalSystemConfig(D=np.eye(2), A=np.eye(2))
    h = 0.02
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.8), (0.0, 0.0), (h, h), (41, 9))
    resid = estimates.diagonal_p_residual(g, cfg)
    assert float(np.min(resid)) > -1e-3


# ---------------------------------------------------------------------------
# ball confinement


def test_ball_confinement_gl_constants():
    report = estimates.ball_confinement_check(GL, None, R=1.0)
    assert abs(report.constants["kappa"] - 1.0) < 1e-3
    assert abs(report.constants["mu"] - 1.0) < 1e-3
    assert abs(report.constants["C"] - 1.0) < 1e-3
    assert report.constants["M"] == 1.0
    assert report.verdict == "vacuous"


def test_ball_confinement_on_orbit():
    traj = _circle_trajectory(0.6)
    report = estimates.ball_confinement_check(GL, traj, R=1.0)
    assert report.verdict == "holds"
    # margin at modulus R: C(1-R^2) - 0.5 R^2 (1-R^2) > 0
    assert report.worst_margin > 0.0


def test_ball_confinement_hypothesis_gate():
    zero = potentials.make_potential("zero", m=2)
    with pytest.raises(estimates.HypothesisError, match="condition ball"):
        estimates.ball_confinement_check(zero, None, R=1.0)


# ---------------------------------------------------------------------------
# convex well (scalar)


def test_convex_well_floor_is_one_ninth():
    report = estimates.convex_well_check(DW)
    assert abs(report.constants["eps"] - 1.0 / 9.0) < 1e-9
    assert report.verdict == "vacuous"  # no field supplied
    # nonconvexity boundary at +-1/sqrt(3)
    eps, roots = estimates._convexity_floor_1d(DW)
    assert eps == report.constants["eps"]
    assert len(roots) == 2
    assert all(abs(abs(r) - 1.0 / math.sqrt(3.0)) < 1e-10 for r in roots)


def test_convex_well_small_orbit_estimate():
    start = dynamics.PhasePoint(np.array([0.2]), np.array([0.0]))
    traj = dynamics.integrate(DW, start, 1e-3, 7000)
    report = estimates.convex_well_check(DW, traj)
    assert report.constants["condition_met"]  # S < 2 eps
    assert report.verdict == "holds"
    assert report.worst_margin > -1e-7


def test_convex_well_condition_failure_is_vacuous():
    # the heteroclinic sweeps through the wells where |u'|^2 is too large
    traj = dynamics.shoot_heteroclinic(DW, -1.0, 1.0)
    report = estimates.convex_well_check(DW, traj)
    assert not report.constants["condition_met"]
    assert report.verdict == "vacuous"
    assert "note" in report.constants


# ---------------------------------------------------------------------------
# polygon confinement


def test_polygon_confinement_regular_shapes():
    for N in (3, 4, 6):
        verts = [[math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N)] for k in range(N)]
        report = estimates.polygon_confinement_check(verts, n_samples=200, seed=1)
        assert report.verdict == "holds"


def test_polygon_confinement_rejects_nonconvex():
    verts = [[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]]
    with pytest.raises(estimates.HypothesisError, match="convex"):
        estimates.polygon_confinement_check(verts)
    with pytest.raises(estimates.HypothesisError, match="three"):
        estimates.polygon_confinement_check([[0.0, 0.0], [1.0, 0.0]])


def test_polygon_confinement_is_seeded():
    verts = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    a = estimates.polygon_confinement_check(verts, seed=7)
    b = estimates.polygon_confinement_check(verts, seed=7)
    assert a.worst_margin == b.worst_margin


# ---------------------------------------------------------------------------
# the phi barrier


def test_phi_barrier_eps_domain():
    with pytest.raises(ValueError):
        estimates.PhiBarrier(eps=0.2)
    with pytest.raises(ValueError):
        estimates.PhiBarrier(eps=0.0)
    estimates.PhiBarrier(eps=1.0 / 12.0)


def test_phi_barrier_plateaus_exact():
    bar = estimates.PhiBarrier(eps=0.01)
    out = bar.validate()
    assert out["plateau_left_exact"] == 0.0
    assert out["plateau_right_exact"] == 0.0
    assert out["rho_floor"] >= 0.0
    assert out["min_increment"] > 0.0


def test_phi_matches_quadratic_outside_blend():
    bar = estimates.PhiBarrier(eps=0.02)
    s = np.linspace((2 * 0.02 - 1.0) / 6.0 + 1e-9, 0.5, 101)
    assert np.max(np.abs(bar.phi_eps(s) - (3.0 * s**2 + s))) < 1e-13


def test_phi_limit_closed_form():
    s = np.array([-0.5, -1.0 / 6.0, -0.1, 0.0, 0.2])
    expected = np.where(s >= -1.0 / 6.0, 3 * s**2 + s, -1.0 / 12.0)
    assert np.array_equal(estimates.PhiBarrier.phi(s), expected)


def test_phi_uniform_convergence():
    devs = [estimates.PhiBarrier(eps=e).sup_deviation() for e in (1.0 / 12.0, 0.05, 0.02, 0.01)]
    assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    assert devs[-1] <= 0.05


# ---------------------------------------------------------------------------
# Hamiltonian bounds along orbits


def test_ode_bound_equality_on_fast_orbits():
    """Above modulus^2 = 2/3 the kinetic bound is attained exactly."""
    for R2 in (2.0 / 3.0, 0.75, 0.9):
        traj = _circle_trajectory(math.sqrt(R2))
        report = estimates.ode_bound_check(traj, GL, tol=1e-10)
        assert report.verdict == "holds"
        kin = 0.5 * np.sum(traj.v**2, axis=1)
        bound = R2 * np.sqrt(GL.w(traj.u))
        assert np.max(np.abs(kin - bound)) < 1e-10


def test_ode_bound_hamiltonian_cap():
    traj = _circle_trajectory(math.sqrt(2.0 / 3.0))
    report = estimates.ode_bound_check(traj, GL)
    assert abs(report.constants["H"] - 1.0 / 12.0) < 1e-12
    traj_slow = _circle_trajectory(math.sqrt(0.5))
    assert "refined_bound" not in estimates.ode_bound_check(traj_slow, GL).constants


def test_ode_bound_refined_for_wide_orbits():
    traj = _circle_trajectory(0.9)
    report = estimates.ode_bound_check(traj, GL)
    S = report.constants["S"]
    assert abs(S - 0.81) < 1e-12
    refined = 0.25 * (1.0 - S) * (3.0 * S - 1.0)
    assert abs(report.constants["refined_bound"] - refined) < 1e-15


def test_ode_bound_requires_gl_form():
    traj = _circle_trajectory(0.5)
    quad = potentials.make_potential("quadratic", m=2)
    with pytest.raises(estimates.HypothesisError, match="GL form"):
        estimates.ode_bound_check(traj, quad)


def test_speed_envelope_attainment():
    report = estimates.speed_envelope_check()
    assert report.verdict == "holds"
    assert report.constants["worst_attainment_gap"] <= 1e-4


# ---------------------------------------------------------------------------
# report plumbing


def test_defect_report_from_margins():
    r = estimates.DefectReport.from_margins("demo", [0.5, -0.2, 0.1], [[0], [1], [2]], tol=1e-7)
    assert r.verdict == "violated"
    assert r.worst_margin == -0.2
    assert r.worst_point == [1.0]
    empty = estimates.DefectReport.from_margins("demo", [], None, tol=1e-7)
    assert empty.verdict == "vacuous"
    assert empty.to_dict()["worst_margin"] is None

