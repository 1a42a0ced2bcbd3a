"""Stress tensor, auxiliary function U, Green identity, monotone profiles."""

import math
import re

import numpy as np
import pytest

from modicalab import estimates, fields, planar, potentials, solver
from modicalab.estimates import HypothesisError


def _random_jet(rng, m=2):
    u = rng.normal(size=m)
    du = rng.normal(size=(m, 2))
    s = rng.normal(size=(m, 2, 2))
    return fields.Jet2(x=rng.normal(size=2), u=u, du=du,
                       d2u=0.5 * (s + np.swapaxes(s, 1, 2)))


def _sample_grid(name, h, box=1.0, **params):
    f = fields.make_field(name, **params)
    n = int(round(2.0 * box / h)) + 1
    return fields.sample_field(f, origin=(-box, -box), spacing=(h, h), extents=(n, n))


def _potential(name, m):
    """The catalog potential on R^m; double_well is scalar and takes no m."""
    return potentials.make_potential(name, **({} if name == "double_well" else {"m": m}))


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


# ---------------------------------------------------------------------------
# tensor algebra at a jet


def test_stress_tensor_symmetric_with_trace_minus_two_w():
    rng = np.random.default_rng(7)
    p = potentials.make_potential("ginzburg_landau", m=3)
    for _ in range(50):
        jet = _random_jet(rng, m=3)
        T = planar.stress_tensor(jet, p)
        assert T.shape == (2, 2)
        assert np.allclose(T, T.T, atol=0.0)
        assert abs(np.trace(T) + 2.0 * p.w(jet.u)) < 1e-12


@pytest.mark.parametrize("name, potential", [("gl_circle_planar", "ginzburg_landau"),
                                             ("tanh_planar", "double_well"),
                                             ("product_saddle", "zero")])
def test_batched_tensors_on_grid_jets_equal_the_pointwise_ones(name, potential):
    g = _sample_grid(name, 0.1)
    p = _potential(potential, g.m)
    jets = fields.grid_jets(g)
    T, H = planar.stress_tensor(jets, p), planar.hessian_U(jets, p)
    assert T.shape == H.shape == jets.u.shape[:-1] + (2, 2)
    for i, j in np.ndindex(*jets.u.shape[:-1]):
        jet = fields.fd_jet(g, (i + 1, j + 1))
        assert np.array_equal(T[i, j], planar.stress_tensor(jet, p))
        assert np.array_equal(H[i, j], planar.hessian_U(jet, p))


def test_hessian_u_trace_and_adjugate_relation():
    # trace D2U = 4W, and D2U = -2 adj(T) entrywise
    rng = np.random.default_rng(9)
    p = potentials.make_potential("ginzburg_landau", m=2)
    for _ in range(50):
        jet = _random_jet(rng)
        H = planar.hessian_U(jet, p)
        T = planar.stress_tensor(jet, p)
        assert abs(np.trace(H) - 4.0 * p.w(jet.u)) < 1e-12
        adj = np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])
        assert np.allclose(H, -2.0 * adj, atol=1e-12)


def test_hessian_u_rejects_nonplanar_jet():
    jet = fields.jet(fields.make_field("tanh_profile"), np.array([0.3]))
    assert jet.n == 1
    p = potentials.make_potential("double_well")
    with pytest.raises(ValueError, match="planar"):
        planar.hessian_U(jet, p)
    with pytest.raises(ValueError, match="planar"):
        planar.convexity_margin(jet, p)


# ---------------------------------------------------------------------------
# divergence of the stress tensor on grids


def test_divergence_residual_roundoff_on_circle_solution():
    # the field depends on x1 only, so every tensor entry is constant and the
    # finite-difference divergence sits at roundoff
    p = potentials.make_potential("ginzburg_landau", m=2)
    g = _sample_grid("gl_circle_planar", 0.05, R=0.6)
    # gate admits the O(h^2) truncation of the sampled field; the divergence
    # itself still sits at roundoff because every tensor entry is constant
    assert planar.divergence_residual(g, p, gate=1e-3) < 1e-10


def test_divergence_residual_gates_on_the_equation():
    g = _sample_grid("product_saddle", 0.1)
    dw = potentials.make_potential("double_well")
    with pytest.raises(HypothesisError, match="does not solve"):
        planar.divergence_residual(g, dw)


def test_divergence_residual_needs_planar_grid():
    f = fields.make_field("tanh_profile")
    g = fields.sample_field(f, origin=(-1.0,), spacing=(0.1,), extents=(21,))
    p = potentials.make_potential("double_well")
    with pytest.raises(ValueError, match="planar"):
        planar.divergence_residual(g, p)


def test_divergence_residual_margin_validation():
    p = potentials.make_potential("ginzburg_landau", m=2)
    g = _sample_grid("gl_circle_planar", 0.1, R=0.5)
    with pytest.raises(ValueError, match="measurement nodes"):
        planar.divergence_residual(g, p, gate=1e-2, margin=5.0)


def test_divergence_pair_second_order_on_exponential_modes():
    f = _exp_modes()
    q = potentials.make_potential("quadratic", m=2)

    def make_grid(h):
        n = int(round(2.0 / h)) + 1
        return fields.sample_field(f, origin=(-1.0, -1.0), spacing=(h, h), extents=(n, n))

    pair = planar.divergence_pair(make_grid, q, 0.05, gate=1e-2)
    assert pair["h"] == 0.05
    assert pair["residual_h2"] < pair["residual_h"]
    assert 3.5 <= pair["ratio"] <= 4.5


def test_compatibility_residual_roundoff_on_circle_solution():
    p = potentials.make_potential("ginzburg_landau", m=2)
    g = _sample_grid("gl_circle_planar", 0.05, R=0.6)
    assert planar.compatibility_residual(g, p) < 1e-10


def _stencil_divergence(g, p, margin):
    """div T by the hand-written 3-point stencils the kernel replaced."""
    jets = fields.grid_jets(g)
    du = jets.du
    gram = np.einsum("...mi,...mj->...ij", du, du)
    scalar = 0.5 * jets.grad_sq() + np.asarray(p.w(jets.u))
    T = gram - scalar[..., None, None] * np.eye(2)
    h1, h2 = g.spacing
    div1 = (T[2:, 1:-1, 0, 0] - T[:-2, 1:-1, 0, 0]) / (2 * h1) + (
        T[1:-1, 2:, 0, 1] - T[1:-1, :-2, 0, 1]
    ) / (2 * h2)
    div2 = (T[2:, 1:-1, 1, 0] - T[:-2, 1:-1, 1, 0]) / (2 * h1) + (
        T[1:-1, 2:, 1, 1] - T[1:-1, :-2, 1, 1]
    ) / (2 * h2)
    axes = g.axes()
    xs, ys = axes[0][2:-2], axes[1][2:-2]
    keep = (((xs >= axes[0][0] + margin) & (xs <= axes[0][-1] - margin))[:, None]
            & ((ys >= axes[1][0] + margin) & (ys <= axes[1][-1] - margin))[None, :])
    return float(max(np.max(np.abs(div1[keep])), np.max(np.abs(div2[keep]))))


def _stencil_compatibility(g, p):
    """The two compatibility residuals by the hand-written stencils."""
    jets = fields.grid_jets(g)
    du = jets.du
    a = np.sum(du[..., 0] ** 2, axis=-1)
    b = np.sum(du[..., 1] ** 2, axis=-1)
    h12 = 2.0 * np.sum(du[..., 0] * du[..., 1], axis=-1)
    two_w = 2.0 * np.asarray(p.w(jets.u))
    h11, h22 = a - b + two_w, b - a + two_w
    h1, h2 = g.spacing
    r1 = (h11[1:-1, 2:] - h11[1:-1, :-2]) / (2 * h2) - (h12[2:, 1:-1] - h12[:-2, 1:-1]) / (2 * h1)
    r2 = (h22[2:, 1:-1] - h22[:-2, 1:-1]) / (2 * h1) - (h12[1:-1, 2:] - h12[1:-1, :-2]) / (2 * h2)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def test_divergence_residual_equals_the_stencils_on_a_relaxed_grid():
    # the suite's divergence-decay field: GL relaxed with linear-map data
    cfg = solver.RelaxConfig(origin=(-0.5, -0.5), spacing=(0.05, 0.05), shape=(21, 21),
                             boundary=fields.make_field("harmonic_linear_map"), tol=1e-10)
    g = solver.relax(GL, cfg).field
    assert planar.divergence_residual(g, GL, margin=0.15) == _stencil_divergence(g, GL, 0.15)


@pytest.mark.parametrize("name, potential, params", [
    ("gl_circle_planar", "ginzburg_landau", {"R": 0.6}),
    ("tanh_planar", "double_well", {}),
    ("linear", "ginzburg_landau", {"A": [[1.0, 2.0], [0.5, -1.0]], "b": [0.3, 0.1]}),
])
def test_compatibility_residual_equals_the_stencils(name, potential, params):
    g = _sample_grid(name, 0.05, **params)
    p = _potential(potential, g.m)
    assert planar.compatibility_residual(g, p) == _stencil_compatibility(g, p)


def test_compatibility_residual_is_order_one_off_solutions():
    # a linear map is no GL solution: its gradient terms in D2U are constant,
    # so the residual is the gradient of 2 W(u(x)), which does not vanish
    g = _sample_grid("linear", 0.05, A=[[1.0, 2.0], [0.5, -1.0]], b=[0.3, 0.1])
    assert planar.compatibility_residual(g, GL) > 0.1


# ---------------------------------------------------------------------------
# reconstruction of U


def test_reconstruct_u_circle_grid_machine_zero_defects():
    p = potentials.make_potential("ginzburg_landau", m=2)
    g = _sample_grid("gl_circle_planar", 0.02, R=0.5)
    rec = planar.reconstruct_U(g, p)
    assert rec.path_defect < 1e-12
    assert rec.laplacian_defect < 1e-11
    ni = g.values.shape[0] - 2
    assert rec.values.shape == (ni, ni)
    assert rec.grid.meta["content"] == "auxiliary-U"
    # U grid starts at the first interior node of the source grid
    assert np.allclose(rec.grid.origin, g.node_position((1, 1)))


def test_reconstruct_u_gauge_node_is_exact_zero():
    p = potentials.make_potential("ginzburg_landau", m=2)
    g = _sample_grid("gl_circle_planar", 0.05, R=0.5)
    rec = planar.reconstruct_U(g, p, gauge=(3, 4))
    assert rec.gauge_index == (3, 4)
    assert rec.values[3, 4] == 0.0
    assert rec.grid.meta["gauge_index"] == [3, 4]


def test_reconstruct_u_path_defect_second_order():
    # on a genuinely two-dimensional solution the two integration orders
    # disagree at O(h^2)
    f = _exp_modes()
    q = potentials.make_potential("quadratic", m=2)
    defects = []
    for h in (0.025, 0.0125):
        n = int(round(2.0 / h)) + 1
        g = fields.sample_field(f, origin=(-1.0, -1.0), spacing=(h, h), extents=(n, n))
        defects.append(planar.reconstruct_U(g, q, gate=1.0).path_defect)
    ratio = defects[0] / defects[1]
    assert 3.0 <= ratio <= 5.0


def test_reconstruct_u_gates_on_the_equation():
    g = _sample_grid("product_saddle", 0.1)
    dw = potentials.make_potential("double_well")
    with pytest.raises(HypothesisError, match="does not solve"):
        planar.reconstruct_U(g, dw)


# ---------------------------------------------------------------------------
# convexity of U


def test_convexity_margin_closed_form_dichotomy():
    p = potentials.make_potential("ginzburg_landau", m=2)
    for r_sq, expected_convex in ((0.3, True), (0.5, False)):
        f = fields.make_field("gl_circle_planar", R=math.sqrt(r_sq))
        jet = f.jet(np.array([0.37, -0.2]))
        status = planar.convexity_status(jet, p)
        closed = 0.25 * (1.0 - r_sq) ** 2 * (1.0 - 3.0 * r_sq) * (1.0 + r_sq)
        assert abs(status["margin"] - closed) < 1e-12
        assert status["convex"] is expected_convex
        assert not status["conformal_vacuum"]


@pytest.mark.parametrize("name, r_sq", [("gl_circle_planar", 0.3), ("gl_circle_planar", 0.5),
                                         ("tanh_planar", None)])
def test_batched_margins_equal_the_pointwise_loop(name, r_sq):
    # the CLI's 33 x 33 sample grid, once as a batch and once point by point
    if r_sq is None:
        f, p = fields.make_field(name), potentials.make_potential("double_well")
    else:
        f, p = fields.make_field(name, R=math.sqrt(r_sq)), potentials.make_potential("ginzburg_landau", m=2)
    xs = np.linspace(-2.0, 2.0, 33)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    jets = f.jets(pts)
    pairs = [
        (estimates.modica_defect(jets, p), [estimates.modica_defect(f.jet(x), p) for x in pts]),
        (planar.convexity_margin(jets, p), [planar.convexity_status(f.jet(x), p)["margin"] for x in pts]),
        (estimates.gl_pointwise_bound(jets), [estimates.gl_pointwise_bound(f.jet(x)) for x in pts]),
    ]
    for batched, looped in pairs:
        assert batched.shape == (len(pts),)
        assert np.array_equal(batched, np.asarray(looped))


def test_convexity_margin_equals_det():
    rng = np.random.default_rng(11)
    p = potentials.make_potential("ginzburg_landau", m=2)
    for _ in range(40):
        status = planar.convexity_status(_random_jet(rng), p)
        assert abs(status["det"] - status["margin"]) < 1e-9 * max(1.0, abs(status["det"]))


def test_conformal_vacuum_flag():
    z = potentials.make_potential("zero", m=2)
    ident = fields.make_field("harmonic_linear_map")  # the identity map
    status = planar.convexity_status(ident.jet(np.array([0.4, 1.1])), z)
    assert status["conformal_vacuum"]
    assert status["convex"]
    assert status["margin"] == 0.0

    saddle = fields.make_field("product_saddle")
    jet = saddle.jet(np.array([1.0, 2.0]))
    status = planar.convexity_status(jet, potentials.make_potential("zero", m=1))
    assert not status["conformal_vacuum"]
    assert not status["convex"]
    # margin = -(x1^2 + x2^2)^2 when W = 0
    assert abs(status["margin"] + 25.0) < 1e-12


# ---------------------------------------------------------------------------
# quadrature and the Green identity


def test_disk_integral_polynomials():
    area = planar.disk_integral(lambda pts: np.ones(pts.shape[:-1]), (0.3, -0.2), 1.5)
    assert abs(area - math.pi * 1.5**2) < 1e-12

    def rad_sq(pts):
        d = pts - np.array([0.3, -0.2])
        return np.sum(d**2, axis=-1)

    moment = planar.disk_integral(rad_sq, (0.3, -0.2), 2.0)
    assert abs(moment - math.pi * 2.0**4 / 2.0) < 1e-10


def test_disk_integral_rejects_bad_radius():
    with pytest.raises(ValueError, match="positive"):
        planar.disk_integral(lambda pts: np.ones(pts.shape[:-1]), (0.0, 0.0), 0.0)


def test_green_identity_on_circle_solution():
    p = potentials.make_potential("ginzburg_landau", m=2)
    f = fields.make_field("gl_circle_planar", R=0.5)
    result = planar.green_boundary_identity(f, p, (0.0, 0.0), 1.0)
    assert result["defect"] <= 1e-10
    # |u| = R everywhere, so the bulk side is 4 W pi R^2 exactly
    w = 0.25 * (1.0 - 0.25) ** 2
    assert abs(result["lhs"] - 4.0 * w * math.pi) < 1e-10
    assert result["rule_order"] == 64
    assert result["boundary_nodes"] == 256


def test_green_identity_on_transition_profile():
    p = potentials.make_potential("double_well")
    f = fields.make_field("tanh_planar")
    result = planar.green_boundary_identity(f, p, (0.2, -0.1), 1.3)
    assert result["defect"] <= 1e-8


def test_green_identity_gates_on_the_boundary():
    dw = potentials.make_potential("double_well")
    f = fields.make_field("product_saddle")
    with pytest.raises(HypothesisError, match="on the boundary"):
        planar.green_boundary_identity(f, dw, (0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# the solves-the-system gate, shared by every check that needs a solution

GL = potentials.make_potential("ginzburg_landau", m=2)
DIAG = estimates.DiagonalSystemConfig(D=np.ones(2), A=np.eye(2))  # D Lap u + (1-|u|^2) u = 0 is GL


def _bent_circle(eps):
    """The GL circle solution plus eps |x|^2 on its first component, which
    adds 4 eps to that component's Laplacian."""
    f = fields.make_field("gl_circle_planar", R=0.6)

    def derivatives(X):
        du, d2u = f._derivatives(X)
        du[..., 0, :] += 2.0 * eps * X
        d2u[..., 0, :, :] += 2.0 * eps * np.eye(2)
        return du, d2u

    def values(X):
        out = f.values(X)
        out[..., 0] += eps * np.sum(X**2, axis=-1)
        return out

    return fields.ClosedFormField("bent_circle", 2, 2, {"eps": eps}, derivatives, values)


def _gate_grid(f):
    return fields.sample_field(f, origin=(-0.5, -0.5), spacing=(0.05, 0.05), extents=(21, 21))


# site -> (call(field, gate), gate, message substring); diagonal_system_check's gate is fixed
GATE_SITES = {
    "gl_p_residual": (lambda f, gate: estimates.gl_p_residual(_gate_grid(f), tol_solution=gate),
                      1e-3, "not a GL solution"),
    "diagonal_p_residual": (lambda f, gate: estimates.diagonal_p_residual(_gate_grid(f), DIAG, tol_solution=gate),
                            1e-3, "does not solve"),
    "diagonal_system_check": (lambda f, gate: estimates.diagonal_system_check(DIAG, _gate_grid(f)),
                              1e-4, "does not solve"),
    "divergence_residual": (lambda f, gate: planar.divergence_residual(_gate_grid(f), GL, gate=gate),
                            1e-3, "does not solve"),
    "reconstruct_U": (lambda f, gate: planar.reconstruct_U(_gate_grid(f), GL, gate=gate),
                      1e-3, "does not solve"),
    "green_boundary_identity": (lambda f, gate: planar.green_boundary_identity(f, GL, (0.0, 0.0), 0.5, gate=gate),
                                1e-5, "on the boundary"),
}


@pytest.mark.parametrize("site", sorted(GATE_SITES))
def test_solution_gate_reports_residual_and_threshold(site):
    call, gate, phrase = GATE_SITES[site]
    call(_bent_circle(0.0), gate)  # the solution itself passes the gate
    with pytest.raises(HypothesisError, match=phrase) as info:
        call(_bent_circle(1e-2), gate)
    measured, threshold = re.search(r"residual (\S+) > (\S+)$", str(info.value)).groups()
    assert threshold == f"{gate:g}"
    assert float(measured) > 10.0 * gate  # Lap grows by 0.04 on the bent component


# ---------------------------------------------------------------------------
# monotone radial profiles


def test_profile_laplacian_quadratic_is_four_pi_r():
    radii = np.linspace(0.25, 2.0, 8)
    prof = planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), radii)
    expected = 4.0 * math.pi * np.asarray(prof.radii)
    assert np.max(np.abs(np.asarray(prof.values) - expected)) < 1e-10
    assert prof.is_monotone()
    assert prof.density == "laplacian_quadratic"


def test_profile_grad_sq_linear_for_the_identity_map():
    f = fields.make_field("harmonic_linear_map")
    radii = (0.5, 1.0, 1.5)
    prof = planar.monotonicity_profile("grad_sq", f, None, (0.1, 0.2), radii, n_r=16, n_theta=32)
    expected = 2.0 * math.pi * np.asarray(radii)
    assert np.max(np.abs(np.asarray(prof.values) - expected)) < 1e-10


def test_profile_potential_monotone_for_transition_solution():
    f = fields.make_field("tanh_planar")
    p = potentials.make_potential("double_well")
    prof = planar.monotonicity_profile("potential", f, p, (0.0, 0.0), np.linspace(0.25, 2.0, 8))
    assert prof.is_monotone()
    assert all(v >= 0.0 for v in prof.values)


def test_profile_argument_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), (-1.0, 2.0))
    with pytest.raises(ValueError, match="unknown density"):
        planar.monotonicity_profile("vorticity", None, None, (0.0, 0.0), (1.0,))
    with pytest.raises(ValueError, match="needs a field"):
        planar.monotonicity_profile("potential", None, None, (0.0, 0.0), (1.0,))


def test_is_monotone_slack_uses_error_estimates():
    base = dict(center=(0.0, 0.0), radii=(1.0, 2.0, 3.0), density="potential")
    falling = planar.MonotoneProfile(values=(3.0, 2.0, 1.0), errors=(0.0, 0.0, 0.0), **base)
    assert not falling.is_monotone()
    noisy = planar.MonotoneProfile(values=(3.0, 2.9, 2.8), errors=(0.1, 0.1, 0.1), **base)
    assert noisy.is_monotone()  # dips within quadrature error are tolerated


def test_profile_csv_format(tmp_path):
    radii = (0.5, 1.0)
    prof = planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), radii)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,M,quad_error_estimate"
    assert len(lines) == 3
    r, m, e = lines[1].split(",")
    assert float(r) == 0.5
    assert float(m) == prof.values[0]
    assert float(e) == prof.errors[0]
