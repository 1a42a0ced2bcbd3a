"""FAS multigrid relaxation on rectangles, with the damped flow as smoother."""

import dataclasses
import math

import numpy as np
import pytest

from modicalab import fields, potentials, solver


def _linear_boundary():
    return fields.make_field("linear", A=[[1.0, 2.0]])


def _zero_potential(m=1):
    return potentials.make_potential("zero", m=m)


def _five_point_2d(v, spacing):
    """The five-point Laplacian on 2-D views, one interior node per entry:
    the reference the solver's row kernel is held to."""
    h1, h2 = spacing
    core = v[1:-1, 1:-1]
    return ((v[2:, 1:-1] - 2 * core + v[:-2, 1:-1]) / h1**2
            + (v[1:-1, 2:] - 2 * core + v[1:-1, :-2]) / h2**2)


def _reference_defect(u, p, spacing, f, g):
    """The solver's defect before it worked on whole rows: the 2-D stencil
    and a fresh grad W at every call, laid into whole rows whose edge
    columns are nan, so that a sweep reading them spoils the field."""
    a = np.full((u.shape[0] - 2,) + u.shape[1:], np.nan)
    a[:, 1:-1] = _five_point_2d(u, spacing) - np.asarray(p.grad(u[1:-1, 1:-1]))
    if f is not None:
        a[:, 1:-1] += f
    return a, None


def _interior_defect(u, p, lvl):
    return solver._defect(u, p, lvl.spacing, None, None)[0][:, 1:-1]


def _assert_same_run(ours, ref):
    assert (ours.iterations, ours.newton_steps, ours.converged) == (ref.iterations, ref.newton_steps, ref.converged)
    for a, b in ((ours.field.values, ref.field.values), (ours.residuals, ref.residuals),
                 (ours.energies, ref.energies)):
        assert a.shape == b.shape and np.array_equal(a.view("<u8"), b.view("<u8"))


def test_stiffness_bound_quadratic_is_one():
    q = potentials.make_potential("quadratic", m=2)
    L = solver.stiffness_bound(q, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert abs(L - 1.0) < 1e-14


def test_relax_linear_data_zero_potential_is_exact():
    # a linear function is discrete-harmonic, so the boundary-sampled start
    # already solves the scheme and the first sweep certifies it
    cfg = solver.RelaxConfig(
        origin=(-1.0, -1.0), spacing=(0.25, 0.25), shape=(9, 9),
        boundary=_linear_boundary(), tol=1e-12,
    )
    result = solver.relax(_zero_potential(), cfg)
    assert result.converged
    assert result.iterations == 1
    exact = fields.sample_field(_linear_boundary(), (-1.0, -1.0), (0.25, 0.25), (9, 9))
    assert np.max(np.abs(result.field.values - exact.values)) < 1e-13


def test_relax_matches_closed_form_at_second_order():
    glp = potentials.make_potential("ginzburg_landau", m=2)
    circle = fields.make_field("gl_circle_planar", R=0.5)
    errs = []
    for h in (0.1, 0.05, 0.025):
        n = int(round(1.0 / h)) + 1
        cfg = solver.RelaxConfig(
            origin=(-0.5, -0.5), spacing=(h, h), shape=(n, n),
            boundary=circle, max_iters=200_000, tol=1e-11,
        )
        result = solver.relax(glp, cfg)
        assert result.converged
        exact = fields.sample_field(circle, (-0.5, -0.5), (h, h), (n, n))
        errs.append(float(np.max(np.abs(result.field.values - exact.values))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.0


@pytest.mark.parametrize("potential, boundary, origin, spacing, shape, levels", [
    pytest.param(("double_well", {}), ("tanh_planar", {}), (-3.0, 0.0), 0.15, (41, 5), 2,
                 id="strip"),
    pytest.param(("ginzburg_landau", {"m": 2}), ("gl_circle_planar", {"R": 0.5}),
                 (-0.5, -0.5), 0.025, (41, 41), 4, id="gl-square"),
])
def test_flow_energy_is_nonincreasing(potential, boundary, origin, spacing, shape, levels):
    p = potentials.make_potential(potential[0], **potential[1])
    cfg = solver.RelaxConfig(
        origin=origin, spacing=(spacing, spacing), shape=shape,
        boundary=fields.make_field(boundary[0], **boundary[1]), max_iters=4_000, tol=1e-9,
    )
    result = solver.relax(p, cfg)
    assert result.converged and result.levels == levels
    meta = result.field.meta
    assert (meta["solver"], meta["cycles"], meta["levels"]) == ("fas-multigrid", result.iterations, levels)
    e = result.energies
    scale = 1e-12 * np.maximum(1.0, np.abs(e[:-1]))
    assert np.all(np.diff(e) <= scale)
    assert len(result.residuals) == len(e) == result.iterations


def test_cycles_to_tolerance_do_not_grow_as_h_shrinks():
    # GL (m = 2) on [-0.5, 0.5]^2 with identity-map data, started from the
    # data plus a uniform perturbation of amplitude 0.01
    glp = potentials.make_potential("ginzburg_landau", m=2)
    rng = np.random.default_rng(0)
    cycles = []
    for h in (0.05, 0.025, 0.0125):
        n = int(round(1.0 / h)) + 1
        axis = -0.5 + h * np.arange(n)
        X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        X = X + rng.uniform(-0.01, 0.01, X.shape)
        cfg = solver.RelaxConfig(
            origin=(-0.5, -0.5), spacing=(h, h), shape=(n, n),
            boundary=fields.make_field("harmonic_linear_map"), max_iters=200, tol=1e-10,
        )
        result = solver.relax(glp, cfg, init=fields.GridField((-0.5, -0.5), (h, h), X))
        assert result.converged
        cycles.append(result.iterations)
    assert max(cycles) <= 20
    assert max(cycles) - min(cycles) <= 3


def test_grid_hierarchy_halves_while_node_counts_stay_odd():
    zero = _zero_potential()
    for shape, levels in (((81, 6), 1), ((41, 5), 2), ((9, 9), 3), ((17, 17), 4), ((81, 81), 5)):
        cfg = solver.RelaxConfig(
            origin=(-1.0, -1.0), spacing=(0.25, 0.25), shape=shape,
            boundary=_linear_boundary(), tol=1e-12,
        )
        assert solver.relax(zero, cfg).levels == levels, shape


def _flow_reference(p, cfg):
    """The damped red-black gradient flow written out sweep by sweep, as the
    solver ran it before it became multigrid (ClosedFormField data, cold
    start)."""
    n1, n2 = cfg.shape
    h1, h2 = cfg.spacing
    m = p.m
    x1, x2 = cfg.axes()
    pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    u = cfg.boundary.values(pts).reshape(n1, n2, m).astype(float)
    lo = u.reshape(-1, m).min(axis=0) - solver._VALUE_MARGIN
    hi = u.reshape(-1, m).max(axis=0) + solver._VALUE_MARGIN
    L = solver.stiffness_bound(p, lo, hi)
    h = min(h1, h2)
    tau = solver._SAFETY * h * h / (4.0 + h * h * L)
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    colors = ((ii + jj) % 2 == 0)

    def lap(v):
        return _five_point_2d(v, (h1, h2))

    energies, residuals = [], []
    for sweeps in range(1, cfg.max_iters + 1):
        for color in (colors, ~colors):
            step = tau * (lap(u) - np.asarray(p.grad(u[1:-1, 1:-1])))
            u[1:-1, 1:-1][color] += step[color]
        energies.append(solver.flow_energy(u, p, (h1, h2)))
        residuals.append(float(np.max(np.abs(lap(u) - np.asarray(p.grad(u[1:-1, 1:-1]))))))
        if residuals[-1] <= cfg.tol:
            break
    return u, np.asarray(residuals), np.asarray(energies), sweeps


def test_one_level_cycles_are_the_plain_flow_bit_for_bit():
    # the suite's transition strip: n2 - 1 = 5 is odd, so the grid cannot coarsen
    dw = potentials.make_potential("double_well")
    cfg = solver.RelaxConfig(
        origin=(-4.0, 0.0), spacing=(0.1, 0.1), shape=(81, 6),
        boundary=fields.make_field("tanh_planar"), max_iters=20_000, tol=1e-8,
    )
    result = solver.relax(dw, cfg)
    values, residuals, energies, sweeps = _flow_reference(dw, cfg)
    assert result.levels == 1 and result.converged
    assert result.iterations == sweeps
    assert np.array_equal(result.field.values, values)
    assert np.array_equal(result.residuals, residuals)
    assert np.array_equal(result.energies, energies)


@pytest.mark.parametrize("change, reason", [
    pytest.param({"max_iters": 0}, "max_iters", id="max_iters-0"),
    pytest.param({"tol": 0.0}, "tol", id="tol-0"),
    pytest.param({"tol": math.nan}, "tol", id="tol-nan"),
    pytest.param({"tol": math.inf}, "tol", id="tol-inf"),
    pytest.param({"spacing": (0.0, 0.15)}, "spacing", id="spacing-0"),
    pytest.param({"spacing": (0.15, math.nan)}, "spacing", id="spacing-nan"),
])
def test_bad_relaxation_numbers_are_rejected(change, reason):
    cfg = solver.RelaxConfig(
        origin=(-1.0, -1.0), spacing=(0.25, 0.25), shape=(9, 9),
        boundary=_linear_boundary(),
    )
    with pytest.raises(ValueError, match=reason):
        solver.relax(_zero_potential(), dataclasses.replace(cfg, **change))


def test_transition_strip_energy_matches_line_energy():
    dw = potentials.make_potential("double_well")
    tanh = fields.make_field("tanh_planar")
    cfg = solver.RelaxConfig(
        origin=(-4.0, 0.0), spacing=(0.1, 0.1), shape=(81, 6),
        boundary=tanh, max_iters=20_000, tol=1e-8,
    )
    result = solver.relax(dw, cfg)
    assert result.converged
    e = solver.energy(result.field, dw)
    height = 0.5
    assert abs(e - 2.0 * math.sqrt(2.0) / 3.0 * height) < 5e-3


def test_warm_start_converges_immediately():
    dw = potentials.make_potential("double_well")
    tanh = fields.make_field("tanh_planar")
    cfg = solver.RelaxConfig(
        origin=(-3.0, 0.0), spacing=(0.15, 0.15), shape=(41, 5),
        boundary=tanh, max_iters=20_000, tol=1e-8,
    )
    cold = solver.relax(dw, cfg)
    warm = solver.relax(dw, cfg, init=cold.field)
    assert warm.converged
    assert warm.iterations < max(3, cold.iterations // 10)


def test_relax_runs_are_bit_reproducible():
    glp = potentials.make_potential("ginzburg_landau", m=2)
    circle = fields.make_field("gl_circle_planar", R=0.5)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(0.1, 0.1), shape=(11, 11),
        boundary=circle, max_iters=50_000, tol=1e-10,
    )
    a = solver.relax(glp, cfg)
    b = solver.relax(glp, cfg)
    assert a.iterations == b.iterations
    assert np.array_equal(a.field.values, b.field.values)
    assert np.array_equal(a.residuals, b.residuals)
    assert np.array_equal(a.energies, b.energies)
    assert a.tau == b.tau


@pytest.mark.parametrize("potential, boundary, got", [
    pytest.param(("double_well", {}), lambda: fields.make_field("harmonic_linear_map"),
                 "harmonic_linear_map (n = 2, m = 2)", id="two-components-for-one"),
    pytest.param(("ginzburg_landau", {"m": 2}), lambda: fields.make_field("gl_circle"),
                 "gl_circle (n = 1, m = 2)", id="line-field"),
    pytest.param(("zero", {"m": 1}), lambda: 42, "got int", id="not-a-field"),
])
def test_boundary_must_be_a_planar_field_with_the_potentials_components(potential, boundary, got):
    p = potentials.make_potential(potential[0], **potential[1])
    cfg = solver.RelaxConfig(
        origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(9, 9), boundary=boundary(),
    )
    with pytest.raises(ValueError, match="closed-form field on the plane") as info:
        solver.relax(p, cfg)
    assert f"m = {p.m}" in str(info.value) and got in str(info.value)


def test_grid_shape_validation():
    cfg = solver.RelaxConfig(
        origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(9, 2),
        boundary=_linear_boundary(),
    )
    with pytest.raises(ValueError, match="interior"):
        solver.relax(_zero_potential(), cfg)
    cfg3 = solver.RelaxConfig(
        origin=(0.0, 0.0, 0.0), spacing=(0.1, 0.1, 0.1), shape=(9, 9, 9),
        boundary=_linear_boundary(),
    )
    with pytest.raises(ValueError, match="planar"):
        solver.relax(_zero_potential(), cfg3)


def test_init_shape_validation():
    cfg = solver.RelaxConfig(
        origin=(-1.0, -1.0), spacing=(0.25, 0.25), shape=(9, 9),
        boundary=_linear_boundary(),
    )
    wrong = fields.sample_field(_linear_boundary(), (-1.0, -1.0), (0.25, 0.25), (7, 9))
    with pytest.raises(ValueError, match="init shape"):
        solver.relax(_zero_potential(), cfg, init=wrong)


def test_unstable_potential_blows_up():
    # strongly concave W: the flow is a backward heat equation and must abort
    def w(u):
        return -25.0 * np.sum(u * u, axis=-1)

    def grad(u):
        return -50.0 * u

    def hess(u):
        return np.broadcast_to(-50.0 * np.eye(1), u.shape[:-1] + (1, 1))

    concave = potentials.Potential("concave", 1, w, grad, hess)
    bump = fields.make_field("constant", value=[0.1], n=2)
    # 11 x 11 runs on two levels, 17 x 17 on four
    for n in (11, 17):
        cfg = solver.RelaxConfig(
            origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(n, n),
            boundary=bump, max_iters=100_000, tol=1e-14,
        )
        with pytest.raises(solver.RelaxError, match="blew up"):
            solver.relax(concave, cfg)


def test_non_converged_run_reports_false():
    glp = potentials.make_potential("ginzburg_landau", m=2)
    circle = fields.make_field("gl_circle_planar", R=0.5)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(0.1, 0.1), shape=(11, 11),
        boundary=circle, max_iters=3, tol=1e-14,
    )
    result = solver.relax(glp, cfg)
    assert not result.converged
    assert result.iterations == 3
    assert len(result.residuals) == 3


def test_a_tolerance_under_the_roundoff_floor_ends_when_the_residual_stalls():
    # at h = 0.0125 the five-point residual bottoms out near 1.3e-12 after
    # about 12 cycles, so tol 1e-13 is never met
    glp = potentials.make_potential("ginzburg_landau", m=2)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(0.0125, 0.0125), shape=(81, 81),
        boundary=fields.make_field("harmonic_linear_map"), max_iters=200, tol=1e-13,
    )
    result = solver.relax(glp, cfg)
    assert not result.converged
    assert result.iterations <= 30
    assert np.min(result.residuals) > cfg.tol
    assert result.iterations == int(np.argmin(result.residuals)) + 1 + solver._STALL_CYCLES


def test_run_log_keys_and_values():
    cfg = solver.RelaxConfig(
        origin=(-1.0, -1.0), spacing=(0.25, 0.25), shape=(9, 9),
        boundary=_linear_boundary(), tol=1e-12,
    )
    result = solver.relax(_zero_potential(), cfg)
    log = solver.run_log(result)
    assert set(log) == {"iters", "converged", "residual", "energy_first", "energy_last", "tau"}
    assert log["iters"] == result.iterations
    assert log["converged"] is True
    assert log["residual"] == result.final_residual
    assert log["tau"] == result.tau



def _mask_sweeps(u, p, lvl, f, sweeps):
    """Red-black sweeps through boolean checkerboard masks of a strided
    interior view, as the solver wrote them before its flat indices, with
    the 2-D stencil and a fresh grad W for each colour."""
    n1, n2 = u.shape[:2]
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    colors = (ii + jj) % 2 == 0
    inner = u[1:-1, 1:-1]
    for _ in range(sweeps):
        for color in (colors, ~colors):
            a = _five_point_2d(u, lvl.spacing) - np.asarray(p.grad(inner))
            if f is not None:
                a += f
            inner[color] += lvl.tau * a[color]


def _sweeps_agree(u, p, lvl, f, g=None) -> bool:
    """Three sweeps of the solver, its first colour handed grad W = g, are
    the mask sweeps bit for bit."""
    ref, flat = u.copy(), u.copy()
    _mask_sweeps(ref, p, lvl, f, 3)
    solver._smooth(flat, p, lvl, f, 3, None, g)
    return np.array_equal(ref.view("<u8"), flat.view("<u8"))


@pytest.mark.parametrize("shape", [(41, 41), (21, 11), (6, 6)])
@pytest.mark.parametrize("potential", [("double_well", {}), ("ginzburg_landau", {"m": 2})])
def test_flat_index_sweeps_equal_mask_sweeps_bit_for_bit(shape, potential):
    p = potentials.make_potential(potential[0], **potential[1])
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, shape + (p.m,))
    u[: shape[0] // 2, : shape[1] // 2] = -0.0  # a signed-zero block, boundary included
    f = rng.uniform(-1.0, 1.0, (shape[0] - 2, shape[1] - 2, p.m))
    f[: shape[0] // 3] = -0.0
    lvl = solver._hierarchy(shape, (0.05, 0.05), p.m, 4.0)[0]
    assert _sweeps_agree(u, p, lvl, f) and _sweeps_agree(u, p, lvl, None)
    assert _sweeps_agree(u, p, lvl, f, p.grad(u[1:-1]))
    # must fail: every colour's u indices one element off
    shifted = tuple((iu + 1, ia) for iu, ia in lvl.colors)
    assert not _sweeps_agree(u, p, dataclasses.replace(lvl, colors=shifted), f)
    # must fail: the first colour also updates the nodes of column 0
    edge = ((np.arange(1, shape[0] - 1)[:, None] * shape[1]) * p.m + np.arange(p.m)).reshape(-1)
    (iu, ia), second = lvl.colors
    touching = ((np.concatenate([iu, edge]), np.concatenate([ia, edge - shape[1] * p.m])), second)
    assert not _sweeps_agree(u, p, dataclasses.replace(lvl, colors=touching), f)
    # must fail: a gradient carried over from before the last sweep
    moved = u.copy()
    solver._smooth(moved, p, lvl, f, 1, None, None)
    assert not _sweeps_agree(moved, p, lvl, f, p.grad(u[1:-1]))


def _coarse_gl_problem():
    """GL (m = 2) on the 6 x 6 coarsest grid of a 21 x 21 square with
    identity-map data, solved by repeated Newton steps."""
    glp = potentials.make_potential("ginzburg_landau", m=2)
    lvl = solver._hierarchy((21, 21), (0.05, 0.05), 2, 4.0)[-1]
    axis = -0.5 + lvl.spacing[0] * np.arange(6)
    u = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    for _ in range(6):
        assert _coarsest_step(u, glp, lvl)
    return glp, lvl, u


def _coarsest_step(u, p, lvl):
    return solver._coarsest_solve(u, p, lvl, None, *solver._defect(u, p, lvl.spacing, None, None))


def _newton_defects(p, lvl, u, eps):
    """The coarse defect of u plus an eps-perturbation, before and after one
    coarsest-grid step."""
    v = u.copy()
    v[1:-1, 1:-1] += eps * np.random.default_rng(3).uniform(-1.0, 1.0, v[1:-1, 1:-1].shape)
    before = np.max(np.abs(_interior_defect(v, p, lvl)))
    assert _coarsest_step(v, p, lvl)
    return before, np.max(np.abs(_interior_defect(v, p, lvl)))


def test_one_coarsest_newton_step_cuts_the_defect_quadratically():
    glp, lvl, u = _coarse_gl_problem()
    assert np.max(np.abs(_interior_defect(u, glp, lvl))) < 1e-12

    def order(p):
        (b1, a1), (b2, a2) = _newton_defects(p, lvl, u, 1e-2), _newton_defects(p, lvl, u, 1e-3)
        return math.log(a1 / a2) / math.log(b1 / b2)

    assert order(glp) >= 1.8
    # must fail: without the D2W blocks in J the step is Picard's, linear
    picard = potentials.Potential("gl-picard", 2, glp.w, glp.grad,
                                  lambda v: np.zeros(v.shape + (2,)))
    assert order(picard) < 1.5


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_the_suite_solves_take_newton_on_the_coarsest_grid_within_nine_cycles(h):
    # the divergence-decay solves: GL (m = 2), identity-map data, boundary start
    n = int(round(1.0 / h)) + 1
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(h, h), shape=(n, n),
        boundary=fields.make_field("harmonic_linear_map"), max_iters=400_000, tol=1e-10,
    )
    result = solver.relax(potentials.make_potential("ginzburg_landau", m=2), cfg)
    assert result.converged and result.iterations <= 9
    assert 0 < result.newton_steps <= result.iterations


def test_a_nonconvex_coarsest_grid_keeps_the_sweeps(monkeypatch):
    # the concave W of test_unstable_potential_blows_up, on four levels
    concave = potentials.Potential(
        "concave", 1, lambda u: -25.0 * np.sum(u * u, axis=-1), lambda u: -50.0 * u,
        lambda u: np.broadcast_to(-50.0 * np.eye(1), u.shape[:-1] + (1, 1)))
    cfg = solver.RelaxConfig(
        origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(17, 17),
        boundary=fields.make_field("constant", value=[0.1], n=2), max_iters=1, tol=1e-14,
    )
    one_cycle = solver.relax(concave, cfg)
    assert one_cycle.levels == 4 and one_cycle.newton_steps == 0
    visits, coarsest_solve = [], solver._coarsest_solve
    monkeypatch.setattr(solver, "_coarsest_solve", lambda *args: visits.append(coarsest_solve(*args)) or visits[-1])
    with pytest.raises(solver.RelaxError, match="blew up"):
        solver.relax(concave, dataclasses.replace(cfg, max_iters=100_000))
    assert visits and not any(visits)

    def sweeps(u, p, lvl, f, a, g):
        solver._smooth(u, p, lvl, f, solver._COARSEST_SWEEPS, a, g)
        return False

    monkeypatch.setattr(solver, "_coarsest_solve", sweeps)
    reference = solver.relax(concave, cfg)
    assert np.array_equal(one_cycle.field.values.view("<u8"), reference.field.values.view("<u8"))


def test_a_large_coarsest_grid_builds_no_dense_matrix_and_takes_the_sweeps(monkeypatch):
    # 151 x 151 GL (m = 2) coarsens once, to 76 x 76: 10,952 unknowns, whose
    # dense Lap_H would be 0.96 GB
    def refuse(*args):
        raise AssertionError("dense Lap_H built")

    monkeypatch.setattr(solver, "_interior_laplacian", refuse)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(0.01, 0.01), shape=(151, 151),
        boundary=fields.make_field("harmonic_linear_map"), max_iters=2, tol=1e-14,
    )
    result = solver.relax(potentials.make_potential("ginzburg_landau", m=2), cfg)
    assert result.levels == 2 and result.iterations == 2 and result.newton_steps == 0


@pytest.mark.parametrize("shape, m, dense", [
    pytest.param((21, 21), 2, True, id="6x6-m2"),
    pytest.param((41, 41), 2, True, id="11x11-m2"),
    pytest.param((21, 21), 16, True, id="6x6-m16-at-the-cap"),
    pytest.param((21, 21), 17, False, id="6x6-m17-past-the-cap"),
])
def test_the_coarsest_grid_holds_its_dense_laplacian_up_to_the_cap(shape, m, dense):
    levels = solver._hierarchy(shape, (0.05, 0.05), m, 4.0)
    assert (levels[-1].lap is not None) is dense
    assert all(lvl.lap is None for lvl in levels[:-1])


# Cycles to tol 1e-9 with the 16 sweeps on every coarsest grid, measured
# with the Newton step switched off (_NEWTON_MAX_UNKNOWNS = 0), keyed by
# (A, side, h); the Newton step must never cost a cycle against them
_SWEEPS_ONLY_CYCLES = {
    (0.1, 1, 0.05): 7, (0.1, 2, 0.1): 8, (0.1, 4, 0.2): 8, (0.1, 8, 0.2): 11, (0.1, 16, 0.4): 24,
    (0.2, 1, 0.05): 8, (0.2, 2, 0.1): 8, (0.2, 4, 0.2): 9, (0.2, 8, 0.2): 14, (0.2, 16, 0.4): 56,
    (0.5, 1, 0.05): 8, (0.5, 2, 0.1): 8, (0.5, 4, 0.2): 11, (0.5, 8, 0.2): 31, (0.5, 16, 0.4): 211,
}


def _square_matrix_case(a, side, h):
    """GL (m = 2) with data A x = a x on [-side/2, side/2]^2, to tol 1e-9."""
    n = int(round(side / h)) + 1
    cfg = solver.RelaxConfig(
        origin=(-side / 2, -side / 2), spacing=(h, h), shape=(n, n),
        boundary=fields.make_field("harmonic_linear_map", A=[[a, 0.0], [0.0, a]]), max_iters=1000, tol=1e-9,
    )
    return potentials.make_potential("ginzburg_landau", m=2), cfg


@pytest.mark.parametrize("a, side, h", list(_SWEEPS_ONLY_CYCLES))
def test_gl_relaxation_converges_over_the_square_matrix(a, side, h):
    # On the side-16 squares the coarsest grid has spacing 3.2, where an
    # unguarded Newton step overcorrects the fine grid: the runs stalled
    # near 1e-7 to 5e-6
    glp, cfg = _square_matrix_case(a, side, h)
    result = solver.relax(glp, cfg)
    assert result.converged and result.iterations <= _SWEEPS_ONLY_CYCLES[a, side, h]
    if side == 1:
        # the unit squares, as in the suite and the relax ladder, keep the
        # Newton step in every cycle
        assert result.newton_steps == result.iterations


def _sum_formula_gl():
    # GL (m = 2) from np.sum's formulas, the reductions the column sums replace
    def w(u):
        return 0.25 * np.square(np.sum(u**2, axis=-1) - 1.0)

    def grad(u):
        return (np.sum(u**2, axis=-1) - 1.0)[..., None] * u

    def hess(u):
        q = np.sum(u**2, axis=-1) - 1.0
        return q[..., None, None] * np.eye(2) + 2.0 * u[..., :, None] * u[..., None, :]

    gl = potentials.make_potential("ginzburg_landau", m=2)
    return potentials.Potential("gl_by_np_sum", 2, w, grad, hess)


def test_relaxation_with_the_column_sums_is_the_np_sum_relaxation_bit_for_bit(monkeypatch):
    # the relax ladder's h = 0.05 rung: identity data, a seeded start
    h, n = 0.05, 21
    axis = -0.5 + h * np.arange(n)
    start = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    start += np.random.default_rng(77).uniform(-0.01, 0.01, start.shape)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(h, h), shape=(n, n),
        boundary=fields.make_field("harmonic_linear_map"), max_iters=400_000, tol=1e-10,
    )
    init = fields.GridField((-0.5, -0.5), (h, h), start)
    ours = solver.relax(potentials.make_potential("ginzburg_landau", m=2), cfg, init=init)
    monkeypatch.setattr(solver, "_defect", _reference_defect)
    ref = solver.relax(_sum_formula_gl(), cfg, init=init)
    assert ours.converged
    _assert_same_run(ours, ref)


def _strip_case():
    """The suite's transition strip, 81 x 6: one level, an even width."""
    cfg = solver.RelaxConfig(
        origin=(-4.0, 0.0), spacing=(0.1, 0.1), shape=(81, 6),
        boundary=fields.make_field("tanh_planar"), max_iters=20_000, tol=1e-8,
    )
    return potentials.make_potential("double_well"), cfg


@pytest.mark.parametrize("case", list(_SWEEPS_ONLY_CYCLES) + ["strip"],
                         ids=lambda c: c if c == "strip" else "A{}-side{}-h{}".format(*c))
def test_whole_row_relaxation_is_the_2d_stencil_relaxation_bit_for_bit(case, monkeypatch):
    # the row kernel, one grad W per sweep and the carried defects against
    # the 2-D stencil with a fresh grad W at every defect
    p, cfg = _strip_case() if case == "strip" else _square_matrix_case(*case)
    ours = solver.relax(p, cfg)
    monkeypatch.setattr(solver, "_defect", _reference_defect)
    _assert_same_run(ours, solver.relax(p, cfg))


# grad W evaluations to relax the relax ladder's h = 0.025 rung (41 x 41,
# four levels, 9 cycles) from the identity start: 280 with a fresh gradient
# for each colour and each coarse defect, 145 with one per sweep and the
# defects carried down and into the next cycle, 118 with the coarse defect
# reading the injected nodes' gradient from the fine defect's
_LADDER_GRAD_CALLS = 118


def _ladder_grad_calls() -> int:
    gl, calls = potentials.make_potential("ginzburg_landau", m=2), []

    def grad(u):
        calls.append(u.shape)
        return gl.grad(u)

    counting = potentials.Potential("gl_counting", 2, gl.w, grad, gl.hess)
    cfg = solver.RelaxConfig(
        origin=(-0.5, -0.5), spacing=(0.025, 0.025), shape=(41, 41),
        boundary=fields.make_field("harmonic_linear_map"), max_iters=400_000, tol=1e-10,
    )
    result = solver.relax(counting, cfg)
    assert result.converged and (result.levels, result.iterations) == (4, 9)
    return len(calls)


def test_the_ladder_rung_takes_one_gradient_per_sweep(monkeypatch):
    assert _ladder_grad_calls() == _LADDER_GRAD_CALLS
    # must fail: a fresh gradient for each colour, two per sweep
    defect = solver._defect
    monkeypatch.setattr(solver, "_defect", lambda u, p, spacing, f, g: defect(u, p, spacing, f, None))
    assert _ladder_grad_calls() > _LADDER_GRAD_CALLS
