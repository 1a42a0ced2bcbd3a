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
        core = v[1:-1, 1:-1]
        return ((v[2:, 1:-1] - 2 * core + v[:-2, 1:-1]) / h1**2
                + (v[1:-1, 2:] - 2 * core + v[1:-1, :-2]) / h2**2)

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

    concave = potentials.Potential("concave", 1, {}, (), w, grad, hess)
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

