import math

import numpy as np
import pytest

from modicalab import counterexample as cx
from modicalab import smooth


def test_plateau_level_from_energy_bookkeeping():
    assert cx.lambda_from_hamiltonian() == 0.375


def test_rho_profile_shape():
    rho = cx.RhoSpec()
    a = np.linspace(-0.5, 2.0, 501)
    r = rho.rho(a)
    assert np.all(r[a <= 0.25] == a[a <= 0.25])  # identity below the blend
    assert np.all(r[a >= 0.75] == 0.5)  # plateau above it
    assert np.all(np.diff(r) >= 0.0)
    assert np.all(rho.drho(a) >= 0.0)
    d2 = rho.d2rho(a)
    assert np.all(d2[(a <= 0.25) | (a >= 0.75)] == 0.0)


def test_rho_derivative_consistency():
    rho = cx.RhoSpec()
    a = np.linspace(0.26, 0.74, 97)
    h = 1e-6
    fd = (rho.rho(a + h) - rho.rho(a - h)) / (2 * h)
    assert np.max(np.abs(fd - rho.drho(a))) < 1e-8


def test_segment_crossings_and_drift(assembled):
    seg = assembled.pc.segment
    assert 0.0 < seg.t1 < seg.t2
    y0, v0 = seg.sol(0.0)
    assert abs(y0) < 1e-14 and abs(v0 - 0.5) < 1e-14
    y1, _ = seg.sol(seg.t1)
    assert abs(y1 - math.sqrt(0.75)) < 1e-10
    y2, v2 = seg.sol(seg.t2)
    assert abs(y2 - 1.0) < 1e-10
    assert abs(v2 - 1.0) < 1e-8  # unit speed at hand-off (H = 1/8, W = 3/8)
    assert seg.inversion_residual <= 1e-12


def test_segment_rejects_bad_step_and_stalling_level():
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            cx.solve_segment(0.375, dt=dt)
    # (y')^2 = 1/4 + 4 lam rho(y^2) reaches 0 before y = 1 once lam <= -1/8
    with pytest.raises(cx.ConstructionError, match="stalls"):
        cx.solve_segment(-0.125)


def test_construction_numbers_are_pinned(assembled):
    pc = assembled.pc
    assert abs(pc.t1 - 1.236139355377995) < 1e-12
    assert abs(pc.t2 - 1.3701139515935563) < 1e-12
    assert abs(pc.curve.ell - 3.542611664357815) < 1e-12


def test_half_length_closes_the_arc(assembled):
    """ell = -2 / C with C the mean of cos theta over the unit half-arc,
    computed here by cumulative Simpson sums of the bump on a fine grid."""
    curve = assembled.pc.curve
    sigma = np.linspace(0.0, 1.0, 2 * 4096 + 1)
    h = sigma[1] - sigma[0]
    b = smooth.bump01(sigma)
    pair = (h / 3.0) * (b[:-2:2] + 4.0 * b[1:-1:2] + b[2::2])  # Simpson over [2j h, (2j + 2) h]
    B = np.concatenate([[0.0], np.cumsum(pair)])  # at the even nodes
    theta = 0.5 * math.pi * (1.0 + B / B[-1])
    c = np.cos(theta)
    H = 2.0 * h
    C = (H / 3.0) * (c[0] + 4.0 * np.sum(c[1:-1:2]) + 2.0 * np.sum(c[2:-1:2]) + c[-1])
    assert abs(curve.ell + 2.0 / C) < 1e-12
    assert abs(curve.gamma(curve.ell)[0]) < 1e-12


def test_segment_profile_monotone(assembled):
    seg = assembled.pc.segment
    assert np.all(np.diff(seg.y) > 0.0)


def test_curve_endpoints_and_unit_speed(assembled):
    curve = assembled.pc.curve
    assert np.max(np.abs(curve.gamma(0.0) - [2.0, 1.0])) < 1e-13
    assert np.max(np.abs(curve.gamma(curve.L) - [-2.0, 1.0])) < 1e-10
    assert curve.closure_defect < 1e-12
    # arclength parametrization: chord length over small steps is ~1
    s = np.linspace(0.1, curve.L - 0.1, 23)
    d = 1e-6
    chord = np.linalg.norm(curve.gamma(s + d) - curve.gamma(s - d), axis=1) / (2 * d)
    assert np.max(np.abs(chord - 1.0)) < 1e-7


def test_curve_starts_vertical(assembled):
    curve = assembled.pc.curve
    t0 = curve.tangent(np.array([0.0]))[0]
    assert np.max(np.abs(t0 - [0.0, 1.0])) < 1e-14
    tm = curve.tangent(np.array([curve.ell]))[0]
    assert np.max(np.abs(tm - [-1.0, 0.0])) < 1e-12  # quarter turn at the apex


def test_curve_curvature_profile(assembled):
    curve = assembled.pc.curve
    s = np.linspace(0.0, curve.L, 101)
    k = curve.kappa(s)
    assert np.all(k >= 0.0)
    assert abs(np.max(k) - curve.max_kappa) < 1e-10
    assert k[0] == 0.0 and k[-1] == 0.0  # flat contact with the straight pieces


def test_tube_radius_respects_curvature(assembled):
    pc = assembled.pc
    assert pc.eps_tube == 0.1
    assert pc.eps_tube * pc.curve.max_kappa < 0.5  # tube coordinates stay regular


def test_times_grid_divides_period(assembled):
    pc = assembled.pc
    assert abs(pc.times[-1] - pc.T) < 1e-12
    assert abs(pc.T - 2.0 * (pc.t2 + pc.t3)) < 1e-14


def test_orbit_period_wrap_and_antisymmetry(assembled):
    pc = assembled.pc
    u0, v0 = pc.orbit(np.array([0.0]))
    uT, vT = pc.orbit(np.array([pc.T]))
    assert np.max(np.abs(uT - u0)) < 1e-12
    t = np.linspace(0.0, 0.5 * pc.T, 37)
    ua, _ = pc.orbit(t)
    ub, _ = pc.orbit(t + 0.5 * pc.T)
    assert np.max(np.abs(ua + ub)) < 1e-10


def test_global_potential_wells(assembled):
    pot = assembled.pc.potential
    for well in (cx.A_PLUS, cx.A_MINUS):
        assert abs(pot.w(well)) < 1e-15
        assert np.max(np.abs(pot.grad(well))) < 1e-12
    # far from both patches and the arc the potential sits on the plateau
    assert abs(pot.w(np.array([0.0, -2.0])) - assembled.pc.lam) < 1e-12


def test_global_potential_nonnegative(assembled):
    pot = assembled.pc.potential
    rng = np.random.default_rng(2)
    pts = rng.uniform(-4.5, 4.5, size=(400, 2))
    assert np.min(pot.w(pts)) >= 0.0


def test_potential_matches_phase_decomposition(assembled):
    """The projection-based global W and grad W agree with the phase
    formulas at the stored samples."""
    pc = assembled.pc
    idx = np.arange(0, len(pc.times), 41)
    w_phase, g_phase = (a[idx] for a in pc._sampled)
    assert np.max(np.abs(pc.potential.w(pc.u[idx]) - w_phase)) < 1e-8
    assert np.max(np.abs(pc.potential.grad(pc.u[idx]) - g_phase)) < 1e-8


def test_global_potential_on_the_orbit_equals_the_phase_formulas(assembled):
    """On the segments the global potential resolves the orbit's samples to
    the patch piece at the same offset (0, u_2) as `_along`; on the arc it
    projects them back onto the curve, mu = 0 up to roundoff."""
    pc = assembled.pc
    _, _, ph_a, ph_b, ph_c = pc._phases(pc.times)
    w, g = pc.potential.w(pc.u), pc.potential.grad(pc.u)
    w_s, g_s = pc._sampled
    seg = ph_a | ph_c
    assert np.array_equal(w[seg], w_s[seg])
    assert np.array_equal(g[seg], g_s[seg])
    assert np.max(np.abs(w[ph_b] - w_s[ph_b])) <= 1e-12
    assert np.max(np.abs(g[ph_b] - g_s[ph_b])) <= 1e-12


def test_lower_tube_mirrors_the_upper_one(assembled):
    """w(x, -y) = w(x, y) and grad W(x, -y) = (g_1, -g_2) bit for bit, on
    tube, patch and background points."""
    pc = assembled.pc
    curve, eps = pc.curve, pc.eps_tube
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, curve.L, 400)
    tube = curve.gamma(s) + rng.uniform(-eps, eps, 400)[:, None] * curve.normal(s)
    patch = rng.uniform(-1.0, 1.0, (200, 2)) + np.where(rng.random((200, 1)) < 0.5, cx.A_PLUS, cx.A_MINUS)
    background = rng.uniform([-4.0, 0.0], [4.0, 4.0], (400, 2))
    upper = np.concatenate([tube, patch, background])
    lower = upper * np.array([1.0, -1.0])
    p = pc.potential
    assert np.array_equal(p.w(lower), p.w(upper))
    g_up, g_low = p.grad(upper), p.grad(lower)
    assert np.array_equal(g_low[:, 0], g_up[:, 0])
    assert np.array_equal(g_low[:, 1], -g_up[:, 1])
    in_tube = np.abs(curve.project(upper)[1]) <= eps
    assert np.count_nonzero(np.any(g_up != 0.0, axis=1) & in_tube) > 100  # the tube is sampled


def _inverted_w_grad(pc, x):
    """W and grad W along the orbit with every segment height found by
    inverting t(y) phase by phase, without the stored samples."""
    x = np.mod(x, pc.T)
    half = x >= 0.5 * pc.T
    xr = np.where(half, x - 0.5 * pc.T, x)
    w = np.full(len(x), pc.lam)
    g = np.zeros((len(x), 2))
    ph_b = (xr > pc.t2) & (xr <= pc.t3)
    for ph, xi in ((xr <= pc.t2, xr), (xr > pc.t3, np.clip(pc.t2 + pc.t3 - xr, 0.0, pc.t2))):
        y = pc.segment.sol(xi[ph])[0]
        w[ph] = 2.0 * pc.lam * cx.RhoSpec().rho(y**2)
        g[ph, 1] = 4.0 * pc.lam * cx.RhoSpec().drho(y**2) * y
    s = xr[ph_b] - pc.t2
    g[ph_b] = pc.curve.kappa(s)[:, None] * pc.curve.normal(s)
    g[half] *= -1.0
    return w, g


@pytest.mark.parametrize("dt", [1e-3, 2e-3])
def test_stored_samples_give_the_inverted_potential_bit_for_bit(assembled, dt):
    pc = assembled.pc if dt == 1e-3 else cx.assemble(dt=dt)
    w, g = pc._sampled
    w_inv, g_inv = _inverted_w_grad(pc, pc.times)
    assert np.array_equal(w, w_inv)
    assert np.array_equal(g, g_inv)


def test_project_coarse_search_matches_the_broadcast_search(assembled):
    pc = assembled.pc
    curve = pc.curve
    rng = np.random.default_rng(11)
    s = rng.uniform(0.0, curve.L, 700)
    tube = curve.gamma(s) + rng.uniform(-pc.eps_tube, pc.eps_tube, 700)[:, None] * curve.normal(s)
    patch = rng.uniform(-1.0, 1.0, (300, 2)) + np.array([2.0, 0.0])
    background = rng.uniform([-3.5, -1.5], [3.5, 4.0], (306, 2))
    pts = np.concatenate([tube, patch, background])

    nodes = np.concatenate([curve._gamma_nodes, curve._gamma_nodes[::-1][1:] * np.array([-1.0, 1.0])])
    s_nodes = curve.ell * curve._arc.edges
    full_s = np.concatenate([s_nodes, curve.L - s_nodes[::-1][1:]])
    stride = max(1, len(nodes) // 1024)
    cand, cand_s = nodes[::stride], full_s[::stride]
    expected = np.concatenate([
        cand_s[np.argmin(np.sum((chunk[:, None, :] - cand[None, :, :]) ** 2, axis=-1), axis=1)]
        for chunk in np.array_split(pts, 3)
    ])
    assert np.array_equal(curve.project(pts, newton_iters=0)[0], expected)


def test_hamiltonian_series_is_constant(assembled):
    P = assembled.pc.hamiltonian_series()
    assert np.max(np.abs(P - 0.125)) < 1e-7


def test_ode_residual(assembled):
    assert assembled.pc.ode_residual() <= 1e-5


def test_verify_counterexample_report(assembled):
    rep = cx.verify_counterexample(assembled.pc)
    assert rep["checks_pass"] is True
    assert rep["liouville_violated"] is True
    assert abs(rep["modica_defect"] - 0.125) < 1e-7
    assert rep["endpoint_start"] == [2.0, 0.0]
    assert rep["endpoint_half"] == [-2.0, 0.0]
    assert rep["w_at_start"] == 0.0
    assert rep["oscillation"] > 1.0
    assert rep["curve"]["profile"] == "exp-flat-bump"
