import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from modicalab import counterexample as cx
from modicalab import dynamics, potentials, smooth


def test_plateau_level_from_energy_bookkeeping():
    assert cx.lambda_from_hamiltonian() == 0.375


def test_rho_profile_shape():
    a = np.linspace(-0.5, 2.0, 501)
    r = cx.rho(a)
    assert np.all(r[a <= 0.25] == a[a <= 0.25])  # identity below the blend
    assert np.all(r[a >= 0.75] == 0.5)  # plateau above it
    assert np.all(np.diff(r) >= 0.0)
    assert np.all(cx.drho(a) >= 0.0)
    d2 = cx.d2rho(a)
    assert np.all(d2[(a <= 0.25) | (a >= 0.75)] == 0.0)


def test_rho_derivative_consistency():
    a = np.linspace(0.26, 0.74, 97)
    h = 1e-6
    fd = (cx.rho(a + h) - cx.rho(a - h)) / (2 * h)
    assert np.max(np.abs(fd - cx.drho(a))) < 1e-8


def test_segment_crossings_and_drift(assembled):
    """The orbit on the right segment: at rest height 0 with speed 1/2, the
    plateau entry sqrt(3)/2 at t1, and y = 1 at unit speed at t2."""
    pc = assembled.pc
    assert 0.0 < pc.t1 < pc.t2
    u, v = pc.orbit(np.array([0.0, pc.t1, pc.t2]))
    assert np.all(u[:, 0] == 2.0) and np.all(v[:, 0] == 0.0)
    assert abs(u[0, 1]) < 1e-14 and abs(v[0, 1] - 0.5) < 1e-14
    assert abs(u[1, 1] - math.sqrt(0.75)) < 1e-10
    assert abs(u[2, 1] - 1.0) < 1e-10
    assert abs(v[2, 1] - 1.0) < 1e-8  # unit speed at hand-off (H = 1/8, W = 3/8)


def test_a_segment_read_off_the_clock_fails_the_inversion_gate(monkeypatch):
    """Heights 1e-9 above the clock's inverse, and nothing else moved, make
    assemble refuse the connection."""
    inverse = smooth._PanelIntegral.inverse
    monkeypatch.setattr(smooth._PanelIntegral, "inverse", lambda self, F: inverse(self, F) + 1e-9)
    with pytest.raises(cx.ConstructionError, match="segment inversion residual"):
        cx.assemble()


def test_segment_rejects_bad_step_and_stalling_level():
    """assemble refuses a step that samples no orbit, and the clock a level
    at which the orbit stalls."""
    for dt in (0.0, -1e-3, math.nan, math.inf, 1e300):  # 1e300 rounds to no step in the period
        with pytest.raises(ValueError, match="dt must be positive and at most half the period"):
            cx.assemble(dt=dt)
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
    pc = assembled.pc
    assert np.all(np.diff(pc.u[pc.times <= pc.t2, 1]) > 0.0)


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


def test_orbit_rows_of_times_that_are_not_finite_are_nan(assembled):
    pc = assembled.pc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, v = pc.orbit(np.array([np.nan, np.inf, 0.0, -np.inf]))
    assert np.isnan(u[[0, 1, 3]]).all() and np.isnan(v[[0, 1, 3]]).all()
    u0, v0 = pc.orbit(np.array([0.0]))
    assert np.array_equal(u[2].view("<u8"), u0[0].view("<u8"))
    assert np.array_equal(v[2].view("<u8"), v0[0].view("<u8"))


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
        y = pc.clock.inverse(xi[ph])
        w[ph] = 2.0 * pc.lam * cx.rho(y**2)
        g[ph, 1] = 4.0 * pc.lam * cx.drho(y**2) * y
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


def _broadcast_nearest(curve, pts):
    """Arclength of the nearest of the coarse candidates, every 32nd node of
    the whole arc, by one broadcast distance matrix per chunk of rows."""
    nodes = np.concatenate([curve._gamma_nodes, curve._gamma_nodes[::-1][1:] * np.array([-1.0, 1.0])])
    s_nodes = curve.ell * curve._arc.edges
    full_s = np.concatenate([s_nodes, curve.L - s_nodes[::-1][1:]])
    stride = max(1, len(nodes) // 1024)
    cand, cand_s = nodes[::stride], full_s[::stride]
    return np.concatenate([
        cand_s[np.argmin(np.sum((chunk[:, None, :] - cand[None, :, :]) ** 2, axis=-1), axis=1)]
        for chunk in np.array_split(pts, 3)
    ])


def _arc_points(pc, n, seed, width=1.0):
    """n points gamma(s) + mu n(s) with |mu| <= width eps."""
    curve = pc.curve
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, curve.L, n)
    return curve.gamma(s) + rng.uniform(-width, width, n)[:, None] * pc.eps_tube * curve.normal(s)


def test_project_coarse_search_matches_the_broadcast_search(assembled):
    """Tube, patch and background points, and adversarial ones: exact
    mirror ties on u_1 = 0 (the first index wins), the candidates
    themselves, the concave interior of the arc, the corners of the tube's
    box and an empty batch.  The pruned search gives the broadcast argmin."""
    pc = assembled.pc
    curve = pc.curve
    rng = np.random.default_rng(11)
    patch = rng.uniform(-1.0, 1.0, (300, 2)) + np.array([2.0, 0.0])
    background = rng.uniform([-3.5, -1.5], [3.5, 4.0], (306, 2))
    apex = float(curve.gamma(curve.ell)[1])
    mirror_axis = np.stack([np.zeros(300), rng.uniform(-1.0, apex + 1.0, 300)], -1)
    mirror_pairs = rng.uniform([0.0, 0.0], [2.5, apex + 0.5], (200, 2))
    interior = rng.uniform([-1.8, 1.0], [1.8, apex - 0.2], (600, 2))
    x0, x1, y0, y1 = pc._global._bbox
    corners = np.array([[x, y] for x in (x0, x1) for y in (y0, y1)])
    corners = np.concatenate([corners, np.tile(corners, (20, 1)) + rng.uniform(-0.05, 0.05, (80, 2))])
    pts = np.concatenate([
        _arc_points(pc, 700, 11), patch, background, mirror_axis, mirror_pairs,
        mirror_pairs * np.array([-1.0, 1.0]), curve._node_table[0][::32], interior, corners,
    ])
    assert np.array_equal(curve._coarse(pts), _broadcast_nearest(curve, pts))
    # on u_1 = 0 the mirror ties resolve to the first half, as in the broadcast search
    assert np.all(curve._coarse(mirror_axis) <= curve.ell)
    assert curve._coarse(np.empty((0, 2))).shape == (0,)


def _coarse_work(curve, pts, monkeypatch):
    """(rows that took the full search, candidates farther from their
    block's sparse node than the block radius): the pruning's work and the
    bound that makes it exact."""
    taken = []
    nearest = cx.CurveSpec._nearest

    def counted(self, q):
        taken.append(len(q))
        return nearest(self, q)

    monkeypatch.setattr(cx.CurveSpec, "_nearest", counted)
    curve._coarse(pts)
    monkeypatch.setattr(cx.CurveSpec, "_nearest", nearest)
    _, cand_x, cand_y, radius = curve._candidates
    i = np.arange(len(cand_x))
    j = 16 * np.rint(i / 16.0).astype(int)
    spread = np.hypot(cand_x - cand_x[j], cand_y - cand_y[j])
    return sum(taken), int(np.count_nonzero(spread > radius))


def test_no_point_near_the_arc_takes_the_full_coarse_search(assembled, monkeypatch):
    """Within eps of the arc every row is certified by its window, and the
    block radius bounds every candidate's distance from its sparse node;
    a halved radius breaks that bound."""
    pc = assembled.pc
    pts = _arc_points(pc, 5000, 29)
    assert _coarse_work(pc.curve, pts, monkeypatch) == (0, 0)
    # the full search still serves the rows no window certifies
    assert _coarse_work(pc.curve, np.zeros((3, 2)), monkeypatch)[0] == 3
    halved = cx.build_curve()
    cand_s, cand_x, cand_y, radius = halved._candidates
    halved.__dict__["_candidates"] = (cand_s, cand_x, cand_y, 0.5 * radius)
    assert _coarse_work(halved, pts, monkeypatch)[1] > 0


def test_verify_builds_no_node_table():
    """The suite's path, assemble and verify, projects no point, so it never
    pays for the Hermite node table that the coarse search and Newton read,
    nor for the coarse search's candidates."""
    pc = cx.assemble()
    cx.verify_counterexample(pc)
    assert "_node_table" not in vars(pc.curve)
    assert "_candidates" not in vars(pc.curve)


def _hessian_probe_points(pc, n=60, seed=13):
    """Tube, patch and background points, points within 1e-5 of the patch
    edge, of the tube edge |mu| = eps and of the tube's box, and points at
    h, 2h and 3h (h = 1e-5) to either side of the support |mu| = 5 eps / 6
    of the tube's gradient, each mirrored to u_2 < 0 with probability 1/2."""
    curve, eps = pc.curve, pc.eps_tube
    rng = np.random.default_rng(seed)

    def jitter(k=n):
        return rng.uniform(-1e-5, 1e-5, k)

    def on_arc(offset):
        s = rng.uniform(0.0, curve.L, n)
        return curve.gamma(s) + offset[:, None] * curve.normal(s)

    well = np.where(rng.random((n, 1)) < 0.5, cx.A_PLUS, cx.A_MINUS)
    side = rng.choice([-1.0, 1.0], n)
    along = rng.uniform(-1.0, 1.0, n)
    across = side * (1.0 + jitter())
    patch_edge = well + np.where(rng.random((n, 1)) < 0.5, np.stack([across, along], -1), np.stack([along, across], -1))
    x0, x1, y0, y1 = pc._global._bbox
    box_edge = np.concatenate([
        np.stack([rng.choice([x0, x1], n // 2) + jitter(n // 2), rng.uniform(y0, y1, n // 2)], -1),
        np.stack([rng.uniform(x0, x1, n // 2), rng.choice([y0, y1], n // 2) + jitter(n // 2)], -1),
    ])
    pts = np.concatenate([
        on_arc(rng.uniform(-eps, eps, n)),
        rng.uniform(-1.0, 1.0, (n, 2)) + well,
        rng.uniform([-4.0, -3.0], [4.0, 3.0], (n, 2)),
        patch_edge,
        on_arc(rng.choice([-eps, eps], n) + jitter()),
        box_edge,
        on_arc(rng.choice([-1.0, 1.0], n) * (5.0 * eps / 6.0 + 1e-5 * rng.choice([-3, -2, -1, 1, 2, 3], n))),
    ])
    pts[:, 1] *= rng.choice([-1.0, 1.0], len(pts))
    return pts


def test_hessian_is_the_central_difference_of_single_point_gradients(assembled):
    """Off the patches hess is the symmetrized central difference of grad
    with h = 1e-5, here from single-point grad calls, each with its own cold
    projection; on the patches it is the closed form."""
    pc = assembled.pc
    p, h = pc.potential, 1e-5
    X = _hessian_probe_points(pc)
    _, patch, v = pc._global._patches(X)
    expect = np.empty((len(X), 2, 2))
    for k, x in enumerate(X):
        if patch[k]:
            expect[k] = pc._global.patch.hess(v[k])
            continue
        H = np.stack([(p.grad(x + e) - p.grad(x - e)) / (2.0 * h) for e in h * np.eye(2)], axis=-1)
        expect[k] = 0.5 * (H + H.T)
    assert np.max(np.abs(p.hess(X) - expect)) <= 1e-7
    assert np.count_nonzero(np.abs(expect[~patch]) > 1e-3) > 50  # the tube's Hessian is sampled


def test_one_point_equals_its_row_of_a_batch(assembled):
    p = assembled.pc.potential
    X = _hessian_probe_points(assembled.pc, n=20)
    for fn in (p.w, p.grad, p.hess):
        rows = fn(X)
        for k, x in enumerate(X):
            assert np.array_equal(fn(x), rows[k]), (fn.__name__, k)


def test_mirror_flips_the_mixed_second_derivative(assembled):
    p = assembled.pc.potential
    upper = _hessian_probe_points(assembled.pc)
    upper[:, 1] = np.abs(upper[:, 1])
    H_up, H_low = p.hess(upper), p.hess(upper * np.array([1.0, -1.0]))
    assert np.array_equal(H_low[:, 0, 1], -H_up[:, 0, 1])
    assert np.array_equal(H_low[:, 1, 0], -H_up[:, 1, 0])
    assert np.array_equal(H_low[:, 0, 0], H_up[:, 0, 0])
    assert np.array_equal(H_low[:, 1, 1], H_up[:, 1, 1])


def test_projection_matches_six_exact_newton_steps(assembled):
    """(s, mu) of `project` against Newton on the exact curve alone, from
    the same coarse start, on points up to 1.2 eps from the arc."""
    pc = assembled.pc
    curve = pc.curve
    rng = np.random.default_rng(17)
    s_true = rng.uniform(0.0, curve.L, 800)
    pts = curve.gamma(s_true) + rng.uniform(-1.2, 1.2, 800)[:, None] * pc.eps_tube * curve.normal(s_true)
    s = curve._coarse(pts)
    for _ in range(6):
        tvec, nvec = curve._frame(s)
        diff = pts - curve.gamma(s)
        den = 1.0 - curve.kappa(s) * np.sum(diff * nvec, axis=-1)
        s = np.clip(s + np.sum(diff * tvec, axis=-1) / np.where(np.abs(den) < 0.1, 0.1, den), 0.0, curve.L)
    mu = np.sum((pts - curve.gamma(s)) * curve.normal(s), axis=-1)
    got_s, got_mu = curve.project(pts)
    assert np.max(np.abs(got_s - s)) <= 1e-13
    assert np.max(np.abs(got_mu - mu)) <= 1e-13


def test_hessian_projects_each_point_once(assembled, monkeypatch):
    """One hess call runs the coarse search once, for its centres, and the
    exact curve four times: a Newton step and the final (s, mu), once for
    the centres and once for the stencil points."""
    X = _hessian_probe_points(assembled.pc)
    counts = {"gamma": 0, "_coarse": 0}
    for name in counts:
        method = getattr(cx.CurveSpec, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cx.CurveSpec, name, counted)
    assembled.pc.potential.hess(X)
    assert counts["_coarse"] == 1
    assert counts["gamma"] <= 4


def _stencil_newton_rows(pc, X, monkeypatch):
    """(stencil rows one hess call runs Newton on, stencil points off the
    patches and in the tube's box whose centre's cold |mu| is at most
    5 eps / 6 + 2h, those centres): what the stencil projects, what the
    gradient needs, and the bound on both."""
    rows = {"project": 0, "_newton": 0}
    for name in rows:
        method = getattr(cx.CurveSpec, name)

        def counted(self, pts, *args, _name=name, _method=method):
            rows[_name] += len(pts)
            return _method(self, pts, *args)

        monkeypatch.setattr(cx.CurveSpec, name, counted)
    pc.potential.hess(X)
    monkeypatch.undo()
    g, h = pc._global, 1e-5
    flat, patch, _ = g._patches(X)
    rest = flat[~patch]
    inside = np.abs(pc.curve.project(g._folded(rest)[0])[1]) <= 5.0 * pc.eps_tube / 6.0 + 2.0 * h
    stencil = np.concatenate([rest + d for d in h * np.concatenate([np.eye(2), -np.eye(2)])])
    live = (~g._patches(stencil)[1] & g._folded(stencil)[1]).reshape(4, -1)
    return rows["_newton"] - rows["project"], int(np.count_nonzero(live[:, inside])), int(np.count_nonzero(inside))


def test_hessian_stencil_newton_stops_at_the_tube_support(assembled, monkeypatch):
    """The stencil Newton runs on exactly the stencil points, off the patches
    and in the box, of the centres within the support plus 2h: at most four
    per such centre.  A threshold of eps / 2 skips points the gradient needs."""
    pc = assembled.pc
    X = _hessian_probe_points(pc)
    projected, needed, centres = _stencil_newton_rows(pc, X, monkeypatch)
    assert projected == needed <= 4 * centres
    assert needed > 0
    monkeypatch.setattr(cx.TubePotential, "support", property(lambda self: self.eps / 2.0 - 2e-5))
    projected, needed, _ = _stencil_newton_rows(pc, X, monkeypatch)
    assert projected < needed


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


# ---------------------------------------------------------------------------
# the cumulative tables: one Hermite read per query, no quadrature inside


@pytest.fixture(scope="module")
def tables():
    """The four module-level tables, built without the checks of assemble."""
    curve = cx.build_curve()
    return {
        "smoothstep": smooth._smoothstep_table(),
        "tangent-angle": curve._ieta,
        "arc": curve._arc,
        "segment-clock": cx.solve_segment(cx.lambda_from_hamiltonian()),
    }


def _partial_panel(P, x):
    """The read the Hermite interpolant replaces: the prefix sum up to x's
    panel plus the 8-point Gauss-Legendre rule from the panel's edge to x."""
    k = np.minimum(((x - P.a) / P.h).astype(int), P.panels - 1)
    lo = P.edges[k]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = 0.5 * (x - lo)[:, None] * (nodes + 1.0) + lo[:, None]
    return P.table[..., k] + 0.5 * (x - lo) * (P.f(t) @ weights)


@pytest.mark.parametrize("name", ["smoothstep", "tangent-angle", "arc", "segment-clock"])
def test_table_read_matches_the_partial_panel(tables, name):
    """Each table's quintic Hermite read agrees with the table plus an exact
    partial panel to 1e-15 at 2 x 10^4 seeded points (measured: at most
    4.4e-16, on the segment clock).  Storing h f' in place of h^2 f' misses
    by far more than that."""
    P = tables[name]
    x = np.random.default_rng(17).uniform(P.edges[0], P.edges[-1], 20_000)
    assert np.max(np.abs(P(x) - _partial_panel(P, x))) <= 1e-15


def test_queries_evaluate_no_kernel(assembled, monkeypatch):
    """Once the tables are built, reading the curve, the segment orbit and
    the smoothstep integral evaluates no flat exponential and no bump: every
    cumulative integral is one table read, with no quadrature nested in it.
    The counter itself sees the kernels that a query does call."""
    pc = assembled.pc
    smooth.smoothstep_integral(0.25)  # builds the smoothstep table before counting
    evaluated = []

    def counted(kernel):
        def wrapper(t):
            evaluated.append(np.size(t))
            return kernel(t)
        return wrapper

    for name in ("flat_exp", "bump01"):
        monkeypatch.setattr(smooth, name, counted(getattr(smooth, name)))
    s = np.linspace(0.0, pc.curve.L, 1000)
    pc.curve.gamma(s)
    pc.curve.theta(s)
    pc.curve.tangent(s)
    pc.orbit(np.linspace(0.0, pc.t2, 1000))  # the right segment only
    smooth.smoothstep_integral(np.linspace(-0.5, 1.5, 1000))
    assert sum(evaluated) == 0
    pc.curve.kappa(s)
    smooth.smoothstep(s)
    assert sum(evaluated) == 3000


def test_import_builds_no_table():
    """The command line's import leaves every lazily built table unbuilt."""
    code = (
        "import modicalab.cli\n"
        "from modicalab import counterexample, smooth\n"
        "print([len(counterexample._CLOCKS)] + [f.cache_info().currsize for f in"
        " (smooth._smoothstep_table, smooth._gauss_legendre, modicalab.cli.build_parser)])\n"
    )
    # a child process: only a cold import shows what the import builds, and
    # earlier tests in this process have built every table
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0]"


def _one_shot(f, df, a, b, panels):
    """(table, slope, bend) from one pass of the Gauss-Legendre rule over
    every panel's abscissae at once: the build before it went by blocks."""
    edges = np.linspace(a, b, panels + 1)
    width = np.diff(edges)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = 0.5 * width[:, None] * (nodes + 1.0) + edges[:-1, None]
    sums = np.cumsum(0.5 * width * (f(t) @ weights), axis=-1)
    table = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
    h = (b - a) / panels
    return table, h * f(edges), h**2 * df(edges)


def _bits(a):
    return np.ascontiguousarray(a).view("<u8")


def _assert_one_shot(P, f, df, a, b, panels):
    for built, reference in zip((P.table, P.slope, P.bend), _one_shot(f, df, a, b, panels)):
        assert built.shape == reference.shape
        assert np.array_equal(_bits(built), _bits(reference))


def test_every_table_matches_its_one_shot_build(monkeypatch):
    """The segment clock, the smoothstep table, both heteroclinic clocks, the
    bump integral and the 2-vector unit arc, each built in blocks of panels,
    equal the one-pass build bit for bit in table, slope and bend."""
    built = []

    class Recorded(smooth._PanelIntegral):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, args))

    smooth._smoothstep_table()  # the segment clock's integrand reads it
    monkeypatch.setattr(smooth, "_PanelIntegral", Recorded)
    monkeypatch.setattr(cx, "_CLOCKS", {})  # a fresh build, not the cached clock
    cx.solve_segment(cx.lambda_from_hamiltonian())
    smooth._smoothstep_table.__wrapped__()
    dynamics.shoot_heteroclinic(potentials.make_potential("double_well"), -1.0, 1.0)
    cx.build_curve()
    assert sorted(args[-1] for _, args in built) == [512, 1024, 4096, 4096, 8192, 16384]
    assert built[-1][0].table.shape == (2, 16385)  # the unit arc
    for P, args in built:
        _assert_one_shot(P, *args)


def test_a_table_with_a_partial_last_block_matches_its_one_shot_build():
    """1,500 panels: one whole block and a partial one."""
    args = (smooth.bump01, smooth.bump01_d, 0.0, 1.0, 1500)
    assert 1500 % (smooth._BLOCK // 8) != 0
    _assert_one_shot(smooth._PanelIntegral(*args), *args)


@pytest.mark.parametrize("name", ["smoothstep", "tangent-angle", "arc", "segment-clock"])
def test_a_read_of_many_blocks_equals_its_pieces_bit_for_bit(tables, name):
    """A query of 20,000 points, or of shape (100, 200), is read a block at a
    time, bit for bit as its pieces of 1,000 points are read alone, with the
    query's shape after a vector integrand's component axis."""
    P = tables[name]
    x = np.random.default_rng(5).uniform(P.edges[0], P.edges[-1], 20_000)
    pieces = np.concatenate([P(x[lo : lo + 1000]) for lo in range(0, x.size, 1000)], axis=-1)
    assert x.size > smooth._BLOCK
    assert np.array_equal(_bits(P(x)), _bits(pieces))
    grid = P(x.reshape(100, 200))
    assert grid.shape == pieces.shape[:-1] + (100, 200)
    assert np.array_equal(_bits(grid).reshape(pieces.shape), _bits(pieces))


def test_build_curve_traced_peak_stays_under_4_mb():
    """Both curve tables built in blocks of panels: the traced peak of
    build_curve is 2.3 MB (the one-pass build took 13.2 MB).  The Gauss-
    Legendre rule is computed before tracing, since its first use imports
    numpy's polynomial package."""
    smooth._gauss_legendre(8)
    tracemalloc.start()
    try:
        cx.build_curve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"build_curve traced peak {peak / 1e6:.2f} MB"


def test_a_nan_read_is_nan_and_leaves_the_other_lanes_alone(tables, assembled):
    """A NaN query reads NaN, with no warning, and every finite lane of the
    same query reads what it reads alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P in tables.values():
            x = np.linspace(P.edges[0], P.edges[-1], 7)
            mixed = P(np.insert(x, 3, np.nan))
            assert np.all(np.isnan(mixed[..., 3]))
            assert np.array_equal(_bits(np.delete(mixed, 3, axis=-1)), _bits(P(x)))
        pc = assembled.pc
        y = pc.clock.inverse(np.array([np.nan, 0.5]))
        v = 1.0 / pc.clock.f(y)
        assert np.isnan(y[0]) and np.isnan(v[0]) and np.isfinite(y[1]) and np.isfinite(v[1])
        g = pc.curve.gamma(np.array([np.nan, 1.0]))
        assert np.all(np.isnan(g[0])) and np.all(np.isfinite(g[1]))


def test_the_potential_is_nan_on_nan_rows_and_lam_at_infinity(assembled):
    """A row holding a NaN has NaN W, gradient and Hessian; an infinite row
    keeps the plateau value lam, its limit; the finite rows are untouched."""
    P = assembled.pc.potential
    lam = assembled.pc.lam
    finite = np.array([[2.0, 0.3], [0.0, 1.0], [-1.5, -1.2]])
    bad = np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.inf], [np.inf, 0.0], [-np.inf, np.inf]])
    u = np.concatenate([finite, bad])
    w, g, H = P.w(u), P.grad(u), P.hess(u)
    assert np.all(np.isnan(w[3:6])) and np.all(np.isnan(g[3:6])) and np.all(np.isnan(H[3:6]))
    assert np.all(w[6:] == lam) and np.all(g[6:] == 0.0) and np.all(H[6:] == 0.0)
    for fn, rows in ((P.w, w), (P.grad, g), (P.hess, H)):
        assert np.array_equal(fn(finite), rows[:3])
