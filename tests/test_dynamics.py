import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modicalab import dynamics, potentials

GL = potentials.make_potential("ginzburg_landau", m=2)
DW = potentials.make_potential("double_well")


def test_phase_point_validation():
    with pytest.raises(ValueError):
        dynamics.PhasePoint(np.zeros(2), np.zeros(3))


def test_orbit_family_closed_forms():
    fam = dynamics.orbit_family(0.5)
    assert fam.lam == 0.25 * 0.75**2
    assert fam.mu == 0.75
    assert abs(fam.period - 2 * math.pi / math.sqrt(0.75)) < 1e-15
    assert fam.H == (-3 * 0.5**4 + 4 * 0.5**2 - 1) / 4
    with pytest.raises(ValueError):
        dynamics.orbit_family(1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_start_state_hamiltonian_matches_family(R):
    """H computed from the phase point equals the family's closed form."""
    fam = dynamics.orbit_family(R)
    s = fam.start_state()
    assert abs(0.5 * np.sum(s.v**2) - GL.w(s.u) - fam.H) < 1e-14


def test_hamiltonian_sign_change_at_one_third():
    below = dynamics.orbit_family(math.sqrt(1.0 / 3.0 - 1e-6))
    above = dynamics.orbit_family(math.sqrt(1.0 / 3.0 + 1e-6))
    assert below.H < 0.0 < above.H
    at = dynamics.orbit_family(math.sqrt(1.0 / 3.0))
    assert abs(at.H) < 1e-15


def test_integrate_one_orbit_period():
    fam = dynamics.orbit_family(0.5)
    dt = 1e-3
    steps = int(round(fam.period / dt))
    traj = dynamics.integrate(GL, fam.start_state(), dt, steps)
    assert traj.drift() < 1e-9
    # the orbit is closed: the endpoint returns near the start
    gap = np.linalg.norm(traj.u[-1] - traj.u[0])
    assert gap < 5e-3  # period not an exact multiple of dt, plus O(dt^2) error
    assert traj.m == 2
    assert np.array_equal(traj.times, dt * np.arange(steps + 1))


def test_integrate_is_time_reversible():
    fam = dynamics.orbit_family(0.4)
    traj = dynamics.integrate(GL, fam.start_state(), 1e-3, 500)
    back = dynamics.integrate(GL, dynamics.PhasePoint(traj.u[-1], -traj.v[-1]), 1e-3, 500)
    assert np.max(np.abs(back.u[-1] - traj.u[0])) < 1e-10


def test_integrate_argument_validation():
    with pytest.raises(ValueError):
        dynamics.integrate(GL, dynamics.orbit_family(0.5).start_state(), -1.0, 10)
    for bad in ({"dt": math.nan}, {"drift_tol": math.nan}, {"drift_tol": -1.0}):
        kw = {"dt": 1e-3, "steps": 10, **bad}
        with pytest.raises(ValueError):
            dynamics.integrate(GL, dynamics.orbit_family(0.5).start_state(), **kw)


def test_blowup_carries_partial_trajectory():
    # u'' = u along the unstable direction grows like e^t and must trip the guard
    quad = potentials.make_potential("quadratic", m=1)
    start = dynamics.PhasePoint(np.array([1.0]), np.array([1.0]))
    with pytest.raises(dynamics.BlowUpError, match=r"^blow-up at step \d+ \(t = ") as info:
        dynamics.integrate(quad, start, 1e-2, 5000)
    partial = info.value.trajectory
    assert len(partial.times) < 5001
    assert np.all(np.abs(partial.u) <= 1e6)
    assert np.max(np.abs(partial.u)) > 1e6 / math.exp(0.02)  # stopped within one step of the bound


def test_drift_tol_is_enforced():
    # dt = 0.1 is far too coarse for this orbit: H drifts by about 1e-4
    start = dynamics.PhasePoint(np.array([0.5, 0.0]), np.array([0.1, 0.3]))
    with pytest.raises(dynamics.BlowUpError, match=r"energy drift 1\.0\d\de-04 > drift_tol 1e-06") as info:
        dynamics.integrate(GL, start, 0.1, 200, drift_tol=1e-6)
    assert len(info.value.trajectory.times) == 201
    assert info.value.trajectory.drift() > 1e-6
    loose = dynamics.integrate(GL, start, 0.1, 200, drift_tol=math.inf)
    assert np.array_equal(loose.H, info.value.trajectory.H)


def _verlet_reference(p, start, dt, steps):
    """Single-state position Verlet, step for step as integrate ran unbatched."""
    u, v = start.u.copy(), start.v.copy()
    uu, vv = [u], [v]
    for _ in range(steps):
        u_mid = u + 0.5 * dt * v
        v = v + dt * p.grad(u_mid)
        u = u_mid + 0.5 * dt * v
        uu.append(u)
        vv.append(v)
    return np.array(uu), np.array(vv)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view("<u8"), b.view("<u8"))


def test_integrate_many_matches_unbatched_runs():
    # integrate steps each planar GL start on Python floats, integrate_many on
    # numpy rows.  The R^2 grid of the speed-envelope check includes the
    # radially unstable R^2 > 2/3, where a rounding difference would grow
    # like e^(sqrt(6 R^2 - 4) t)
    R_grid = np.sqrt(np.linspace(0.05, 0.95, 19))
    starts = [dynamics.orbit_family(float(R)).start_state() for R in R_grid]
    batch = dynamics.integrate_many(GL, starts, 1e-3, 6000)
    assert len(batch) == len(starts)
    for start, traj in zip(starts, batch):
        alone = dynamics.integrate(GL, start, 1e-3, 6000)
        assert _same_bits(traj.u, alone.u) and _same_bits(traj.v, alone.v)
        assert _same_bits(traj.H, alone.H) and _same_bits(traj.times, alone.times)
        ref_u, ref_v = _verlet_reference(GL, start, 1e-3, 6000)
        assert np.array_equal(traj.u, ref_u) and np.array_equal(traj.v, ref_v)
        assert traj.u.base is not None and traj.v.base is not None  # views of the time-major buffers
    # one start has its buffers to itself, so its rows are contiguous
    assert dynamics.integrate(GL, starts[0], 1e-3, 10).u.flags.c_contiguous
    assert dynamics.integrate_many(GL, starts[:1], 1e-3, 10)[0].u.flags.c_contiguous


def test_the_float_loop_matches_the_batch_loop_over_a_full_period():
    fam = dynamics.orbit_family(0.5)
    steps = int(math.ceil(fam.period / 1e-3))
    alone = dynamics.integrate(GL, fam.start_state(), 1e-3, steps, drift_tol=math.inf)
    (row,) = dynamics.integrate_many(GL, [fam.start_state()], 1e-3, steps, drift_tol=math.inf)
    for a, b in ((alone.u, row.u), (alone.v, row.v), (alone.H, row.H), (alone.times, row.times)):
        assert _same_bits(a, b)
    assert alone.drift() < 1e-9 and np.linalg.norm(alone.u[-1] - alone.u[0]) < 5e-3


def test_a_planar_gl_orbit_never_calls_the_array_gradient():
    # the float loop is the fast path: a refactor that falls back to the
    # numpy loop for one start must fail here.  The point kernel runs once
    # per step
    calls = []

    def refuse(u):
        raise AssertionError("array gradient called")

    def point(x, y):
        calls.append(1)
        return GL._grad.point(x, y)

    refuse.point = point
    fast = dataclasses.replace(GL, _grad=refuse)
    start = dynamics.orbit_family(0.5).start_state()
    traj = dynamics.integrate(fast, start, 1e-3, 600)
    assert len(calls) == 600
    assert _same_bits(traj.u, dynamics.integrate(GL, start, 1e-3, 600).u)
    with pytest.raises(AssertionError, match="array gradient called"):
        dynamics.integrate_many(fast, [start], 1e-3, 600)


def test_integrate_many_on_gl_never_calls_the_allocating_gradient(monkeypatch):
    # the batch loop writes GL's gradient through its kernel into one buffer
    starts = [dynamics.orbit_family(R).start_state() for R in (0.3, 0.5, 0.9)]
    ref = dynamics.integrate_many(GL, starts, 1e-3, 600)
    # a gradient with no kernel goes through the adapter, with the same bits
    plain = dataclasses.replace(GL, _grad=lambda u: GL._grad(u))
    for a, b in zip(ref, dynamics.integrate_many(plain, starts, 1e-3, 600)):
        assert _same_bits(a.u, b.u) and _same_bits(a.v, b.v) and _same_bits(a.H, b.H)

    def refuse(self, u):
        raise AssertionError("Potential.grad called")

    monkeypatch.setattr(potentials.Potential, "grad", refuse)
    for a, b in zip(ref, dynamics.integrate_many(GL, starts, 1e-3, 600)):
        assert _same_bits(a.u, b.u) and _same_bits(a.v, b.v) and _same_bits(a.H, b.H)
    # must fail: the adapter's potential calls it
    with pytest.raises(AssertionError, match="Potential.grad called"):
        dynamics.integrate_many(plain, starts, 1e-3, 600)
    # the kernel checks no shape, so the loop checks the starts' dimension first
    with pytest.raises(ValueError, match="trailing axis of length 2"):
        dynamics.integrate_many(GL, [dynamics.PhasePoint(np.zeros(3), np.zeros(3))], 1e-3, 10)


def _own_H(p, traj):
    return 0.5 * potentials._sum_columns(traj.v * traj.v) - p.w(traj.u)


def test_each_trajectory_h_is_its_own_energy_row_for_row():
    # H is taken a 256-step block at a time on the whole batch; each row
    # must be the bits of 0.5|v|^2 - W(u) on that trajectory alone
    starts = [dynamics.orbit_family(R).start_state() for R in (0.2, 0.6, 0.8)]
    starts.append(dynamics.PhasePoint(np.array([0.3, -0.1]), np.array([0.2, 0.4])))
    for steps in (1, 255, 256, 257, 700):
        trajs = dynamics.integrate_many(GL, starts, 1e-3, steps)
        trajs.append(dynamics.integrate(GL, starts[-1], 1e-3, steps))
        for traj in trajs:
            assert len(traj.H) == steps + 1 and _same_bits(traj.H, _own_H(GL, traj))
    # the drift error's whole trajectory, from both loops
    start = dynamics.PhasePoint(np.array([0.5, 0.0]), np.array([0.1, 0.3]))
    for run in (lambda: dynamics.integrate(GL, start, 0.1, 600, drift_tol=1e-6),
                lambda: dynamics.integrate_many(GL, [starts[0], start], 0.1, 600, drift_tol=1e-6)):
        with pytest.raises(dynamics.BlowUpError, match="energy drift") as info:
            run()
        assert _same_bits(info.value.trajectory.H, _own_H(GL, info.value.trajectory))
    # the valid prefix of a blow-up in the second block, from both loops
    wild = dynamics.PhasePoint(np.array([3.0, 0.0]), np.zeros(2))
    for run in (lambda: dynamics.integrate(GL, wild, 1e-3, 1000),
                lambda: dynamics.integrate_many(GL, [starts[0], wild], 1e-3, 1000)):
        with pytest.raises(dynamics.BlowUpError, match="blow-up at step 640") as info:
            run()
        partial = info.value.trajectory
        assert len(partial.H) == 640 and _same_bits(partial.H, _own_H(GL, partial))


def test_integrate_many_blowup_names_the_trajectory():
    quad = potentials.make_potential("quadratic", m=2)
    calm = [dynamics.PhasePoint(np.array([0.0, 0.0]), np.array([0.0, 0.0]))] * 2
    wild = dynamics.PhasePoint(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(dynamics.BlowUpError, match=r"^trajectory 2: blow-up at step \d+") as info:
        dynamics.integrate_many(quad, calm + [wild], 1e-2, 5000)
    partial = info.value.trajectory
    assert 1 < len(partial.times) < 5001
    assert np.all(np.abs(partial.u) <= 1e6)
    assert np.array_equal(partial.u[0], wild.u)


def _stepwise_until_blowup(p, starts, dt, steps):
    """The batched position-Verlet loop with its blow-up test after every step:
    (k, i, u, v) of the first step k at which trajectory i, the first to fail
    there, leaves [-1e6, 1e6], with that trajectory's valid prefix."""
    u = np.array([s.u for s in starts])
    v = np.array([s.v for s in starts])
    uu, vv = [u], [v]
    for k in range(1, steps + 1):
        u_mid = u + 0.5 * dt * v
        v = v + dt * p.grad(u_mid)
        u = u_mid + 0.5 * dt * v
        inside = np.abs(u) <= 1e6
        if not inside.all():
            i = int(np.argmin(inside.all(axis=1)))
            return k, i, np.array(uu)[:, i], np.array(vv)[:, i]
        uu.append(u)
        vv.append(v)
    raise AssertionError("no blow-up within the steps")


@pytest.mark.parametrize("target, steps", [(1, 10), (100, 200), (300, 600), (256, 600), (257, 600),
                                           (512, 600), (580, 600), (600, 600)])
def test_block_blowup_gate_reports_the_stepwise_first_failure(target, steps):
    # u'' = u grows by about e^dt per step along u = v, so an amplitude 1e6 e^(-dt (target - 1/2))
    # crosses 1e6 at step `target`: trajectory 0 fails three steps after trajectories 2 and 3,
    # which fail together, and the step loop reports trajectory 2
    quad = potentials.make_potential("quadratic", m=2)
    dt = 1e-2

    def wild(target, axis):
        a = 1e6 * math.exp(-dt * (target - 0.5))
        return dynamics.PhasePoint(a * np.eye(2)[axis], a * np.eye(2)[axis])

    calm = dynamics.PhasePoint(np.zeros(2), np.zeros(2))
    starts = [wild(target + 3, 0), calm, wild(target, 1), wild(target, 0)]
    k, i, ref_u, ref_v = _stepwise_until_blowup(quad, starts, dt, steps)
    assert (k, i) == (target, 2)
    with pytest.raises(dynamics.BlowUpError) as info:
        dynamics.integrate_many(quad, starts, dt, steps)
    assert str(info.value) == f"trajectory 2: blow-up at step {k} (t = {k * dt:g})"
    partial = info.value.trajectory
    assert np.array_equal(partial.times, dt * np.arange(k))
    assert np.array_equal(partial.u, ref_u) and np.array_equal(partial.v, ref_v)
    with pytest.raises(dynamics.BlowUpError, match=rf"^blow-up at step {target} \(t = {target * dt:g}\)$"):
        dynamics.integrate(quad, starts[2], dt, steps)


@pytest.mark.parametrize("u0, v0, dt, k", [
    ((3.0, 0.0), (0.0, 0.0), 1e-2, 66),
    ((1.2, 0.9), (0.3, -0.2), 1e-2, 139),
    ((3.0, 0.0), (0.0, 0.0), 0.002506, 256),
    ((3.0, 0.0), (0.0, 0.0), 0.002496, 257),
    ((0.0, 1.5), (0.0, 0.0), 5e-3, 290),
    ((3.0, 0.0), (0.0, 0.0), 1e-3, 640),
])
def test_a_planar_gl_blowup_matches_its_batch_row(u0, v0, dt, k):
    # outside the unit disk the cubic force blows up in finite time; the
    # float loop runs on through inf and nan to the end of its 256-step
    # block as numpy does, and must report the same step and prefix
    start = dynamics.PhasePoint(np.array(u0), np.array(v0))
    rest = dynamics.PhasePoint(np.zeros(2), np.zeros(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(dynamics.BlowUpError, match=rf"^blow-up at step {k} \(t = {k * dt:g}\)$") as alone:
            dynamics.integrate(GL, start, dt, 1000)
    assert caught == []
    with pytest.raises(dynamics.BlowUpError, match=rf"^trajectory 1: blow-up at step {k} ") as batch:
        dynamics.integrate_many(GL, [rest, start], dt, 1000)
    a, b = alone.value.trajectory, batch.value.trajectory
    for x, y in ((a.u, b.u), (a.v, b.v), (a.H, b.H), (a.times, b.times)):
        assert _same_bits(x, y)
    with np.errstate(all="ignore"):
        assert _stepwise_until_blowup(GL, [start], dt, 1000)[0] == k


def test_a_planar_gl_drift_failure_matches_its_batch_row():
    start = dynamics.PhasePoint(np.array([0.5, 0.0]), np.array([0.1, 0.3]))
    rest = dynamics.PhasePoint(np.zeros(2), np.zeros(2))
    with pytest.raises(dynamics.BlowUpError, match=r"^energy drift 1\.0\d\de-04 > drift_tol 1e-06$") as alone:
        dynamics.integrate(GL, start, 0.1, 200, drift_tol=1e-6)
    with pytest.raises(dynamics.BlowUpError, match=r"^trajectory 1: energy drift") as batch:
        dynamics.integrate_many(GL, [rest, start], 0.1, 200, drift_tol=1e-6)
    assert str(batch.value) == "trajectory 1: " + str(alone.value)
    a, b = alone.value.trajectory, batch.value.trajectory
    assert _same_bits(a.u, b.u) and _same_bits(a.v, b.v) and _same_bits(a.H, b.H)


def test_block_runs_past_an_overflow_without_warnings():
    # the cubic force overflows to inf and nan within a few steps of the blow-up,
    # and the rest of the 256-step block runs on those values
    gl1 = potentials.make_potential("ginzburg_landau", m=1)
    start = dynamics.PhasePoint(np.array([3e3]), np.array([0.0]))
    with np.errstate(all="ignore"):
        k, _, ref_u, ref_v = _stepwise_until_blowup(gl1, [start], 1e-2, 300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(dynamics.BlowUpError, match=rf"^blow-up at step {k} ") as info:
            dynamics.integrate(gl1, start, 1e-2, 300)
    assert caught == []
    assert np.array_equal(info.value.trajectory.u, ref_u) and np.array_equal(info.value.trajectory.v, ref_v)


def test_a_potential_that_raises_past_the_blowup_still_reports_the_blowup():
    quad = potentials.make_potential("quadratic", m=1)

    def finite_grad(u):
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite state")
        return quad.grad(u)

    picky = potentials.Potential("picky", 1, quad.w, finite_grad, quad.hess)
    # at dt = 100 the state grows about 1e4-fold per step: past 1e6 at step 2, inf within the block
    start = dynamics.PhasePoint(np.array([1.0]), np.array([1.0]))
    with np.errstate(all="ignore"):
        k, _, ref_u, _ = _stepwise_until_blowup(quad, [start], 100.0, 200)
    with pytest.raises(dynamics.BlowUpError, match=rf"^blow-up at step {k} ") as info:
        dynamics.integrate(picky, start, 100.0, 200)
    assert np.array_equal(info.value.trajectory.u, ref_u)
    # with no blow-up before it, the potential's own error is the result
    with pytest.raises(ValueError, match="non-finite state"):
        dynamics.integrate(picky, dynamics.PhasePoint(np.array([math.nan]), np.array([0.0])), 1e-2, 10)


def test_integrate_many_rejects_bad_batches():
    with pytest.raises(ValueError, match="at least one"):
        dynamics.integrate_many(GL, [], 1e-3, 10)
    mixed = [dynamics.orbit_family(0.5).start_state(), dynamics.PhasePoint([0.1], [0.0])]
    with pytest.raises(ValueError, match="same dimension"):
        dynamics.integrate_many(GL, mixed, 1e-3, 10)


def test_trajectory_npy_format(tmp_path):
    traj = dynamics.integrate(GL, dynamics.orbit_family(0.5).start_state(), 1e-2, 5)
    path = tmp_path / "traj.npy"
    traj.save(path)
    rows = np.load(path, allow_pickle=False)
    assert rows.dtype == np.dtype("<f8") and rows.flags.c_contiguous and rows.shape == (6, 6)
    assert json.loads((tmp_path / "traj.npy.json").read_text()) == {"columns": ["t", "u_1", "u_2", "v_1", "v_2", "H"]}
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == 0.5  # starts on the circle
    assert np.array_equal(rows[:, 5], traj.H)


def _csv_writer_rows(traj, path):
    """The trajectory as the CSV format wrote it: csv.writer, one repr per field."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t"] + [f"u_{j+1}" for j in range(traj.m)] + [f"v_{j+1}" for j in range(traj.m)] + ["H"])
        for k in range(len(traj.times)):
            wr.writerow(
                [repr(float(traj.times[k]))]
                + [repr(float(x)) for x in traj.u[k]]
                + [repr(float(x)) for x in traj.v[k]]
                + [repr(float(traj.H[k]))]
            )


def test_trajectory_array_is_bit_equal_to_the_csv_values(tmp_path):
    rng = np.random.default_rng(5)
    n = 2500
    special = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1])
    u = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-20, 20, (n, 2))
    v = rng.standard_normal((n, 2))
    H = rng.standard_normal(n)
    u[1024 : 1024 + len(special), 0] = special
    v[:len(special), 1] = special
    H[-len(special):] = special
    traj = dynamics.Trajectory(np.arange(n) * 1e-3, u, v, H)
    traj.save(tmp_path / "new.npy")
    _csv_writer_rows(traj, tmp_path / "old.csv")
    with open(tmp_path / "old.csv", newline="") as fh:
        header, *text = list(csv.reader(fh))
    old = np.array([[float(x) for x in row] for row in text])
    new = np.load(tmp_path / "new.npy", allow_pickle=False)
    assert json.loads((tmp_path / "new.npy.json").read_text())["columns"] == header
    # as integers, so that -0.0 differs from 0.0 and NaN equals itself
    assert np.array_equal(new.view("<u8"), old.view("<u8"))


# ---------------------------------------------------------------------------
# heteroclinic shooting


def test_heteroclinic_matches_tanh_profile():
    traj = dynamics.shoot_heteroclinic(DW, -1.0, 1.0)
    # time 0 is the midpoint u = 0, so the profile is tanh(t / sqrt 2) as it stands
    mask = np.abs(traj.times) < 15.0
    ref = np.tanh(traj.times[mask] / math.sqrt(2.0))
    assert np.max(np.abs(traj.u[mask, 0] - ref)) < 1e-13


def test_heteroclinic_equipartition():
    traj = dynamics.shoot_heteroclinic(DW, -1.0, 1.0)
    kin = 0.5 * traj.v[:, 0] ** 2
    pot = np.asarray(DW.w(traj.u))
    assert np.max(np.abs(kin - pot)) < 1e-12
    assert np.max(np.abs(traj.H)) < 1e-12


def test_heteroclinic_rejects_bad_endpoints():
    with pytest.raises(ValueError, match="zeros of the potential"):
        dynamics.shoot_heteroclinic(DW, -0.5, 1.0)
    with pytest.raises(ValueError, match="a_minus < a_plus"):
        dynamics.shoot_heteroclinic(DW, 1.0, -1.0)
    gl3 = potentials.make_potential("ginzburg_landau", m=2)
    with pytest.raises(ValueError, match="scalar"):
        dynamics.shoot_heteroclinic(gl3, -1.0, 1.0)


def test_heteroclinic_rejects_interior_zero():
    # a triple well vanishing at 0 strictly between -1 and 1: no monotone connection
    def w(u):
        return (u[..., 0] ** 2 * (u[..., 0] ** 2 - 1.0)) ** 2

    def grad(u):
        x = u[..., :1]
        return 2.0 * (x**4 - x**2) * (4.0 * x**3 - 2.0 * x)

    def hess(u):
        x = u[..., 0]
        q, dq = x**4 - x**2, 4.0 * x**3 - 2.0 * x
        return (2.0 * dq**2 + 2.0 * q * (12.0 * x**2 - 2.0))[..., None, None]

    p = potentials.Potential("triple", 1, w, grad, hess)
    with pytest.raises(ValueError, match="vanishes between the wells"):
        dynamics.shoot_heteroclinic(p, -1.0, 1.0)


def test_heteroclinic_rejects_a_degenerate_well():
    # W = (1 - u^2)^4 / 4 vanishes to fourth order at the wells: the time to
    # come within tol of them grows like 1 / tol and exceeds max_span
    def w(u):
        return 0.25 * (1.0 - u[..., 0] ** 2) ** 4

    def grad(u):
        x = u[..., :1]
        return -2.0 * x * (1.0 - x**2) ** 3

    def hess(u):
        x = u[..., 0]
        return (-2.0 * (1.0 - x**2) ** 3 + 12.0 * x**2 * (1.0 - x**2) ** 2)[..., None, None]

    p = potentials.Potential("quartic_wells", 1, w, grad, hess)
    with pytest.raises(RuntimeError, match="max_span"):
        dynamics.shoot_heteroclinic(p, -1.0, 1.0)
