import csv
import math

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


def test_integrate_many_matches_unbatched_runs():
    # the R^2 grid of the speed-envelope check, radially unstable R^2 > 2/3 included
    R_grid = np.sqrt(np.linspace(0.05, 0.95, 19))
    starts = [dynamics.orbit_family(float(R)).start_state() for R in R_grid]
    batch = dynamics.integrate_many(GL, starts, 1e-3, 6000)
    assert len(batch) == len(starts)
    for start, traj in zip(starts, batch):
        alone = dynamics.integrate(GL, start, 1e-3, 6000)
        assert np.array_equal(traj.u, alone.u)
        assert np.array_equal(traj.v, alone.v)
        assert np.array_equal(traj.H, alone.H)
        assert np.array_equal(traj.times, alone.times)
        ref_u, ref_v = _verlet_reference(GL, start, 1e-3, 6000)
        assert np.array_equal(traj.u, ref_u) and np.array_equal(traj.v, ref_v)
        assert traj.u.flags.c_contiguous and traj.u.base is not None  # a view of the batch buffer


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


def test_integrate_many_rejects_bad_batches():
    with pytest.raises(ValueError, match="at least one"):
        dynamics.integrate_many(GL, [], 1e-3, 10)
    mixed = [dynamics.orbit_family(0.5).start_state(), dynamics.PhasePoint([0.1], [0.0])]
    with pytest.raises(ValueError, match="same dimension"):
        dynamics.integrate_many(GL, mixed, 1e-3, 10)


def test_trajectory_csv_format(tmp_path):
    traj = dynamics.integrate(GL, dynamics.orbit_family(0.5).start_state(), 1e-2, 5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u_1,u_2,v_1,v_2,H"
    assert len(lines) == 7
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[1]) == 0.5  # starts on the circle
    # repr round-trip: parsing the text reproduces the stored floats exactly
    assert float(lines[3].split(",")[5]) == traj.H[2]


def _csv_writer_rows(traj, path):
    """The trajectory CSV as csv.writer writes it, one repr per field."""
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


def test_trajectory_csv_is_byte_equal_to_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    n = 2500  # more than two blocks of rows
    special = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1])
    u = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-20, 20, (n, 2))
    v = rng.standard_normal((n, 2))
    H = rng.standard_normal(n)
    u[1024 : 1024 + len(special), 0] = special
    v[:len(special), 1] = special
    H[-len(special):] = special
    traj = dynamics.Trajectory(np.arange(n) * 1e-3, u, v, H)
    traj.to_csv(tmp_path / "new.csv")
    _csv_writer_rows(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# heteroclinic shooting


def test_heteroclinic_matches_tanh_profile():
    traj = dynamics.shoot_heteroclinic(DW, -1.0, 1.0)
    # time 0 is the midpoint u = 0, so the profile is tanh(t / sqrt 2) as it stands
    mask = np.abs(traj.times) < 15.0
    ref = np.tanh(traj.times[mask] / math.sqrt(2.0))
    assert np.max(np.abs(traj.u[mask, 0] - ref)) < 1e-10


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

    p = potentials.Potential("triple", 1, {}, (np.array([-1.0]), np.array([0.0]), np.array([1.0])),
                             w, grad, hess)
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

    p = potentials.Potential("quartic_wells", 1, {}, (np.array([-1.0]), np.array([1.0])), w, grad, hess)
    with pytest.raises(RuntimeError, match="max_span"):
        dynamics.shoot_heteroclinic(p, -1.0, 1.0)
