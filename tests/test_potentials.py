import math

import numpy as np
import pytest

from modicalab import potentials

ALL_IDS = potentials.POTENTIAL_IDS


def test_catalog_is_closed():
    with pytest.raises(ValueError, match="unknown potential id"):
        potentials.make_potential("sombrero")


@pytest.mark.parametrize("name, params, message", [
    ("double_well", {"m": 3}, "takes no parameter 'm'; accepted: none"),
    ("ginzburg_landau", {"bogus": 3}, "takes no parameter 'bogus'; accepted: m"),
    ("n_well", {"N": 4, "M": 2}, "takes no parameter 'M'; accepted: N"),
])
def test_make_potential_rejects_params_the_potential_does_not_take(name, params, message):
    with pytest.raises(ValueError, match=message):
        potentials.make_potential(name, **params)


def test_double_well_values():
    p = potentials.make_potential("double_well")
    assert p.m == 1
    u = np.array([[1.0], [-1.0], [0.0], [0.5]])
    w = p.w(u)
    assert w[0] == 0.0 and w[1] == 0.0
    assert w[2] == 0.25
    assert abs(w[3] - 0.25 * 0.75**2) < 1e-16
    # grad = (u^2-1)u, hess = 3u^2-1
    assert np.allclose(p.grad(u)[:, 0], (u[:, 0] ** 2 - 1) * u[:, 0])
    assert np.allclose(p.hess(u)[:, 0, 0], 3 * u[:, 0] ** 2 - 1)


def test_double_well_zeros_are_nondegenerate():
    p = potentials.make_potential("double_well")
    for z in ([-1.0], [1.0]):
        assert abs(p.w(z)) < 1e-15
        assert np.max(np.abs(p.grad(z))) < 1e-15
        assert np.min(np.linalg.eigvalsh(p.hess(z))) > 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ginzburg_landau_vanishes_on_sphere(m):
    p = potentials.make_potential("ginzburg_landau", m=m)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((50, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    assert np.max(np.abs(p.w(u))) < 1e-14
    assert np.max(np.abs(p.grad(u))) < 1e-14


def _same_bits(a, b) -> bool:
    # integer bit patterns, which tell -0.0 from 0.0 and compare nan as equal
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view("<u8"), b.view("<u8"))


@pytest.mark.parametrize("m", range(1, 10))
@pytest.mark.parametrize("lead", [(), (40,), (6, 7)])
def test_ginzburg_landau_gradient_is_bit_identical_to_its_closed_form(m, lead):
    # w and hess too, against np.sum's formulas; from m = 8 on the column
    # sum is numpy's own reduction
    p = potentials.make_potential("ginzburg_landau", m=m)
    u = 1.5 * np.random.default_rng(11).standard_normal(lead + (m,))
    q = np.sum(u**2, axis=-1) - 1.0
    assert _same_bits(p.w(u), 0.25 * np.square(q))
    assert _same_bits(p.grad(u), q[..., None] * u)
    assert _same_bits(p.hess(u), q[..., None, None] * np.eye(m) + 2.0 * u[..., :, None] * u[..., None, :])


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, -2.2e-308, 1.0, -3.0, 1e308, -1e308]


@pytest.mark.parametrize("m", range(1, 10))
def test_the_column_sum_is_numpys_sum_bit_for_bit(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((3000, m)) * 10.0 ** rng.integers(-30, 30, (3000, m))
    special = rng.random((3000, m)) < 0.4
    a[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
    a[:20] = -0.0  # numpy sums an all -0.0 row to +0.0
    a[20:40] = rng.choice([0.0, -0.0], (20, m))
    with np.errstate(all="ignore"):
        # contiguous, strided, column-major and with two leading axes
        for b in (a, a[::3], np.asfortranarray(a), a.reshape(60, 50, m)):
            assert _same_bits(potentials._sum_columns(b), np.sum(b, axis=-1))


def test_ginzburg_landau_gradient_of_a_scalar_is_bit_identical_to_its_closed_form():
    p = potentials.make_potential("ginzburg_landau", m=1)
    for x in (0.0, -0.7, 1.0 / 3.0, 2.5):
        u = np.asarray(x)  # 0-d: one point of the line
        assert p.grad(u).shape == (1,)
        assert np.array_equal(p.grad(u), (np.sum(u**2, axis=-1) - 1.0)[..., None] * u)


def test_ginzburg_landau_radial_derivatives():
    p = potentials.make_potential("ginzburg_landau", m=2)
    u = np.array([0.3, -0.4])
    q = np.sum(u**2) - 1.0
    assert abs(p.w(u) - 0.25 * q**2) < 1e-16
    assert np.allclose(p.grad(u), q * u)
    H = p.hess(u)
    assert np.allclose(H, q * np.eye(2) + 2.0 * np.outer(u, u))


def test_n_well_zeros():
    p = potentials.make_potential("n_well", N=5)
    angles = 2.0 * np.pi * np.arange(5) / 5
    for z in np.stack([np.cos(angles), np.sin(angles)], axis=-1):
        assert abs(p.w(z)) < 1e-14
        assert np.max(np.abs(p.grad(z))) < 1e-13
    # strictly positive away from the wells
    assert p.w(np.array([0.0, 0.0])) == 1.0


def test_polygon_product_zeros_and_positivity():
    verts = [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]]
    p = potentials.make_potential("polygon_product", vertices=verts)
    for z in verts:
        assert p.w(np.asarray(z)) == 0.0
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(200, 2))
    assert np.all(p.w(pts) >= 0.0)


def test_quadratic_and_zero():
    q = potentials.make_potential("quadratic", m=3)
    u = np.array([1.0, -2.0, 0.5])
    assert abs(q.w(u) - 0.5 * np.sum(u**2)) < 1e-15
    assert np.allclose(q.grad(u), u)
    assert np.allclose(q.hess(u), np.eye(3))

    z = potentials.make_potential("zero", m=2)
    pts = np.ones((4, 2))
    assert np.all(z.w(pts) == 0.0)
    assert np.all(z.grad(pts) == 0.0)
    assert np.all(z.hess(pts) == 0.0)


@pytest.mark.parametrize("name", potentials.POTENTIAL_IDS)
def test_one_point_equals_its_row_of_a_batch(name):
    # a single point must not reduce to numpy scalars: a real scalar's `** 2`
    # is the C pow, and a complex scalar multiplies with other rounding than
    # the array loops a batch takes
    p = potentials.make_potential(name)
    U = np.random.default_rng(3).normal(size=(500, p.m))
    batch = p.w(U), p.grad(U), p.hess(U)
    for k, u in enumerate(U):
        for fn, rows in zip((p.w, p.grad, p.hess), batch):
            assert np.array_equal(fn(u), rows[k])


def _pointwise(p, U) -> bool:
    """w, grad and hess of the batch U, rows leading, are each row's own
    evaluation as a batch of one, bit for bit."""
    rows = U.reshape(-1, p.m)
    for fn in (p.w, p.grad, p.hess):
        batch = np.asarray(fn(U))
        alone = np.stack([np.asarray(fn(rows[k : k + 1]))[0] for k in range(len(rows))])
        if not np.array_equal(batch.reshape(alone.shape).view("<u8"), alone.view("<u8")):
            return False
    return True


@pytest.mark.parametrize("name, params", [pytest.param(name, {}, id=name) for name in ALL_IDS]
                         + [pytest.param("ginzburg_landau", {"m": 3}, id="ginzburg_landau-m3")])
def test_every_potential_evaluates_each_point_on_its_own(name, params):
    # the solver's colours share one grad W per sweep on a (rows, n2, m) grid
    p = potentials.make_potential(name, **params)
    rng = np.random.default_rng(13)
    U = rng.standard_normal((9, 7, p.m)) * 10.0 ** rng.integers(-3, 3, (9, 7, p.m))
    U[0, :3] = -0.0
    assert _pointwise(p, U)
    # must fail: a potential that reads the rest of its batch
    gl = potentials.make_potential("ginzburg_landau", m=p.m)
    centred = potentials.Potential("centred", p.m, gl.w,
                                   lambda u: gl.grad(u) - np.mean(u.reshape(-1, p.m), axis=0), gl.hess)
    assert not _pointwise(centred, U)


def test_the_planar_gl_point_kernel_gives_the_array_gradient_bit_for_bit():
    # dynamics.integrate steps a planar orbit through this kernel and must
    # reproduce integrate_many's numpy rows exactly
    p = potentials.make_potential("ginzburg_landau", m=2)
    rng = np.random.default_rng(7)
    U = rng.standard_normal((2000, 2)) * 10.0 ** rng.integers(-8, 8, (2000, 2))
    U[:5] = [[-0.0, 0.0], [1.0, -0.0], [0.6, 0.8], [-1.0, 0.0], [1e-160, -1e-160]]
    points = [p.grad((x, y)) for x, y in U.tolist()]
    assert all(type(g) is tuple and type(g[0]) is float for g in points)
    assert np.array_equal(np.array(points).view("<u8"), p.grad(U).view("<u8"))
    # potentials without a point kernel read a tuple as an array, as before
    for other in (potentials.make_potential("ginzburg_landau", m=3), potentials.make_potential("n_well")):
        u = (0.5, -0.25, 2.0)[: other.m]
        assert np.array_equal(other.grad(u), other.grad(np.array(u)))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_the_gl_batch_kernel_gives_the_array_gradient_bit_for_bit(m):
    # dynamics.integrate_many writes each step's gradient through the kernel
    # into one buffer; m = 8 is the first that sums the squares by numpy's
    # own reduction
    p = potentials.make_potential("ginzburg_landau", m=m)
    rng = np.random.default_rng(7)
    U = rng.standard_normal((2000, m)) * 10.0 ** rng.integers(-8, 8, (2000, m))
    U[0], U[1], U[2] = -0.0, 1e-160, -1e-160
    U[3, 0], U[4, -1], U[5, 0], U[5, -1] = np.inf, -np.inf, np.nan, -np.nan
    U[6, 0], U[7, -1] = -0.0, np.nan
    into = p._grad.kernel(U.shape)
    out = np.full(U.shape, 7.0)
    assert into(U, out) is out
    assert np.array_equal(out.view("<u8"), p.grad(U).view("<u8"))
    # grad's formula before it had a kernel, with numpy's own reduction
    q = np.sum(U**2, axis=-1)[..., None]
    q -= 1.0
    assert np.array_equal(out.view("<u8"), (q * U).view("<u8"))
    # the scratch is reused: a second call on other values gives their gradient
    V = U[::-1].copy()
    assert np.array_equal(into(V, out).view("<u8"), p.grad(V).view("<u8"))
    for shape in [(m,), (9, 7, m)]:
        W = rng.standard_normal(shape)
        assert np.array_equal(p._grad.kernel(shape)(W, np.empty(shape)).view("<u8"), p.grad(W).view("<u8"))


def test_wrong_dimension_raises():
    p = potentials.make_potential("ginzburg_landau", m=2)
    with pytest.raises(ValueError, match="trailing axis"):
        p.w(np.zeros(3))


@pytest.mark.parametrize("name,params", [
    ("double_well", {}),
    ("ginzburg_landau", {"m": 2}),
    ("ginzburg_landau", {"m": 3}),
    ("n_well", {"N": 3}),
    ("polygon_product", {}),
    ("quadratic", {"m": 2}),
])
def test_fd_consistency(name, params):
    """Analytic gradient/Hessian agree with central differences of W."""
    p = potentials.make_potential(name, **params)
    rng = np.random.default_rng(11)
    for u in rng.uniform(-1.5, 1.5, size=(8, p.m)):
        assert potentials.fd_consistency(p, u) < 5e-9
