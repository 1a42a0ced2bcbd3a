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
    for z in p.zeros:
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
    assert len(p.zeros) == 5
    for z in p.zeros:
        assert abs(p.w(z)) < 1e-14
        assert np.max(np.abs(p.grad(z))) < 1e-13
    # strictly positive away from the wells
    assert p.w(np.array([0.0, 0.0])) == 1.0


def test_polygon_product_zeros_and_positivity():
    verts = [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]]
    p = potentials.make_potential("polygon_product", vertices=verts)
    for z in p.zeros:
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
    assert z.zeros == ()


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
