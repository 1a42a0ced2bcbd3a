import json
import math

import numpy as np
import pytest

from modicalab import fields, potentials


def _random_jet(rng, n=2, m=2):
    d2 = rng.standard_normal((m, n, n))
    d2 = 0.5 * (d2 + np.swapaxes(d2, 1, 2))
    return fields.Jet2(
        x=rng.standard_normal(n),
        u=rng.standard_normal(m),
        du=rng.standard_normal((m, n)),
        d2u=d2,
    )


def test_jet2_invariants():
    rng = np.random.default_rng(0)
    j = _random_jet(rng)
    assert j.n == 2 and j.m == 2
    assert abs(j.grad_sq() - np.sum(j.du**2)) < 1e-15
    assert np.allclose(j.laplacian(), np.trace(j.d2u, axis1=1, axis2=2))


def test_jet2_shape_validation():
    with pytest.raises(ValueError):
        fields.Jet2(x=np.zeros(2), u=np.zeros(1), du=np.zeros((1, 3)), d2u=np.zeros((1, 2, 2)))


# ---------------------------------------------------------------------------
# closed-form catalog


def test_catalog_ids_all_construct():
    params = {"linear": {"A": [[1.0, 0.0], [0.0, 2.0]]}, "constant": {"value": [1.0], "n": 2}}
    for name in fields.CATALOG_IDS:
        f = fields.make_field(name, **params.get(name, {}))
        assert f.name == name


def test_make_field_unknown_and_bad_params():
    with pytest.raises(ValueError, match="unknown field id"):
        fields.make_field("spiral")
    with pytest.raises(ValueError, match="0 < R < 1"):
        fields.make_field("gl_circle", R=1.5)


def test_gl_circle_solves_the_system():
    """The circular-orbit wave satisfies Lap u = (|u|^2 - 1) u pointwise."""
    gl = potentials.make_potential("ginzburg_landau", m=2)
    for R in (0.3, 0.5, 0.9):
        f = fields.make_field("gl_circle", R=R)
        for x in np.linspace(-5.0, 5.0, 11):
            j = f.jets(np.array([x]))
            assert np.max(np.abs(j.laplacian() - gl.grad(j.u))) < 1e-14
            assert abs(np.sum(j.u**2) - R * R) < 1e-14


def test_gl_circle_planar_extends_by_zero():
    f = fields.make_field("gl_circle_planar", R=0.5)
    j = f.jets(np.array([0.7, -3.0]))
    assert np.all(j.du[:, 1] == 0.0)
    assert np.all(j.d2u[:, 1, :] == 0.0)


def test_tanh_profile_solves_double_well():
    dw = potentials.make_potential("double_well")
    f = fields.make_field("tanh_profile")
    for x in np.linspace(-4.0, 4.0, 9):
        j = f.jets(np.array([x]))
        assert np.max(np.abs(j.laplacian() - dw.grad(j.u))) < 1e-14
    # equipartition: 0.5 u'^2 = W(u)
    j = f.jets(np.array([0.3]))
    assert abs(0.5 * j.grad_sq() - dw.w(j.u)) < 1e-15


def test_product_saddle_is_harmonic():
    f = fields.make_field("product_saddle")
    j = f.jets(np.array([1.2, -0.7]))
    assert np.all(j.laplacian() == 0.0)
    assert j.u[0] == 1.2 * -0.7


_CATALOG_PARAMS = {"linear": {"A": [[1.0, -2.0], [0.5, 3.0]], "b": [0.1, 0.2]},
                   "constant": {"value": [1.0, -1.0], "n": 2}, "gl_circle_planar": {"R": 0.7}}


@pytest.mark.parametrize("name", fields.CATALOG_IDS)
def test_batched_jets_are_the_values_and_the_pointwise_jets(name):
    f = fields.make_field(name, **_CATALOG_PARAMS.get(name, {}))
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 5, f.n))
    jets = f.jets(X)
    assert jets.du.shape == (4, 5, f.m, f.n) and jets.d2u.shape == (4, 5, f.m, f.n, f.n)
    assert np.array_equal(jets.u, f.values(X))
    one = f.jets(X[2, 3])
    for a, b in ((one.x, jets.x[2, 3]), (one.u, jets.u[2, 3]), (one.du, jets.du[2, 3]),
                 (one.d2u, jets.d2u[2, 3])):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name, params", [
    ("tanh_planar", {"R": 0.5}),
    ("product_saddle", {"A": [[1.0]]}),
    ("gl_circle", {"R": 0.5, "bogus": 1}),
])
def test_make_field_rejects_params_the_field_does_not_take(name, params):
    with pytest.raises(ValueError, match="accepted"):
        fields.make_field(name, **params)
    assert set(fields.field_keys(name)) < set(params)


@pytest.mark.parametrize("name, params, message", [
    ("constant", {}, "needs the parameter 'value'; accepted: value, n"),
    ("linear", {"b": [0.0]}, "needs the parameter 'A'; accepted: A, b, n"),
])
def test_make_field_names_the_required_params_left_out(name, params, message):
    with pytest.raises(ValueError, match=message):
        fields.make_field(name, **params)


def test_values_match_jets():
    f = fields.make_field("gl_circle_planar", R=0.7)
    pts = np.random.default_rng(5).uniform(-2, 2, size=(20, 2))
    vals = f.values(pts)
    for k in range(len(pts)):
        assert np.max(np.abs(vals[k] - f.jets(pts[k]).u)) < 1e-15


# ---------------------------------------------------------------------------
# grids


def test_gridfield_geometry():
    g = fields.sample_field(
        fields.make_field("tanh_planar"), (-1.0, 0.0), (0.25, 0.5), (9, 5)
    )
    assert g.n == 2 and g.m == 1
    assert g.extents == (9, 5)
    ax1, ax2 = g.axes()
    assert ax1[0] == -1.0 and len(ax1) == 9
    assert ax2[-1] == 2.0
    assert np.allclose(g.node_position((2, 3)), [-0.5, 1.5])


def test_gridfield_minimum_size():
    with pytest.raises(ValueError):
        fields.GridField(origin=(0.0,), spacing=(0.1,), values=np.zeros((3, 1)))


def test_sample_field_values_and_meta():
    f = fields.make_field("gl_circle", R=0.5)
    g = fields.sample_field(f, (-1.0,), (0.1,), (21,))
    assert g.meta == {"sampled_from": "gl_circle", "params": {"R": 0.5}}
    x = g.node_position((7,))
    assert np.max(np.abs(g.values[7] - f.values(x))) < 1e-15


def test_fd_jet_second_order():
    """Central-difference (grid) jets converge at order h^2 to the analytic jets."""
    f = fields.make_field("gl_circle_planar", R=0.6)
    errs = []
    for h in (0.02, 0.01):
        g = fields.sample_field(f, (-5 * h, -5 * h), (h, h), (11, 11))
        j_fd = fields.grid_jets(g)
        j_cf = f.jets(j_fd.x)
        errs.append(
            max(
                float(np.max(np.abs(j_fd.du - j_cf.du))),
                float(np.max(np.abs(j_fd.d2u - j_cf.d2u))),
            )
        )
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-4


def test_fd_jet_symmetrized_cross_terms():
    g = fields.sample_field(fields.make_field("product_saddle"), (-0.5, -0.5), (0.1, 0.1), (11, 11))
    d2u = fields.grid_jets(g).d2u
    assert np.array_equal(d2u, np.swapaxes(d2u, -2, -1))
    # the saddle is a quadratic, so second differences are exact
    assert np.max(np.abs(d2u[..., 0, 0, 1] - 1.0)) < 1e-12


def test_grid_jets_match_pointwise_fd():
    """One kernel: the grid jets equal the kernel applied to each interior
    node's 3^n window on its own, bit for bit, on a planar grid and on a line."""
    for name, origin, spacing, extents in (
        ("gl_circle_planar", (0.0, 0.0), (0.05, 0.07), (9, 8)),
        ("gl_circle", (-0.3,), (0.05,), (12,)),
    ):
        g = fields.sample_field(fields.make_field(name, R=0.4), origin, spacing, extents)
        jets = fields.grid_jets(g)
        assert jets.u.shape == tuple(e - 2 for e in extents) + (2,)
        for idx in np.ndindex(*jets.u.shape[:-1]):
            window = g.values[tuple(slice(i, i + 3) for i in idx)]
            node = (0,) * g.n
            u, du, d2u = (a[node] for a in fields._central_differences(window, g.spacing))
            assert np.array_equal(jets.x[idx], g.node_position(tuple(i + 1 for i in idx))), (name, idx)
            for attr, value in (("u", u), ("du", du), ("d2u", d2u)):
                assert np.array_equal(getattr(jets, attr)[idx], value), (name, idx, attr)


def test_grid_jets_has_no_order_knob():
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.4), (0.0, 0.0), (0.05, 0.05), (9, 9))
    with pytest.raises(TypeError):
        fields.grid_jets(g, order=4)


def test_grid_jets_reductions():
    g = fields.sample_field(fields.make_field("tanh_planar"), (-2.0, 0.0), (0.1, 0.1), (41, 7))
    jets = fields.grid_jets(g)
    assert jets.grad_sq().shape == (39, 5)
    assert jets.laplacian().shape == (39, 5, 1)


# persistence: .npy array plus JSON sidecar


def _text_gridfield_values(g, path):
    """The node values as the text format wrote them, one repr per value and
    one row per node, parsed back with float."""
    flat = g.values.reshape(-1, g.m)
    with open(path, "w") as fh:
        fh.write("".join(" ".join(repr(float(x)) for x in row) + "\n" for row in flat))
    with open(path) as fh:
        return np.array([[float(x) for x in line.split()] for line in fh]).reshape(g.values.shape)


def test_save_load_roundtrip_exact(tmp_path):
    f = fields.make_field("gl_circle_planar", R=0.37)
    g = fields.sample_field(f, (-1.0, -1.0), (0.125, 0.25), (9, 9))
    values = g.values.copy()
    values[0, 0] = [-0.0, 5e-324]
    values[0, 1] = [1e300, -1e300]
    g = fields.GridField(g.origin, g.spacing, values, {"k": [1, 2]})
    path = tmp_path / "field.npy"
    fields.save_gridfield(g, path)
    back = fields.load_gridfield(path)
    # as integers, so that -0.0 differs from 0.0
    assert np.array_equal(back.values.view("<u8"), g.values.view("<u8"))
    assert np.array_equal(back.values.view("<u8"), _text_gridfield_values(g, tmp_path / "old.txt").view("<u8"))
    assert np.array_equal(back.spacing, g.spacing)
    assert np.array_equal(back.origin, g.origin)
    assert back.meta["k"] == [1, 2]


def test_save_writes_c_order_even_from_a_fortran_array(tmp_path):
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.37), (-1.0, -1.0), (0.25, 0.25), (9, 7))
    g = fields.GridField(g.origin, g.spacing, np.asfortranarray(g.values))
    fields.save_gridfield(g, tmp_path / "f.npy")
    assert b"'fortran_order': False" in (tmp_path / "f.npy").read_bytes()[:128]
    assert np.array_equal(fields.load_gridfield(tmp_path / "f.npy").values, g.values)


@pytest.mark.parametrize("key, value", [("n", 1), ("m", 3), ("format", "gridfield-v1")])
def test_load_refuses_a_sidecar_that_does_not_fit(tmp_path, key, value):
    g = fields.sample_field(fields.make_field("gl_circle_planar", R=0.37), (-1.0, -1.0), (0.25, 0.25), (9, 9))
    path = tmp_path / "f.npy"
    fields.save_gridfield(g, path)
    sidecar = json.loads((tmp_path / "f.npy.json").read_text())
    sidecar[key] = value
    (tmp_path / "f.npy.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="does not fit" if key != "format" else "gridfield-v2"):
        fields.load_gridfield(path)


def test_save_is_deterministic(tmp_path):
    g = fields.sample_field(fields.make_field("tanh_profile"), (0.0,), (0.3,), (7,))
    p1, p2 = tmp_path / "a.npy", tmp_path / "b.npy"
    fields.save_gridfield(g, p1)
    fields.save_gridfield(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.npy.json").read_bytes() == (tmp_path / "b.npy.json").read_bytes()


@pytest.mark.parametrize("shape", [(9, 13), (9, 13, 1), (9, 13, 2), (9, 13, 3), (21, 21), (21, 21, 2), (81, 6, 1)])
def test_the_five_point_laplacian_is_its_two_product_form_bit_for_bit(shape):
    # the kernel runs on whole rows of the flat values; its interior is the
    # 2-D stencil's, with signed zeros, infinities and nans inside and on
    # the edges
    rng = np.random.default_rng(5)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    flat = v.reshape(-1)
    for value, every in ((-0.0, 5), (np.inf, 41), (-np.inf, 43), (np.nan, 47)):
        flat[rng.integers(0, flat.size, max(1, flat.size // every))] = value
    v[: shape[0] // 2, : shape[1] // 2] = -0.0  # a signed-zero block, boundary included
    h1, h2 = 0.05, 0.0375
    core = v[1:-1, 1:-1]
    with np.errstate(invalid="ignore"):
        ref = (v[2:, 1:-1] - 2 * core + v[:-2, 1:-1]) / h1**2 + (v[1:-1, 2:] - 2 * core + v[1:-1, :-2]) / h2**2
        lap = fields._laplacian(v, (h1, h2))
    assert lap.shape == (shape[0] - 2,) + shape[1:]
    assert np.array_equal(lap[:, 1:-1].view("<u8"), ref.view("<u8"))

