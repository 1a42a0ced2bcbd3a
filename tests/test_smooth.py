import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modicalab import smooth


def test_flat_exp_vanishes_below_zero():
    t = np.array([-2.0, -1e-12, 0.0, 0.05, 1.0])
    out = smooth.flat_exp(t)
    assert np.all(out[:3] == 0.0)
    assert np.all(out[3:] > 0.0)
    # flat contact: all derivatives vanish at 0+, so values near 0 are tiny
    assert 0.0 < smooth.flat_exp(np.array([0.01]))[0] < 1e-40


def test_smoothstep_endpoints_and_range():
    t = np.linspace(-1.0, 2.0, 301)
    s = smooth.smoothstep(t)
    assert np.all(s[t <= 0.0] == 0.0)
    assert np.all(s[t >= 1.0] == 1.0)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.all(np.diff(s) >= 0.0)
    assert smooth.smoothstep(np.array([0.5]))[0] == 0.5


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-3.0, max_value=4.0, allow_nan=False))
def test_smoothstep_partition_of_unity(t):
    arr = np.array([t])
    total = smooth.smoothstep(arr) + smooth.smoothstep(1.0 - arr)
    assert abs(total[0] - 1.0) < 1e-15


def test_smoothstep_d_matches_finite_difference():
    t = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    fd = (smooth.smoothstep(t + h) - smooth.smoothstep(t - h)) / (2.0 * h)
    assert np.max(np.abs(fd - smooth.smoothstep_d(t))) < 1e-7


def test_smoothstep_d_support():
    t = np.array([-0.5, 0.0, 1.0, 1.5])
    assert np.all(smooth.smoothstep_d(t) == 0.0)
    assert np.all(smooth.smoothstep_d(np.linspace(0.1, 0.9, 9)) > 0.0)


def test_smoothstep_integral_exact_half_at_one():
    assert smooth.smoothstep_integral(1.0) == 0.5
    assert smooth.smoothstep_integral(0.0) == 0.0
    assert smooth.smoothstep_integral(-3.0) == 0.0
    # above 1 the integrand is identically 1
    assert smooth.smoothstep_integral(2.5) == 2.0


def test_smoothstep_integral_reflection_identity():
    # I(x) = x - 1/2 + I(1-x), a consequence of the partition of unity
    x = np.linspace(-0.5, 1.5, 101)
    lhs = smooth.smoothstep_integral(x)
    rhs = x - 0.5 + smooth.smoothstep_integral(1.0 - x)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_smoothstep_integral_derivative():
    x = np.linspace(0.05, 0.95, 19)
    h = 1e-5
    fd = (smooth.smoothstep_integral(x + h) - smooth.smoothstep_integral(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - smooth.smoothstep(x))) < 1e-9


def test_bump01_support_and_symmetry():
    t = np.linspace(-0.5, 1.5, 401)
    b = smooth.bump01(t)
    assert np.all(b[(t <= 0.0) | (t >= 1.0)] == 0.0)
    inside = (t > 0.0) & (t < 1.0)
    assert np.all(b[inside] > 0.0)
    # symmetric about 1/2, maximum there
    assert np.max(np.abs(smooth.bump01(t) - smooth.bump01(1.0 - t))) < 1e-16
    assert np.argmax(b) == np.argmin(np.abs(t - 0.5))


def test_bump01_d_matches_finite_difference():
    t = np.linspace(0.1, 0.9, 17)
    h = 1e-6
    fd = (smooth.bump01(t + h) - smooth.bump01(t - h)) / (2.0 * h)
    assert np.max(np.abs(fd - smooth.bump01_d(t))) < 1e-8


def test_kernels_reach_their_limit_at_tiny_positive_t():
    # exp(-1/t) underflows long before t^2 does; the quotients must still
    # read 0, not 0/0, and raise no floating-point warning
    t = np.array([5e-324, 1e-300, 1e-160])
    for kernel in (smooth.flat_exp, smooth.smoothstep, smooth.smoothstep_d, smooth.bump01, smooth.bump01_d):
        out = kernel(t)
        assert np.array_equal(out, np.zeros(3)), kernel.__name__


def _masked_flat_exp(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _masked_bump01(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0) & (t < 1)
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-1.0 / (t[inside] * (1.0 - t[inside])))
    return out


def test_kernels_equal_their_masked_form_bit_for_bit():
    """flat_exp and bump01 exponentiate every lane, with -inf on the lanes
    outside their support; that gives the bits, shape and dtype of the
    masked gather and scatter, on signed zeros, subnormals, infinities and
    NaN too, and raises no floating-point warning (pytest makes one an
    error)."""
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-160, 1e-3, 0.5, 1.0 - 2.0**-53,
                        1.0, 1.0 + 2.0**-52, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan])
    t = np.concatenate([special, rng.uniform(-0.5, 1.5, 20_000), 1.0 - rng.uniform(0.0, 1e-2, 500)])
    for kernel, masked in ((smooth.flat_exp, _masked_flat_exp), (smooth.bump01, _masked_bump01)):
        assert np.array_equal(kernel(t).view(np.int64), masked(t).view(np.int64)), kernel.__name__
        for x in (t.reshape(-1, 2), np.array(0.3), 0.3, [1, 2]):
            got, want = kernel(x), masked(x)
            assert type(got) is type(want) and got.shape == want.shape and got.dtype == want.dtype


def test_smoothstep_integral_of_nan_is_nan():
    # freed blocks of 6.0 first, so an uninitialised output would not read NaN by chance
    junk = [np.full(1000, 6.0) for _ in range(4)]
    del junk
    assert np.all(np.isnan(smooth.smoothstep_integral(np.full(1000, np.nan))))
    out = smooth.smoothstep_integral(np.array([np.nan, -1.0, 0.25, 2.0, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[4])
    assert out[1] == 0.0 and out[3] == 1.5 and 0.0 < out[2] < 0.25
    assert np.isnan(smooth.smoothstep_integral(np.nan))
