import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import quadrature
from fracspec.errors import DomainError
from fracspec.quadrature import gauss_legendre_01, half_line_grid, tanh_sinh_rule


def test_tanh_sinh_integrates_smooth():
    x, w, _ = tanh_sinh_rule()
    assert abs(w @ np.ones_like(x) - 1.0) < 1e-14
    assert abs(w @ x - 0.5) < 1e-14
    assert abs(w @ np.exp(x) - (np.e - 1.0)) < 1e-13


def test_tanh_sinh_endpoint_singularity():
    # power singularities at the endpoints: the truncation at |y| = 18
    # leaves a tail ~ e^{-2(1+p) 18} for x^p, so the borderline p = -1/2
    # floors near 3e-8 while milder exponents reach near machine precision
    x, w, xc = tanh_sinh_rule()
    assert abs(w @ (1.0 / np.sqrt(x)) - 2.0) < 1e-7
    assert abs(w @ (1.0 / np.sqrt(xc)) - 2.0) < 1e-7
    assert abs(w @ x**-0.25 - 4.0 / 3.0) < 1e-11
    assert abs(w @ (np.log(x)) - (-1.0)) < 1e-12


def test_tanh_sinh_levels_nest():
    x5, _, _ = quadrature._tanh_sinh_cached(5)
    x6, _, _ = tanh_sinh_rule()
    # every coarse node appears among the fine nodes
    assert np.all(np.isin(np.round(x5, 15), np.round(x6, 15)))


def test_tanh_sinh_complement_consistent():
    x, _, xc = tanh_sinh_rule()
    # xc is computed directly, not as 1-x; they agree to rounding
    assert np.max(np.abs(x + xc - 1.0)) < 1e-15


def test_tanh_sinh_cached_read_only():
    x, w, xc = tanh_sinh_rule()
    with pytest.raises(ValueError):
        x[0] = 0.5


def test_half_line_grid_covers_both_ends():
    t, w = half_line_grid()
    assert np.all(np.diff(t) > 0)
    assert t[0] < 1e-20 and t[-1] > 1e10
    # integral of e^{-t} over (0, inf)
    assert abs(w @ np.exp(-t) - 1.0) < 1e-12
    # algebraic decay from 1 on; t^{-1.5} maps to the borderline s^{-1/2}
    # singularity under t = 1/s, so it inherits that rule's ~3e-8 floor
    f = np.where(t >= 1.0, t**-1.5, 0.0)
    assert abs(w @ f - 2.0) < 1e-7
    f = np.where(t >= 1.0, t**-1.75, 0.0)
    assert abs(w @ f - 1.0 / 0.75) < 1e-11


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_gauss_legendre_01_exactness(m):
    x, w = gauss_legendre_01(m)
    assert abs(w.sum() - 1.0) < 1e-13
    # exact for polynomials up to degree 2m-1
    k = 2 * m - 1
    assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-12
    assert np.all((x > 0) & (x < 1))


def _mp_gauss_legendre(m, u):
    """Node and weight of the m-point rule on (-1,1) nearest u, by Newton on
    the three-term recurrence in the current mpmath precision."""
    u = mp.mpf(u)
    for _ in range(3):  # from a double-precision start, 2 steps reach 1e-40
        p0, p1 = mp.mpf(1), u
        for j in range(1, m):
            p0, p1 = p1, ((2 * j + 1) * u * p1 - j * p0) / (j + 1)
        dp = m * (p0 - u * p1) / (1 - u * u)
        u -= p1 / dp
    return u, 2 / ((1 - u * u) * dp * dp)


@pytest.mark.parametrize("m", [0, -1, 2.0, 2.5, 7.9, "3", None])
def test_gauss_legendre_01_needs_an_integral_count(m):
    # a float is never truncated to a smaller rule; DomainError is a ValueError
    with pytest.raises(DomainError, match="integer >= 1"):
        gauss_legendre_01(m)


def test_gauss_legendre_01_takes_numpy_integers():
    x, w = gauss_legendre_01(np.int64(5))
    assert np.array_equal(x, gauss_legendre_01(5)[0])
    assert np.array_equal(w, gauss_legendre_01(5)[1])


@pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 50, 301, 800, 2000])
def test_gauss_legendre_01_against_mpmath(m):
    # both end nodes, their neighbours, the middle and a few interior nodes;
    # the weight error grows toward the ends as 2 |du| / (1 - u^2), du being
    # the node's rounding, so the end weights are the ones that can fail
    # (measured: 2.1e-12 at m = 800, 1.6e-11 at m = 2000)
    wtol = 1e-10 if m > 800 else 1e-11
    x, w = gauss_legendre_01(m)
    idx = sorted({0, 1, m // 7, m // 3, m // 2, m - 1 - m // 5, m - 2, m - 1} & set(range(m)))
    with mp.workdps(40):
        for i in idx:
            u, wu = _mp_gauss_legendre(m, 2.0 * x[i] - 1.0)
            assert abs(x[i] - (u + 1) / 2) <= 2e-16, i
            assert abs(w[i] / (wu / 2) - 1) <= wtol, i
    if m % 2:
        assert x[m // 2] == 0.5
    assert np.array_equal(w, w[::-1])
