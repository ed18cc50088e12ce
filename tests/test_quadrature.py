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


def _parent_rule(m):
    """The multi-pass rule that the one-pass rule replaced, kept as the
    reference for its weights: three Newton steps on the recurrence from
    Tricomi's guesses, a fourth recurrence pass for P_m' at the rounded
    nodes. Nodes u >= 0, largest first, and their weights on (0,1)."""
    k = np.arange(1, (m + 1) // 2 + 1)
    u = np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    u *= 1.0 - 1.0 / (8 * m**2) + 1.0 / (8 * m**3)
    if m % 2:
        u[-1] = 0.0
    for _ in range(3):
        p, dp = quadrature._legendre(m, u)
        u -= p / dp
    _, dp = quadrature._legendre(m, u)
    return u, 1.0 / ((1.0 - u) * (1.0 + u) * dp**2)


# fixed-point bits of _exact_roots' recurrence: its rounding, at most about
# m^2 2^-160, stays far below the 2^-53 that the tests resolve
_BITS = 160


def _exact_roots(m, u):
    """The roots of P_m next to the doubles u >= 0 and their weights on
    (0,1), as mpmath numbers: one pass of the recurrence in 160-bit fixed
    point (Python integers; mpmath itself would take half a minute for
    every node at m = 2000), then one Newton step with its P'' term, in
    mpmath, from the double to within about m^2 |du|^3 of the root."""
    one = 1 << _BITS
    U = np.array([(n << _BITS) // d for n, d in map(float.as_integer_ratio, u)], dtype=object)
    p0, p1 = np.full(u.size, one, dtype=object), U.copy()
    for j in range(1, m):
        p0, p1 = p1, (((2 * j + 1) * U * p1 >> _BITS) - j * p0) // (j + 1)
    roots, weights = [], []
    for v, pm1, p in zip(u, p0, p1):
        v, pm1, p = mp.mpf(v), mp.mpf(pm1) / one, mp.mpf(p) / one
        s = 1 - v * v
        dp = m * (pm1 - v * p) / s
        d2p = (2 * v * dp - m * (m + 1) * p) / s
        d = -p / dp
        d = -p / (dp + d2p * d / 2)
        r = v + d
        roots.append(r)
        weights.append(1 / ((1 - r * r) * (dp + d2p * d) ** 2))
    return roots, weights


@pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 50, 400, 2000])
def test_gauss_legendre_01_every_node_against_an_exact_newton(m):
    # every node within 2 eps of its root in u = 2x - 1, and no weight error
    # above the parent rule's largest at the same m; at small m both are
    # rounding, so either may be a few ulps off (measured at m = 2000: the
    # largest weight error 4.8e-12, the parent rule's 1.6e-11)
    x, w = gauss_legendre_01(m)
    h = m // 2
    # the roots u >= 0, ascending, against the nodes x >= 1/2; the nodes
    # below 1/2 are their mirror images and share their weights
    _, wp = _parent_rule(m)
    with mp.workdps(40):
        roots, weights = _exact_roots(m, 2.0 * x[h:] - 1.0)
        for i in range(m):
            r = roots[i - h] if i >= h else -roots[m - 1 - i - h]
            assert abs(2 * mp.mpf(x[i]) - 1 - r) <= 2 * 2.0**-52, i
        err = np.array([float(abs(a / b - 1)) for a, b in zip(w[h:], weights)])
        err_parent = np.array([float(abs(a / b - 1)) for a, b in zip(wp[::-1], weights)])
    assert err.max() <= max(err_parent.max(), 4 * 2.0**-52)


def test_gauss_legendre_01_runs_the_recurrence_once(monkeypatch):
    # one O(m^2) pass at the guesses; Newton runs on the local Taylor
    # polynomials, never on the recurrence again
    calls = []
    legendre = quadrature._legendre

    def counted(m, u):
        calls.append(m)
        return legendre(m, u)

    monkeypatch.setattr(quadrature, "_legendre", counted)
    quadrature._gl_cached.__wrapped__(400)
    assert calls == [400]


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
    # the weights are those of the unrounded roots, but the recurrence's
    # rounding moves them most at the ends, so the end weights are the ones
    # that can fail (measured: 6.4e-13 at m = 800, 4.8e-12 at m = 2000)
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
