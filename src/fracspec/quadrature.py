"""Fixed quadrature rules shared by the solver modules.

Three building blocks:

* a tanh-sinh (double exponential) rule on (0,1), exact enough at modest node
  counts for integrands with algebraic endpoint singularities,

* a composite half-line grid obtained by gluing t = u^2 on (0,1] to t = 1/s on
  [1,inf), which turns one (0,1) rule into a rule for integrals over (0,inf)
  with algebraic behaviour at both ends, and

* an m-point Gauss-Legendre rule on (0,1): from Tricomi's initial guesses,
  one pass of the three-term recurrence, vectorized over the nodes u >= 0,
  gives P_m and P_m' there; the Legendre equation turns them into P_m's
  local Taylor polynomial about each guess (Glaser, Liu & Rokhlin, SIAM J.
  Sci. Comput. 29, 2007), on which Newton's method finds the root offset d
  and P_m'(u + d) for the weight 2 / ((1 - u^2) P_m'(u)^2); the negative
  half is mirrored. That is O(m^2) flops in O(m) steps, where a
  Golub-Welsch eigensolve costs O(m^3). The weights are those of the
  unrounded roots; what limits them is the recurrence's rounding, 5e-12
  relative at the end nodes at m = 2000.

Everything here is deterministic: no adaptivity, no randomness. Levels nest
(the level L-1 tanh-sinh nodes are the even-indexed level L nodes), which the
phase module exploits for cheap error estimates.
"""

from functools import lru_cache

import numpy as np

from .errors import _check_count

__all__ = [
    "tanh_sinh_rule",
    "half_line_grid",
    "gauss_legendre_01",
]

# Beyond |y| ~ 18 the weights underflow the double-precision tail.
_YMAX = 18.0
# terms of the local Taylor polynomial of P_m about each Gauss-Legendre guess
_TAYLOR_TERMS = 10


@lru_cache(maxsize=32)
def _tanh_sinh_cached(level: int):
    h = 0.5**level
    kmax = int(np.floor(np.arcsinh(2.0 / np.pi * _YMAX) / h))
    k = np.arange(-kmax, kmax + 1)
    y = 0.5 * np.pi * np.sinh(k * h)
    x = 1.0 / (1.0 + np.exp(-2.0 * y))
    # complement 1-x computed without cancellation; x + xc == 1 exactly
    xc = 1.0 / (1.0 + np.exp(2.0 * y))
    w = h * 0.25 * np.pi * np.cosh(k * h) / np.cosh(y) ** 2
    for a in (x, xc, w):
        a.setflags(write=False)
    return x, w, xc


def tanh_sinh_rule():
    """Nodes, weights and complements (1 - nodes) of the tanh-sinh rule on (0,1).

    The level is fixed at 6 (step 2^-6), 401 nodes. The returned arrays are
    read-only views of a cached rule; copy before writing.
    """
    return _tanh_sinh_cached(6)


@lru_cache(maxsize=1)
def _half_line_cached():
    u, wu, _ = tanh_sinh_rule()
    t = np.concatenate([u * u, 1.0 / u])
    w = np.concatenate([wu * 2.0 * u, wu / u**2])
    order = np.argsort(t)
    t = t[order]
    w = w[order]
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def half_line_grid():
    """Nodes and weights for integrals over (0, inf), sorted increasing.

    Built from the level-6 tanh-sinh rule via t = u^2 on (0,1] and t = 1/u
    on [1,inf). Handles integrands that behave like t^(a-1) near 0 (a > 0)
    and decay algebraically faster than 1/t at infinity.
    """
    return _half_line_cached()


def _legendre(m: int, u: np.ndarray):
    """P_m(u) and P_m'(u) from the three-term recurrence, vectorized over u."""
    p0 = np.ones_like(u)
    p1 = u.copy()
    p2 = np.empty_like(u)
    for j in range(1, m):
        # (j+1) P_{j+1} = (2j+1) u P_j - j P_{j-1}, on three rotating buffers
        np.multiply(u, p1, out=p2)
        p2 *= (2 * j + 1) / (j + 1)
        p0 *= j / (j + 1)
        p2 -= p0
        p0, p1, p2 = p1, p2, p0
    return p1, m * (p0 - u * p1) / ((1.0 - u) * (1.0 + u))


def _horner(c, d):
    """The polynomial sum_n c[n] d^n and its derivative in d, by Horner."""
    p, dp = c[-1], 0.0
    for cn in c[-2::-1]:
        dp = dp * d + p
        p = p * d + cn
    return p, dp


@lru_cache(maxsize=64)
def _gl_cached(m: int):
    # the ceil(m/2) roots u >= 0 of P_m, largest first; an odd rule's middle
    # root is 0, where the recurrence gives P_m = 0 exactly, so Newton keeps it
    k = np.arange(1, (m + 1) // 2 + 1)
    u = np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    u *= 1.0 - 1.0 / (8 * m**2) + 1.0 / (8 * m**3)
    if m % 2:
        u[-1] = 0.0
    # one recurrence pass at the guesses; differentiating the Legendre equation
    # (1 - u^2) P'' - 2u P' + m(m+1) P = 0 n times gives the Taylor coefficients
    # c_n of P_m about each guess. Each of Tricomi's guesses lies within 1.1e-3
    # of the gap to the next root, so 8 terms already give the same rule bit
    # for bit as 10 or 14, at any m from 1 to 5000. From d = 0 three Newton
    # steps on the local polynomial converge: a fourth moves no node, and no
    # weight by more than 4 ulps
    c = list(_legendre(m, u))
    s = (1.0 - u) * (1.0 + u)
    for n in range(_TAYLOR_TERMS - 2):
        lead = 2 * (n + 1) ** 2 * u * c[n + 1] - (m * (m + 1) - n * (n + 1)) * c[n]
        c.append(lead / ((n + 1) * (n + 2) * s))
    d = np.zeros_like(u)
    for _ in range(3):
        p, dp = _horner(c, d)
        d -= p / dp
    _, dp = _horner(c, d)
    # the weights 2 / ((1 - u^2) P_m'(u)^2) on (-1,1), halved for (0,1), at
    # the unrounded root u + d: 1 - (u + d)^2 = s - d (2u + d) keeps its digits
    # next to u = 1
    w = 1.0 / ((s - d * (2.0 * u + d)) * dp**2)
    u += d
    # mirror into ascending order; h roots are strictly positive
    h = m // 2
    u = np.concatenate([-u[:h], u[h:], u[:h][::-1]])
    w = np.concatenate([w[:h], w[h:], w[:h][::-1]])
    x = (u + 1.0) / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_01(m: int):
    """Gauss-Legendre nodes and weights mapped to (0,1), read-only and cached;
    m must be an integer >= 1 (a numpy one too), never a float or a bool."""
    return _gl_cached(_check_count(m, "m"))
