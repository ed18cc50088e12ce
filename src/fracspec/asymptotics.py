"""Closed-form eigenvalue asymptotics and the uniform eigenfunction formula.

Frequencies: for the rl-bridge problem rho_n = pi n + (pi/2)(1 - 1/alpha) +
O(1/n); for the caputo problem rho_n = pi n - pi/2 + O(1/n). Eigenvalues are
lambda_n = rho_n^{2 alpha}; a two-term additive expansion
(pi n)^{2a} + pi (a - 1)(pi n)^{2a-1} is exposed separately since error
studies against a reference behave differently for the two forms.

Eigenfunctions (rl-bridge only): sqrt(2) sin(rho x + (pi/4)(1-alpha)) plus
boundary layers, Laplace-type integrals of Upsilon0/Upsilon1 concentrated
near x=0 and x=1. Layers are evaluated on a fixed double-exponential grid
over (0, inf), so the same rule serves every (x, rho) including x at the
endpoints; evaluation is deterministic and branch-free. integro's exact
eigenfunction reads its layer densities and blocked Laplace sum from here.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, _check_count
from .phase import (
    PhaseTable,
    Variant,
    b_alpha,
    gamma0,
    theta0,
    xc0,
    _as_order,
    _check_positive,
    _check_unit,
    _rl_bridge_order,
    _row_blocks,
    _shaped,
)
from .quadrature import half_line_grid

__all__ = [
    "Order",
    "rho_asymptotic",
    "lambda_asymptotic",
    "lambda_two_term",
    "upsilons",
    "boundary_layer",
    "eigenfunction_asymptotic",
]


class Order(Enum):
    FIRST = "first"
    SECOND = "second"


def rho_asymptotic(n: int, alpha, order: Order = Order.SECOND) -> float:
    """Asymptotic frequency rho_n.

    rl-bridge: pi n (First) or pi n + (pi/2)(1 - 1/alpha) (Second).
    caputo: pi n - pi/2 for both orders (the expansion has no second-order
    phase shift to add; the order argument is accepted for symmetry).
    """
    _check_count(n, "n")
    o = _as_order(alpha)
    if o.variant is Variant.CAPUTO:
        return np.pi * n - np.pi / 2
    if order is Order.FIRST:
        return np.pi * n
    return np.pi * n + (np.pi / 2) * (1.0 - 1.0 / o.alpha)


def lambda_asymptotic(n: int, alpha, order: Order = Order.SECOND) -> float:
    """rho_asymptotic(n, alpha, order) ** (2 alpha)."""
    o = _as_order(alpha)
    return rho_asymptotic(n, o, order) ** (2.0 * o.alpha)


def lambda_two_term(n: int, alpha) -> float:
    """Additive two-term eigenvalue expansion (rl-bridge):

    (pi n)^{2a} + pi (a - 1) (pi n)^{2a-1}.

    Unlike the power form rho_2^{2a} this truncates at O(n^{2a-2}) exactly,
    which is the right comparison curve for relative-error studies.
    """
    _check_count(n, "n")
    a = _rl_bridge_order(alpha, "lambda_two_term").alpha
    x = np.pi * n
    return x ** (2 * a) + np.pi * (a - 1.0) * x ** (2 * a - 1.0)


def _layer_densities(t, table: PhaseTable, k0, k1):
    """k0 v0 and k1 v1 on an array of t > 0 from one X_c0(-t) sweep, where
    v0 = (X_c0(-t)/t) sin(theta0 - a pi)/gamma0 and v1 = (X_c0(-t)/t)
    sin(theta0)/gamma0 are the factors both boundary layers share. A weight
    k is multiplied in first, so Upsilon0 and Upsilon1 (upsilons) round as
    their formulas read; integro.reconstruct_f_exact weights v0 by Psi0 and
    v1 by t^a Psi1.
    """
    a = table.alpha
    gm = gamma0(t, table.order)
    xt = xc0(-t, table) / t
    # sin(theta0 - a pi) = -sin(a pi) t^a / gamma0 exactly; the left side
    # loses all digits as t -> 0, where its argument approaches -pi
    s0 = -np.sin(a * np.pi) * t**a / gm
    return k0 * xt * s0 / gm, k1 * xt * np.sin(theta0(t, table.order)) / gm


def upsilons(t, table: PhaseTable):
    """The layer densities (Upsilon0(t), Upsilon1(t)), each in the shape of
    t, from one X_c0 sweep:

    Upsilon0(t) = (sqrt(2a)/pi) (X_c0(-t)/t) sin(theta0(t) - a pi) / gamma0(t),
    Upsilon1(t) = (sqrt(2a)/pi) t^a (b_a - t)/sqrt(b_a^2+1)
                  (X_c0(-t)/t) sin(theta0(t)) / gamma0(t).

    Since b_a = cot(pi/(2a)) < 0 for a in (1/2, 1), the factor (b_a - t)
    is negative for all t > 0: Upsilon1 never changes sign through it.
    """
    a = table.alpha
    tt = _check_positive(t)
    b = b_alpha(table.order)
    c = np.sqrt(2 * a) / np.pi
    k1 = c * (tt**a * (b - tt) / np.sqrt(b * b + 1.0))
    u0, u1 = _layer_densities(tt, table, c, k1)
    return _shaped(u0, t), _shaped(u1, t)


def _layer_rule():
    """half_line_grid() cut to 1e-10 < t < 1e12, for boundary-layer integrals.

    Both layer evaluators, here and integro.reconstruct_f_exact, read
    _layer_densities on it, which vanish like a positive power of t at 0 and
    decay like t^{-1-a} to t^{-2a} at infinity. X_c0's quadrature error estimate
    stays within tolerance on the kept range, and fails it near the extremes.
    """
    t, w = half_line_grid()
    keep = (t > 1e-10) & (t < 1e12)
    return t[keep], w[keep]


def _laplace_sum(d, rho: float, t, wu):
    """exp(-rho t d) @ wu for an array d: the layer integral with weighted
    density samples wu on the nodes t. d is swept in row blocks, as in
    PhaseTable, so no (points x nodes) array is built."""
    rt = -rho * t
    val = np.empty(d.size)
    for i, j in _row_blocks(d.size):
        val[i:j] = np.exp(rt * d[i:j, None]) @ wu
    return val


def boundary_layer(x, rho: float, table: PhaseTable):
    """(layer at 0, layer at 1), each in the shape of x, from one upsilons
    sample: int_0^inf Upsilon_j(t) exp(-rho t d) dt, d = x (j = 0) or 1-x (j = 1).

    d = 0 needs no special handling: the densities are integrable at both
    ends of the half line and the grid covers (0, inf) in full.
    """
    _check_positive(rho, "rho")
    xx = _check_unit(x)
    t, w = _layer_rule()
    u0, u1 = upsilons(t, table)
    return (_shaped(_laplace_sum(xx, rho, t, w * u0), x),
            _shaped(_laplace_sum(1.0 - xx, rho, t, w * u1), x))


def eigenfunction_asymptotic(n: int, x, alpha, table: PhaseTable | None = None):
    """The uniform eigenfunction approximation at order Second (rl-bridge):

    sqrt(2) sin(rho_n x + (pi/4)(1-a))
      [+ layer at 0 + (-1)^n layer at 1 (boundary_layer) when a table is passed]

    The table must be alpha's own. At alpha = 1 this is sqrt(2) sin(pi n x)
    with numerically vanishing layers. The residual O(1/n) term of the
    underlying expansion is never evaluated.
    """
    o = _rl_bridge_order(alpha, "the eigenfunction asymptotics")
    if table is not None and table.order != o:
        raise DomainError(f"the PhaseTable of alpha={table.alpha} given for {o.alpha}")
    rho = rho_asymptotic(n, o, Order.SECOND)
    phi = (np.pi / 4) * (1.0 - o.alpha)
    xx = _check_unit(x)
    val = np.sqrt(2.0) * np.sin(rho * xx + phi)
    if table is not None:
        at0, at1 = boundary_layer(xx, rho, table)
        val = val + at0 + (-1.0) ** n * at1
    return _shaped(val, x)
