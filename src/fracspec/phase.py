"""Phase functions of the spectral problem and their singular transforms.

This module holds the closed-form functions attached to the eigenvalue
problem's Hilbert boundary value structure: the phase theta0, the modulus
gamma0, the constant b_alpha = cot(pi/(2 alpha)), the Cauchy-integral
function X_c0 evaluated by double-exponential quadrature, the principal-value
weight, and g0, the one function in both off-diagonal blocks of the
half-line system's M = g0 [[0, 1], [1, 0]] (the other block, -h0, equals g0
exactly, since t^a sin(theta0) = -t^{-a} sin(theta0 - a pi)).

Everything is scale-free: the frequency rho never enters any function here,
and the signatures enforce that structurally.

A PhaseTable bundles the quadrature data for one alpha. It holds no state
that evaluations change, so threads can share one table. Each evaluator
sweeps its points flattened to 1-d in one vectorized path and returns the
values in their shape (_shaped), xc0 a complex for a scalar.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AccuracyError, DomainError
from .quadrature import tanh_sinh_rule

__all__ = [
    "Variant",
    "FractionalOrder",
    "PhaseTable",
    "theta0",
    "gamma0",
    "b_alpha",
    "xc0",
    "pv_weight",
    "g0",
]

_ROWS = 32  # rows per sweep block: 32 x 713 doubles, about 180 KB


class Variant(Enum):
    """Which boundary-value problem the order belongs to."""

    RL_BRIDGE = "rl-bridge"
    CAPUTO = "caputo"


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order alpha tagged with the problem variant.

    The rl-bridge problem needs alpha in (1/2, 1]; caputo allows (0, 1].
    alpha = 1 is admitted in both variants as the classical degeneration
    (sine eigenfunctions), which several checks exercise directly. alpha is
    stored as a float, so a float32 does not carry its precision into every
    formula; a bool or any other non-real is refused.
    """

    alpha: float
    variant: Variant = Variant.RL_BRIDGE

    def __post_init__(self):
        a = self.alpha
        if isinstance(a, bool) or not isinstance(a, numbers.Real):
            raise DomainError(f"alpha must be a real number, got {a!r}")
        a = float(a)
        object.__setattr__(self, "alpha", a)
        if not np.isfinite(a):
            raise DomainError(f"alpha must be finite, got {a!r}")
        if self.variant is Variant.RL_BRIDGE:
            if not 0.5 < a <= 1.0:
                raise DomainError(
                    f"rl-bridge variant requires alpha in (1/2, 1], got {a}"
                )
        else:
            if not 0.0 < a <= 1.0:
                raise DomainError(f"caputo variant requires alpha in (0, 1], got {a}")


def _as_order(alpha) -> FractionalOrder:
    if isinstance(alpha, FractionalOrder):
        return alpha
    return FractionalOrder(alpha)


def _rl_bridge_order(alpha, what: str) -> FractionalOrder:
    """_as_order(alpha), refused unless rl-bridge: what exists for it only."""
    order = _as_order(alpha)
    if order.variant is not Variant.RL_BRIDGE:
        raise DomainError(f"{what} exists for the rl-bridge variant only, got {order.variant.value}")
    return order


def _check_positive(t, name: str = "t"):
    """t flattened to a 1-d float array, all positive and finite; a refusal names name."""
    tt = np.asarray(t, dtype=float)
    tt = tt if tt.ndim == 1 else tt.reshape(-1)  # as in _check_unit
    if not np.all((tt > 0.0) & (tt < np.inf)):  # NaN fails both
        raise DomainError(f"{name} must be positive and finite")
    return tt


def _check_unit(x, name: str = "x"):
    """x flattened to a 1-d float array in [0, 1] (NaN is not); a refusal names name."""
    xx = np.asarray(x, dtype=float)
    xx = xx if xx.ndim == 1 else xx.reshape(-1)  # no new view of a 1-d x
    if np.any(~((xx >= 0) & (xx <= 1))):
        raise DomainError(f"{name} must lie in [0, 1]")
    return xx


def _shaped(val, x):
    """val, computed on x flattened, in the shape of x; a float for 0-d x."""
    return float(val[0]) if np.ndim(x) == 0 else val.reshape(np.shape(x))


def _row_blocks(n: int, rows: int = _ROWS):
    """(i, j) bounds of n rows in blocks of rows, for every row sweep.

    A lone last row is folded into the block before it: numpy reduces a
    one-row block along another path, which changes the last bits of a sum.
    Two row counts serve: _ROWS against a few hundred nodes (the phase and
    layer sweeps), nystrom's _BLOCK_CELLS // m against m nodes. Blocks of
    _BLOCK_CELLS cells everywhere move f_asym_layers at x = 1 for a = 0.75,
    0.9 and 0.99; 32-row blocks everywhere slow the m <= 800 kernel 10-20%.
    """
    edges = [*range(0, n, rows), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def _first_quarter_sign(x, w, f, rho) -> float:
    # the eigenfunction sign convention: -1.0 if the values f on the rule
    # (x, w) integrate below 0 over the first quarter-oscillation x <
    # min(pi / (2 rho), 1), else 1.0; with no node there, f[0] decides
    win = x < min(float(np.pi / (2.0 * rho)), 1.0)
    s = float(w[win] @ f[win]) if win.any() else float(f[0])
    return -1.0 if s < 0 else 1.0


def theta0(t, alpha):
    """Phase theta0(t) = -atan(sin(a pi) / (t^{2a} - cos(a pi))).

    Nonpositive, nondecreasing, with limits (a-1)pi at 0+ and 0 at infinity.
    Only defined for the rl-bridge variant (the denominator stays positive
    exactly when a > 1/2).
    """
    a = _rl_bridge_order(alpha, "theta0").alpha
    tt = _check_positive(t)
    val = -np.arctan(np.sin(a * np.pi) / (tt ** (2 * a) - np.cos(a * np.pi)))
    return _shaped(val, t)


def gamma0(t, alpha):
    """Modulus factor gamma0(t) = (t^{2a} - 2 cos(a pi) + t^{-2a})^{1/2}."""
    a = _as_order(alpha).alpha
    tt = _check_positive(t)
    val = np.sqrt(tt ** (2 * a) - 2.0 * np.cos(a * np.pi) + tt ** (-2 * a))
    return _shaped(val, t)


def b_alpha(alpha) -> float:
    """The constant b_alpha = cot(pi / (2 alpha)), rl-bridge only."""
    a = _rl_bridge_order(alpha, "b_alpha").alpha
    return 1.0 / np.tan(np.pi / (2.0 * a))


class PhaseTable:
    """Quadrature data for one alpha, read-only: a tanh-sinh rule, phases, X_c0(i).

    The Cauchy integral over (0, inf) is split as t = x^2 on (0,1] and
    t = 1/x on [1, inf); both pieces and the PV integral use one tanh-sinh
    rule on x. Tanh-sinh levels nest, so each evaluation also yields the
    coarser level's value for free; the difference drives the accuracy-error
    contract.

    The Cauchy and PV sums over an array of points are swept in blocks of
    _ROWS points, so a block's (_ROWS x 401) temporaries stay in cache
    instead of being page-faulted in on every call. Each row is computed
    by the same expressions as in one full-size sweep, so the values and
    error estimates do not depend on the blocking.
    """

    tol = 1e-10  # bound on every quadrature error estimate, else AccuracyError

    def __init__(self, order):
        self.order = order = _rl_bridge_order(order, "a PhaseTable")
        self.alpha = order.alpha
        a = self.alpha

        x, w, xc = tanh_sinh_rule()
        self._x = x
        self._t1 = x * x
        self._coef1 = w * theta0(self._t1, order) * 2.0 * x
        self._coef2 = w * theta0(1.0 / x, order) / x
        # nesting mask: even-index k of the symmetric tanh-sinh rule
        self._even = (np.arange(x.size) - x.size // 2) % 2 == 0

        # PV rule on sigma = x in (0,1), with complement xc kept for stability
        self._w = w
        # the t-independent factors of the PV integrand
        lo = np.log(x)
        self._sig_hi = x ** (-2 * a)
        self._sig_lo = x ** (2 * a)
        self._expm1_hi = np.expm1(-2 * a * lo)
        self._expm1_lo = np.expm1(2 * a * lo)
        self._pv_den = xc * (1.0 + x)
        self.xc_i = xc0(1j, self)  # read by integro's secular and exact eigenfunction

    # -- Cauchy transform ------------------------------------------------

    def _cauchy(self, z):
        """(1/pi) int theta0(t)/(t - z) dt and its nesting error, on 1-d z."""
        fine = np.empty(z.shape, dtype=np.result_type(z, self._t1))
        coarse = np.empty_like(fine)
        for i, j in _row_blocks(z.size):
            zz = z[i:j, None]
            q1 = self._coef1 / (self._t1 - zz)
            q2 = self._coef2 / (1.0 - self._x * zz)
            fine[i:j] = (q1.sum(axis=-1) + q2.sum(axis=-1)) / np.pi
            coarse[i:j] = (
                2.0 * q1[:, self._even].sum(axis=-1)
                + 2.0 * q2[:, self._even].sum(axis=-1)
            ) / np.pi
        return fine, np.abs(fine - coarse)

    def _pv_exponent(self, t):
        """Exponent of the PV weight, with singularity subtraction.

        The PV integral (2t/pi) int theta0(tau)/(tau^2 - t^2) dtau is mapped
        by tau = t*sigma^{+-1} onto (0,1); subtracting theta0(t) removes the
        singularity and the difference of phases is evaluated through one
        atan of a stable quotient. t, a 1-d array, is swept in row blocks,
        as in _cauchy.
        """
        a = self.alpha
        c = np.cos(a * np.pi)
        s2 = np.sin(a * np.pi)
        tt = t ** (2 * a)

        def dtheta(tau_pow, t_pow, diff):
            return -np.arctan(s2 * diff / ((tau_pow - c) * (t_pow - c) + s2 * s2))

        fine = np.empty(t.size)
        coarse = np.empty(t.size)
        for i, j in _row_blocks(t.size):
            tb = tt[i:j, None]
            d_hi = -tb * self._expm1_hi
            tau_hi = tb * self._sig_hi
            d_lo = -tb * self._expm1_lo
            tau_lo = tb * self._sig_lo
            num = dtheta(tau_hi, tb, d_hi) - dtheta(tau_lo, tb, d_lo)
            q = self._w * num / self._pv_den
            fine[i:j] = q.sum(axis=-1)
            coarse[i:j] = 2.0 * q[:, self._even].sum(axis=-1)
        return -(2.0 / np.pi) * fine, (2.0 / np.pi) * np.abs(fine - coarse)


def _check_tol(err, table: PhaseTable, what: str) -> None:
    if err.size and not float(err.max()) <= table.tol:  # a NaN estimate fails
        raise AccuracyError(
            f"{what} quadrature error estimate {float(err.max()):.3e} > tol"
        )


def xc0(z, table: PhaseTable):
    """X_c0(z) = exp((1/pi) int_0^inf theta0(t)/(t - z) dt), z off [0, inf).

    An array argument keeps its dtype (a real array of negative points is
    evaluated in real arithmetic); a scalar is evaluated as complex(z) and
    returned as a complex whose imaginary part is +0.0 where X_c0 is real.
    Raises AccuracyError when the quadrature's internal error estimate
    exceeds the table tolerance. Measured at a in {0.55, 0.75, 0.9, 0.99},
    it stays below 1e-10 on Re z <= 0 for 1e-5 <= |z| <= 1e12, and exceeds
    it on the imaginary axis below |z| = 9.9e-6 and near the cut (at
    arg z = pi/4 below |z| = 1e-2).
    """
    scalar = np.ndim(z) == 0
    zz = np.asarray([complex(z)]) if scalar else np.asarray(z).reshape(-1)
    if np.any(~np.isfinite(zz) | ((zz.imag == 0.0) & (zz.real >= 0.0))):
        raise DomainError("xc0 is undefined on the cut [0, inf) and at non-finite z")
    val, err = table._cauchy(zz)
    _check_tol(err, table, "xc0")
    out = np.exp(val)
    if not scalar:
        return out.reshape(np.shape(z))
    out = complex(out[0])
    return complex(out.real, 0.0) if out.imag == 0.0 else out


def pv_weight(t, table: PhaseTable):
    """exp(-(2t/pi) PV int theta0(tau)/(tau^2 - t^2) dtau), for t > 0."""
    expo, err = table._pv_exponent(_check_positive(t))
    _check_tol(err, table, "pv")
    return _shaped(np.exp(expo), t)


def g0(t, table: PhaseTable):
    """g0(t) = t^alpha sin(theta0(t)) pv_weight(t); negative on (0, inf).

    One sweep of the PV weight, the costly part, per call.
    """
    a = table.alpha
    tt = _check_positive(t)
    g = tt**a * np.sin(theta0(tt, table.order)) * pv_weight(tt, table)
    return _shaped(g, t)
