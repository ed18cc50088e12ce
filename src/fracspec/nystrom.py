"""Reference eigenpairs via Nystrom discretization of the integral form.

The boundary value problems are equivalent to integral eigenproblems with
the Riemann-Liouville covariance kernel

    K(x,y) = (1/Gamma(a)^2) int_0^{min(x,y)} (x-t)^{a-1} (y-t)^{a-1} dt

(caputo variant) and its bridge modification K - K(.,1)K(1,.)/K(1,1)
(rl-bridge variant). K has the closed form

    K(x,y) = d^{2a-1} (R^a / a) 2F1(a, 2a; 1+a; R) / Gamma(a)^2,

R = min/max, d = |x-y|, with diagonal x^{2a-1}/((2a-1)Gamma(a)^2); near the
diagonal a connection-formula rewrite avoids the hypergeometric's loss of
accuracy as its argument approaches 1.

The discretization is the singularity-subtracted (corrected) symmetric
Nystrom scheme: B = sqrt(w) K sqrt(w) + diag(S - Q) where S(x_i) is the
exact row integral of the kernel and Q its quadrature approximation. The
correction compensates the |x-y|^{2a-1} diagonal kink, which otherwise
limits Gauss-Legendre convergence far below the tolerances wanted here.
The matrix K(x_i, x_j) comes from one closed-form evaluation on the upper
triangle, mirrored (K depends on (x, y) only through min and max), plus,
for the bridge kernel, the rank-one term built from the one m-vector
K(x_i, 1), which the row integral S reuses. This is the solver's only
kernel path. Scaling by sqrt(w) rounds mirrored entries differently, so
B is symmetrized once more before the eigensolve.
Eigenfunction values between nodes come from the matching corrected
interpolation f(x) = [sum_j w_j K(x,x_j) f_j] / (mu - S(x) + Q(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special as sps
from scipy.linalg import eigh

from .errors import ConvergenceError, DomainError
from .phase import FractionalOrder, Variant
from .quadrature import gauss_legendre_01, tanh_sinh_rule

__all__ = [
    "KernelKind",
    "KernelSpec",
    "NystromGrid",
    "DiscreteSpectrum",
    "kernel_K",
    "kernel_bridge",
    "build_grid",
    "discretize_and_solve",
    "eigenfunction_at",
    "caputo_endpoint_value",
    "mercer_trace_gap",
    "dump_spectrum_csv",
]

_NEAR_DIAG = 1e-8  # switch to the connection formula when d/max < this


class KernelKind(Enum):
    RL = "rl"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class KernelSpec:
    alpha: FractionalOrder
    kind: KernelKind

    def __post_init__(self):
        a = self.alpha.alpha
        if self.kind is KernelKind.BRIDGE and not 0.5 < a <= 1.0:
            raise DomainError("bridge kernel requires alpha in (1/2, 1]")


def _alpha_of(alpha) -> float:
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    return float(alpha)


def _kernel_raw(x, y, a: float):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if a == 1.0:
        return np.minimum(x, y)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    ga2 = sps.gamma(a) ** 2
    pos = hi > 0.0
    R = np.where(pos, lo / np.where(pos, hi, 1.0), 0.0)
    d = hi - lo
    on_diag = d == 0.0
    rel = np.where(on_diag, 1.0, np.where(pos, d / np.where(pos, hi, 1.0), 1.0))
    near = (~on_diag) & (rel < _NEAR_DIAG)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        F = sps.hyp2f1(a, 2 * a, 1 + a, np.where(on_diag | near, 0.0, R))
        off = d ** (2 * a - 1) * R**a / a * F / ga2
    diag = np.where(lo > 0, lo, 1.0) ** (2 * a - 1) / ((2 * a - 1) * ga2)
    out = np.where(on_diag, diag, off)

    if np.any(near):
        # 2F1 connection at unit argument: exact rewrite in powers of d/hi
        c1 = sps.gamma(1 + a) * sps.gamma(1 - 2 * a) / sps.gamma(1 - a)
        c2 = sps.gamma(1 + a) * sps.gamma(2 * a - 1) / (sps.gamma(a) * sps.gamma(2 * a))
        dn = np.where(near, d, 1.0)
        hin = np.where(near, hi, 1.0)
        Rn = np.where(near, R, 0.5)
        Fn = sps.hyp2f1(1.0, 1 - a, 2 - 2 * a, dn / hin)
        kn = (c1 * dn ** (2 * a - 1) + c2 * Rn**a * hin ** (2 * a - 1) * Fn) / (
            a * ga2
        )
        out = np.where(near, kn, out)
    return np.where(lo <= 0, 0.0, out)


def kernel_K(x, y, alpha):
    """The covariance kernel K(x,y); symmetric, nonnegative on [0,1]^2.

    The diagonal needs alpha > 1/2 (otherwise the defining integral
    diverges there); off-diagonal values exist for any alpha in (0,1].
    """
    a = _alpha_of(alpha)
    scalar = np.isscalar(x) and np.isscalar(y)
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    if a <= 0.5 and np.any(np.asarray(xx == yy) & (xx > 0)):
        raise DomainError("diagonal of K requires alpha > 1/2")
    out = _kernel_raw(xx, yy, a)
    return float(out) if scalar else out


def kernel_bridge(x, y, alpha):
    """K(x,y) - K(x,1)K(1,y)/K(1,1); vanishes on the lines x=1 and y=1."""
    a = _alpha_of(alpha)
    if not 0.5 < a <= 1.0:
        raise DomainError("bridge kernel requires alpha in (1/2, 1]")
    scalar = np.isscalar(x) and np.isscalar(y)
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    out = _kernel_of_kind(xx, yy, a, KernelKind.BRIDGE)
    return float(out) if scalar else out


def _row_integral_rl(x, a: float):
    # int_0^1 K(x,y) dy = x^a 2F1(-a, 1; 1+a; x) / (a^2 Gamma(a)^2)
    x = np.asarray(x, dtype=float)
    return x**a * sps.hyp2f1(-a, 1.0, 1 + a, x) / (a * a * sps.gamma(a) ** 2)


def _row_integral_bridge(x, a: float, kx1=None):
    # int_0^1 K(y,1) dy = K(1,1) (2a-1)/(2a^2), so the rank-one part
    # integrates to K(x,1) (2a-1)/(2a^2); kx1 is K(x,1) if already evaluated
    if kx1 is None:
        kx1 = _kernel_raw(np.asarray(x, dtype=float), 1.0, a)
    return _row_integral_rl(x, a) - kx1 * (2 * a - 1) / (2 * a * a)


def _row_integral(x, a: float, kind: KernelKind, kx1=None):
    if kind is KernelKind.BRIDGE:
        return _row_integral_bridge(x, a, kx1)
    return _row_integral_rl(x, a)


def _kernel_of_kind(x, y, a: float, kind: KernelKind):
    if kind is KernelKind.BRIDGE:
        k11 = _kernel_raw(np.asarray(1.0), np.asarray(1.0), a)
        return _kernel_raw(x, y, a) - _kernel_raw(x, 1.0, a) * _kernel_raw(
            1.0, y, a
        ) / k11
    return _kernel_raw(x, y, a)


def _kernel_matrix(x, a: float, kx1=None):
    """K(x_i, x_j) on the nodes x, minus kx1_i kx1_j / K(1,1) if kx1 is given.

    kx1 = K(x, 1) is the column of the bridge kernel's rank-one term. The
    closed form is evaluated once on the upper triangle and mirrored:
    _kernel_raw depends on (x, y) only through min and max, and the
    rank-one product keeps the operation order of _kernel_of_kind, so the
    matrix equals _kernel_of_kind on the full meshgrid bit for bit.
    """
    m = x.size
    i, j = np.triu_indices(m)
    K = np.empty((m, m))
    K[i, j] = K[j, i] = _kernel_raw(x[i], x[j], a)
    if kx1 is not None:
        k11 = _kernel_raw(np.asarray(1.0), np.asarray(1.0), a)
        K -= kx1[:, None] * kx1[None, :] / k11
    return K


@dataclass(frozen=True)
class NystromGrid:
    nodes: np.ndarray
    weights: np.ndarray
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("grid needs m >= 2")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise DomainError("grid weights must sum to 1")
        if np.any(np.diff(self.nodes) <= 0) or np.any(self.weights <= 0):
            raise DomainError("nodes must increase strictly, weights be positive")


def build_grid(m: int) -> NystromGrid:
    """Gauss-Legendre rule mapped to (0,1)."""
    if m < 2:
        raise DomainError("grid needs m >= 2")
    x, w = gauss_legendre_01(m)
    return NystromGrid(nodes=x.copy(), weights=w.copy(), m=int(m))


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Eigenvalues mu (descending, positive) of the integral operator and
    eigenfunction node values, orthonormal in the weighted inner product."""

    mu: np.ndarray
    vectors: np.ndarray  # shape (m, r): column k-1 samples eigenfunction k
    grid: NystromGrid
    spec: KernelSpec

    @property
    def lam(self) -> np.ndarray:
        return 1.0 / self.mu

    @property
    def rho(self) -> np.ndarray:
        return self.lam ** (1.0 / (2.0 * self.spec.alpha.alpha))


def discretize_and_solve(spec: KernelSpec, grid: NystromGrid) -> DiscreteSpectrum:
    """Assemble the corrected symmetric Nystrom matrix and diagonalize.

    Eigenvalues below -1e-10 * mu_1 raise (the operator is positive
    semidefinite; such values mean the discretization broke); tiny negative
    or zero values are clamped and excluded from the returned spectrum.
    """
    a = spec.alpha.alpha
    if a <= 0.5:
        raise DomainError("solver requires alpha > 1/2 (kernel diagonal)")
    x, w = grid.nodes, grid.weights
    # K(x, 1): the bridge's rank-one column, shared by K and the row integral
    kx1 = _kernel_raw(x, 1.0, a) if spec.kind is KernelKind.BRIDGE else None
    K = _kernel_matrix(x, a, kx1)
    if not np.all(np.isfinite(K)):
        raise ConvergenceError("kernel produced non-finite matrix entries")
    S = _row_integral(x, a, spec.kind, kx1)
    Q = K @ w
    sw = np.sqrt(w)
    B = sw[:, None] * K * sw[None, :] + np.diag(S - Q)
    # not a no-op: (sw_i K_ij) sw_j and (sw_j K_ji) sw_i round differently,
    # and eigh reads only the lower triangle
    B = 0.5 * (B + B.T)
    mu, V = eigh(B)
    mu = mu[::-1]
    V = V[:, ::-1]
    if mu[0] <= 0:
        raise ConvergenceError("no positive eigenvalues; discretization broke")
    if mu[-1] < -1e-10 * mu[0]:
        raise ConvergenceError(
            f"negative eigenvalue {mu[-1]:.3e} beyond PSD tolerance"
        )
    keep = mu > 0
    mu = mu[keep]
    F = V[:, keep] / sw[:, None]  # de-scaled node values, weighted-orthonormal

    # sign convention: positive on the first quarter-oscillation near x=0
    lam = 1.0 / mu
    rho = lam ** (1.0 / (2.0 * a))
    for k in range(F.shape[1]):
        win = x < min(float(np.pi / (2.0 * rho[k])), 1.0)
        s = float(w[win] @ F[win, k]) if win.any() else float(F[0, k])
        if s < 0:
            F[:, k] = -F[:, k]
    F.setflags(write=False)
    mu.setflags(write=False)
    return DiscreteSpectrum(mu=mu, vectors=F, grid=grid, spec=spec)


def eigenfunction_at(spectrum: DiscreteSpectrum, k: int, x):
    """Nystrom interpolation of eigenfunction k (1-based) at points x.

    Uses the corrected denominator mu - S(x) + Q(x) consistent with the
    assembly, so node values are reproduced exactly and the weighted node
    norm stays 1.
    """
    r = spectrum.vectors.shape[1]
    if not 1 <= k <= r:
        raise DomainError(f"k must be in [1, {r}]")
    a = spectrum.spec.alpha.alpha
    kind = spectrum.spec.kind
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    xg, w = spectrum.grid.nodes, spectrum.grid.weights
    f = spectrum.vectors[:, k - 1]
    Kxy = _kernel_of_kind(xx[:, None], xg[None, :], a, kind)
    S = _row_integral(xx, a, kind)
    Q = Kxy @ w
    val = (Kxy @ (w * f)) / (spectrum.mu[k - 1] - S + Q)
    return float(val[0]) if scalar else val


def caputo_endpoint_value(alpha, n: int, m: int) -> float:
    """|f_n(1)| for the caputo problem (RL kernel), expected near sqrt(2a)."""
    a = _alpha_of(alpha)
    order = (
        alpha
        if isinstance(alpha, FractionalOrder)
        else FractionalOrder(a, Variant.CAPUTO)
    )
    spec = KernelSpec(order, KernelKind.RL)
    spectrum = discretize_and_solve(spec, build_grid(m))
    return abs(eigenfunction_at(spectrum, n, 1.0))


def mercer_trace_gap(spectrum: DiscreteSpectrum, n_head: int | None = None) -> float:
    """Relative gap between the spectral sum and the diagonal integral.

    The spectral side sums the first n_head computed eigenvalues and closes
    the tail with the two-term frequency asymptotics (a Hurwitz zeta value):
    a raw sum over the m discrete modes misses the operator tail by
    O(m^{1-2a}), which no practical m brings under the tolerances used
    here, while the well-resolved head plus the asymptotic tail agrees to
    ~1e-5. Default n_head = min(200, m // 4).
    """
    a = spectrum.spec.alpha.alpha
    trace_rl = 1.0 / (2 * a * (2 * a - 1) * sps.gamma(a) ** 2)
    if spectrum.spec.kind is KernelKind.BRIDGE:
        u, w, _ = tanh_sinh_rule(6)
        k1 = _kernel_raw(u, 1.0, a)
        k11 = float(_kernel_raw(np.asarray(1.0), np.asarray(1.0), a))
        trace = trace_rl - float(w @ (k1 * k1)) / k11
        shift = (np.pi / 2.0) * (1.0 - 1.0 / a)
    else:
        trace = trace_rl
        shift = -np.pi / 2.0
    if n_head is None:
        n_head = min(200, spectrum.grid.m // 4)
    n_head = max(1, min(int(n_head), spectrum.mu.size))
    tail = np.pi ** (-2 * a) * sps.zeta(2 * a, n_head + 1 + shift / np.pi)
    total = float(spectrum.mu[:n_head].sum()) + float(tail)
    return abs(total - trace) / trace


def dump_spectrum_csv(spectrum: DiscreteSpectrum, fh) -> None:
    """Write `k,mu,lambda,rho` rows with %.12e floats to a text stream."""
    fh.write("k,mu,lambda,rho\n")
    lam = spectrum.lam
    rho = spectrum.rho
    for i, m in enumerate(spectrum.mu):
        fh.write(f"{i + 1},{m:.12e},{lam[i]:.12e},{rho[i]:.12e}\n")


def kernel_typo(x, y, alpha):
    """The literal misprinted kernel form, kept as a reference only.

    Evaluates (x-y)^{a-1} (y^a - (y-min)^a)/(a Gamma(a)^2) via
    exp((a-1) ln(x-y)), which is NaN for x < y and ill-defined on the
    diagonal; no solver path uses it.
    """
    a = _alpha_of(alpha)
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    lo = np.minimum(xx, yy)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pref = np.exp((a - 1.0) * np.log(xx - yy))
        out = pref * (yy**a - (yy - lo) ** a) / (a * sps.gamma(a) ** 2)
    return out
