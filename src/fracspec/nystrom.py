"""Reference eigenpairs via Nystrom discretization of the integral form.

The boundary value problems are equivalent to integral eigenproblems with
the Riemann-Liouville covariance kernel

    K(x,y) = (1/Gamma(a)^2) int_0^{min(x,y)} (x-t)^{a-1} (y-t)^{a-1} dt

(caputo variant) and its bridge modification K - K(.,1)K(1,.)/K(1,1)
(rl-bridge variant). With lo = min(x,y), hi = max(x,y), R = lo/hi and
d = hi - lo, K has the closed form d^{2a-1} (R^a / a) 2F1(a, 2a; 1+a; R)
/ Gamma(a)^2. The identity 2F1(p, 1-q; p+1; z) = p z^{-p} B_z(p, q) (DLMF
8.17.8) and the recurrence q B_z(p, q) = (p+q) B_z(p, q+1) - z^p (1-z)^q
turn it into one regularized incomplete beta I_R:

    K(x,y) = [hi^{a-1} lo^a - c d^{2a-1} I_R(a, 2-2a)] / ((2a-1) Gamma(a)^2),

c = (1-a) B(a, 2-2a). The one expression holds on the diagonal (R = 1,
d = 0 give x^{2a-1}/((2a-1) Gamma(a)^2)) and next to it, where the
hypergeometric series at argument near 1 would lose digits. Every kernel
has a > 1/2 (KernelSpec), where the diagonal is finite.

The special functions need numpy and math alone. I_x(a, b) is the power
series x^a sum_k (1-b)_k/k! x^k/(a+k) / B(a, b) (DLMF 8.17.7-8.17.8) for
x <= 1/2 and its reflection 1 - I_{1-x}(b, a) (DLMF 8.17.20) above. Each
sum is cut where the term at 1/2 drops below 2^-60 and then economized,
once per (a, b): a Chebyshev truncation on [0, 1/2] leaves a polynomial of
degree 22 or less in s = 4x - 1, evaluated by Horner on the whole array.
The kernel passes 1 - R as d/hi, which keeps the digits next to the
diagonal. B and Gamma come from math.gamma. The row integral
int_0^1 K(x,y) dy reuses the same I_x(a, 2-2a), and the Mercer tail's
Hurwitz zeta is an Euler-Maclaurin sum.

The discretization is the singularity-subtracted (corrected) symmetric
Nystrom scheme: B = sqrt(w) K sqrt(w) + diag(S - Q) where S(x_i) is the
exact row integral of the kernel and Q its quadrature approximation. The
correction compensates the |x-y|^{2a-1} diagonal kink, which otherwise
limits Gauss-Legendre convergence far below the tolerances wanted here.
The closed form is evaluated on the upper triangle only, in row blocks (K
depends on (x, y) only through min and max). Each block is finished where
it is evaluated: the rank-one term c_i c_j / K(1,1), from the m-vector c
that the row integral S reuses (_column: K(x_i, 1), or 0 for the RL kernel,
which is not subtracted), is subtracted and the entries are scaled by
sqrt(w_i) sqrt(w_j). Only then is the block mirrored, so B is symmetric bit
for bit. This is the solver's only kernel path.

The eigensolve computes only the leading modes a caller asks for, by one
of two routes. A few modes of a large matrix (20 n_modes <= m) come from
Lanczos with full reorthogonalization, and a Cholesky factorization of
B + 1e-10 mu_1 I, in place in B by tiles, certifies that no eigenvalue lies
below -1e-10 mu_1. Every other request, and a Lanczos run that does not
converge, takes one dense LAPACK call (eigvalsh, or eigh with vectors)
whose smallest eigenvalue is tested directly.
Eigenfunction values between nodes come from the matching corrected
interpolation f(x) = [sum_j w_j K(x,x_j) f_j] / (mu - S(x) + Q(x)), whose
kernel is evaluated in row blocks of the same size, from phase._row_blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, eigvalsh, inv

from .errors import ConvergenceError, DomainError, _check_count
from .phase import (
    FractionalOrder, _as_order, _check_unit, _first_quarter_sign, _row_blocks, _shaped
)
from .quadrature import gauss_legendre_01, tanh_sinh_rule

__all__ = [
    "KernelKind",
    "KernelSpec",
    "NystromGrid",
    "DiscreteSpectrum",
    "kernel_K",
    "build_grid",
    "discretize_and_solve",
    "eigenfunction_at",
    "mercer_trace_gap",
]

class KernelKind(Enum):
    RL = "rl"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel of either kind at an order alpha > 1/2, where its diagonal
    is finite (FractionalOrder keeps alpha <= 1)."""

    alpha: FractionalOrder
    kind: KernelKind

    def __post_init__(self):
        o = self.alpha
        if not isinstance(o, FractionalOrder):
            raise DomainError(f"a kernel needs a FractionalOrder, got {o!r}")
        if not o.alpha > 0.5:
            raise DomainError(f"a kernel needs alpha > 1/2, got alpha={o.alpha} ({o.variant.value})")


def _beta(a: float, b: float) -> float:
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@lru_cache(maxsize=16)
def _economized(p: float, q: float) -> tuple:
    """sum_k (1-q)_k / k! z^k / (p+k) / B(p, q) on 0 <= z <= 1/2 as a
    polynomial in s = 4z - 1, economized: its coefficients of s^0, s^1, ...

    The Taylor series in z is cut where the term at z = 1/2 drops below
    2^-60; for 0 < q <= 2 the terms after it shrink at least by 1/2 each, so
    the tail is below 2^-59. The cut series (41-56 terms) is shifted to s,
    converted to Chebyshev coefficients by the exact identity
    s^j = 2^-j sum_i C(j, i) T_|j-2i|(s), cut after the last coefficient at
    or above 2^-60 |c_0| (Trefethen, Approximation Theory and Approximation
    Practice, 2013, ch. 8), and converted back to monomials in s: degree
    13-22 for both orders of the kernel's (a, 2-2a), a from 0.501 to 0.999.
    """
    coef = []
    poch = 1.0  # (1-q)_k / k!
    while True:
        k = len(coef)
        coef.append(poch / (p + k))
        if abs(coef[-1]) * 0.5**k < 2.0**-60:
            break
        poch *= (k + 1 - q) / (k + 1)
    n = len(coef)
    pascal = np.zeros((n, n))  # pascal[j, i] = C(j, i)
    pascal[:, 0] = 1.0
    for j in range(1, n):
        pascal[j, 1:] = pascal[j - 1, 1:] + pascal[j - 1, :-1]
    # z^k = 4^-k (1 + s)^k = 4^-k sum_j C(k, j) s^j
    mono = (np.array(coef) * 0.25 ** np.arange(n)) @ pascal
    cheb = np.zeros(n)
    j, i = np.tril_indices(n)
    np.add.at(cheb, np.abs(j - 2 * i), (mono * 0.5 ** np.arange(n))[j] * pascal[j, i])
    deg = np.flatnonzero(np.abs(cheb) >= 2.0**-60 * abs(cheb[0]))[-1]
    # back to monomials in s: row k of T holds T_k, from T_0 = 1, T_1 = s
    # and T_{k+1} = 2 s T_k - T_{k-1}
    T = np.eye(deg + 1)
    for k in range(1, deg):
        T[k + 1] = np.append(0.0, 2.0 * T[k, :-1]) - T[k - 1]
    return tuple((cheb[: deg + 1] @ T / _beta(p, q)).tolist())


def _series(z, p: float, q: float):
    # z^p sum_k (1-q)_k / k! z^k / (p+k) / B(p, q) on the array z <= 1/2,
    # which is overwritten; the sum is _economized's polynomial, by Horner in s
    coef = _economized(p, q)
    s = z * 4.0
    s -= 1.0
    acc = np.full(z.shape, coef[-1])
    for c in coef[-2::-1]:
        acc *= s
        acc += c
    z **= p
    acc *= z
    return acc


def _betainc(a: float, b: float, x, xc):
    """The regularized incomplete beta I_x(a, b) for scalar a, b > 0.

    xc must be 1 - x exactly, computed by the caller from quantities that
    keep its digits. For x <= 1/2, I = x^a S(a, b, x) / B(a, b) with
    S(p, q, z) = sum_k (1-q)_k / k! z^k / (p+k) (DLMF 8.17.7); above 1/2
    the reflection I = 1 - xc^b S(b, a, xc) / B(a, b) (DLMF 8.17.20), so
    the series argument never exceeds 1/2.
    """
    out = np.empty(x.shape)
    low = x <= 0.5
    out[low] = _series(x[low], a, b)
    high = ~low  # NaN x (0/0 in the kernel) lands here and stays NaN
    out[high] = 1.0 - _series(xc[high], b, a)
    return out


def _kernel_raw(x, y, a: float):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _kernel_sorted(np.minimum(x, y), np.maximum(x, y), a)


def _kernel_sorted(lo, hi, a: float):
    # K from lo = min(x, y) and hi = max(x, y), broadcast against each other:
    # the block sweep passes a column and a row of nodes, so that no full
    # array of either is made
    d = hi - lo
    if a == 1.0:
        return np.broadcast_to(lo, d.shape)
    # lo = 0 (0/0, 0^(a-1)) is masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        b = 2.0 - 2.0 * a
        c = (1.0 - a) * _beta(a, b)
        # 1 - lo/hi passed as d/hi keeps its digits next to the diagonal
        ib = _betainc(a, b, lo / hi, d / hi)
        out = hi ** (a - 1.0) * lo**a - c * d ** (2.0 * a - 1.0) * ib
        out /= (2.0 * a - 1.0) * math.gamma(a) ** 2
    return np.where(lo <= 0, 0.0, out)


def kernel_K(x, y, alpha):
    """The covariance kernel K(x,y) on [0,1]^2, DomainError off it; symmetric, nonnegative.

    alpha > 1/2 (KernelSpec's rule; below it K diverges on the diagonal), a
    FractionalOrder or a float. x and y broadcast; a 0-d result is a float.
    """
    a = KernelSpec(_as_order(alpha), KernelKind.RL).alpha.alpha
    _check_unit(x)
    _check_unit(y, "y")
    out = _kernel_raw(x, y, a)
    # at a = 1 the kernel is a read-only broadcast view of min(x, y)
    return float(out) if np.ndim(out) == 0 else np.require(out, requirements="W")


def _k11(a: float) -> float:
    # K(1, 1), bit for bit _kernel_raw(1, 1, a), whose numerator is exactly 1
    return 1.0 / ((2.0 * a - 1.0) * math.gamma(a) ** 2)


def _column(spec: KernelSpec, x):
    # the rank-one column c of K(x,y) - c(x) c(y) / K(1,1): K(x, 1), or 0 (RL)
    if spec.kind is KernelKind.BRIDGE:
        return _kernel_raw(x, 1.0, spec.alpha.alpha)
    return np.zeros(np.shape(x))


def _row_integral(x, a: float, kx1):
    # int_0^1 K(x,y) dy = J(x) / (a Gamma(a)^2) with J = int_0^x (x-t)^{a-1}
    # (1-t)^a dt = (1-x)^{2a} B_x(a, -2a); two steps of q B_z(p, q) =
    # (p+q) B_z(p, q+1) - z^p (1-z)^q reach the kernel's I_x(a, 2-2a). The
    # rank-one part of the column kx1 = c(x) integrates to kx1 (2a-1)/(2a^2)
    # = kx1 int K(y,1) dy / K(1,1)
    x = np.asarray(x, dtype=float)
    if a == 1.0:
        s = x - x * x / 2
    else:
        b = 2.0 - 2.0 * a
        c = (1.0 - a) * _beta(a, b)
        xa = x**a
        # 1 - x is exact where _betainc reads it (x > 1/2)
        ib = _betainc(a, b, x, 1.0 - x)
        J = xa / (2 * a) + (xa * (1 - x) - c * (1 - x) ** (2 * a) * ib) / (2 * (2 * a - 1))
        s = J / (a * math.gamma(a) ** 2)
    return s - kx1 * (2 * a - 1) / (2 * a * a)


# cells of one row block (_BLOCK_CELLS // m rows) of the kernel matrix and of
# the interpolation's kernel: 256 KB of float64, so a block's _series sweep
# stays in cache and its temporaries below B / 4 at m >= 1000
_BLOCK_CELLS = 32768
# tile width of _certify_psd (fastest at m = 400-800)
_TILE = 128


def _kernel_matrix(x, a: float, sw, kx1):
    """(K(x_i, x_j) - kx1_i kx1_j / K(1,1)) (sw_i sw_j) on the sorted nodes x.

    kx1 = c(x) is the rank-one column (_column; the RL kernel's zeros are
    not subtracted), sw the square roots of the weights. The upper triangle
    is swept in the blocks of _row_blocks(m, _BLOCK_CELLS // m), each entry
    finished where it is evaluated, and each block then mirrored: the matrix
    is symmetric bit for bit, and equals the formula on the full meshgrid
    bit for bit, since _kernel_raw depends on (x, y) only through min and
    max. Each block's rectangle right of its diagonal square (the last has
    none) is one broadcast call, and the triangles of all diagonal squares
    one gathered call.
    """
    m = x.size
    # subtracting the RL kernel's zeros would keep every bit but cost time
    rank_one = np.any(kx1)

    def finished(i, j):
        # the entries (i, j), i <= j, for index arrays or slices of x that
        # broadcast against each other
        out = _kernel_sorted(x[i], x[j], a)
        if rank_one:
            out = out - kx1[i] * kx1[j] / _k11(a)
        return out * (sw[i] * sw[j])

    B = np.empty((m, m))
    blocks = list(_row_blocks(m, max(1, _BLOCK_CELLS // m)))
    for r0, r1 in blocks[:-1]:
        blk = finished(np.s_[r0:r1, None], np.s_[None, r1:])
        B[r0:r1, r1:] = blk
        B[r1:, r0:r1] = blk.T
    # every triangle cut from the largest one: triu_indices per block is slow
    r0, r1 = np.array(blocks).T[:, :, None]
    ti, tj = np.triu_indices(int((r1 - r0).max()))
    keep = tj < r1 - r0
    i, j = (r0 + ti)[keep], (r0 + tj)[keep]
    B[i, j] = B[j, i] = finished(i, j)
    return B


@dataclass(frozen=True)
class NystromGrid:
    """The m-point Gauss-Legendre rule on (0,1), m an integer >= 2. Its nodes
    and weights are the read-only cached rule of ``gauss_legendre_01``
    (one pass of the Legendre recurrence, O(m^2), then Newton on each
    node's local Taylor polynomial)."""

    m: int

    def __post_init__(self):
        if _check_count(self.m, "m") < 2:
            raise DomainError(f"a grid needs m >= 2, got m={self.m}")

    @property
    def nodes(self) -> np.ndarray:
        return gauss_legendre_01(self.m)[0]

    @property
    def weights(self) -> np.ndarray:
        return gauss_legendre_01(self.m)[1]


def build_grid(m: int) -> NystromGrid:
    """NystromGrid(m), the m-point Gauss-Legendre rule on (0,1)."""
    return NystromGrid(m)


@dataclass(frozen=True)
class DiscreteSpectrum:
    """The r leading eigenvalues mu (descending, positive) of the integral
    operator and, if the solve asked for them, the node values of their
    eigenfunctions, weighted-orthonormal (otherwise vectors has no column)."""

    mu: np.ndarray
    vectors: np.ndarray  # (m, r), or (m, 0) without vectors: column k-1 is mode k
    grid: NystromGrid
    spec: KernelSpec

    @property
    def lam(self) -> np.ndarray:
        return 1.0 / self.mu

    @property
    def rho(self) -> np.ndarray:
        return self.lam ** (1.0 / (2.0 * self.spec.alpha.alpha))


def _nystrom_matrix(spec: KernelSpec, grid: NystromGrid) -> np.ndarray:
    """The corrected symmetric Nystrom matrix B = sqrt(w) K sqrt(w) + diag(S - Q)."""
    a = spec.alpha.alpha
    x, w = grid.nodes, grid.weights
    # the rank-one column, shared by K and the row integral
    kx1 = _column(spec, x)
    sw = np.sqrt(w)
    B = _kernel_matrix(x, a, sw, kx1)
    # Q = K @ w. Every sw_j > 0, so a non-finite entry of B makes its row's
    # Q non-finite: this is the check on the whole matrix
    Q = (B @ sw) / sw
    if not np.all(np.isfinite(Q)):
        raise ConvergenceError("kernel produced non-finite matrix entries")
    B[np.diag_indices(grid.m)] += _row_integral(x, a, kx1) - Q
    return B


def _step_cap(k: int, m: int) -> int:
    return min(4 * k + 48, m)


def _lanczos(B: np.ndarray, k: int, vectors: bool):
    """The k leading eigenpairs of the symmetric B, largest first, or None.

    Lanczos with full reorthogonalization: each new vector is orthogonalized
    against all earlier ones in two classical Gram-Schmidt passes ("twice is
    enough", Parlett, The Symmetric Eigenvalue Problem, 1998, sec. 6.9). The
    start vector is the golden-ratio Weyl sequence (i / phi) mod 1 - 1/2,
    fixed, so repeated solves are bitwise identical. Every 8 steps (and at the cap) the
    tridiagonal T_j is diagonalized, T_j S = S diag(theta); the run stops
    once the Ritz residual |beta_j s_ji| <= 1e-14 theta_1 for each of the k
    leading Ritz pairs; theta_i is then that close to an eigenvalue of B.
    Returns (theta, V) with V the Ritz vectors (None if not vectors), or None
    when _step_cap steps do not converge or the recurrence breaks down.
    """
    m = B.shape[0]
    steps = _step_cap(k, m)
    Qv = np.empty((steps, m))  # row j is Lanczos vector q_j
    q = (np.arange(1, m + 1) * 0.6180339887498949) % 1.0 - 0.5
    Qv[0] = q / np.linalg.norm(q)
    alpha = np.empty(steps)
    beta = np.empty(steps)
    for j in range(steps):
        w = B @ Qv[j]
        alpha[j] = Qv[j] @ w
        Q = Qv[: j + 1]
        for _ in range(2):
            w -= (Q @ w) @ Q
        beta[j] = np.linalg.norm(w)
        if j + 1 >= k and ((j + 1) % 8 == 0 or j + 1 == steps):
            T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, S = eigh(T)
            theta, S = theta[: -k - 1 : -1], S[:, : -k - 1 : -1]
            if np.all(np.abs(beta[j] * S[-1]) <= 1e-14 * theta[0]):
                return theta, (Q.T @ S if vectors else None)
        if j + 1 == steps or not beta[j] > 0:
            return None
        Qv[j + 1] = w / beta[j]


def _dense_modes(B: np.ndarray, vectors: bool):
    """Every eigenvalue of B, descending, and the eigenvectors if vectors.

    One LAPACK call, eigvalsh or eigh; an eigenvalue below -1e-10 mu_1
    raises ConvergenceError.
    """
    ev, V = eigh(B) if vectors else (eigvalsh(B), None)  # ascending
    mu = ev[::-1]
    if mu[0] <= 0:
        raise ConvergenceError("no positive eigenvalues; discretization broke")
    if mu[-1] < -1e-10 * mu[0]:
        raise ConvergenceError(f"negative eigenvalue {mu[-1]:.3e} beyond PSD tolerance")
    return mu, (V[:, ::-1] if vectors else None)


def _certify_psd(B: np.ndarray, mu1: float) -> None:
    # B + 1e-10 mu_1 I has a Cholesky factor exactly when no eigenvalue of B
    # lies below -1e-10 mu_1, up to a backward error of about m eps mu_1
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). B is
    # not read again: the factorization runs in place in its lower triangle,
    # right-looking by tiles (Golub & Van Loan, Matrix Computations, sec.
    # 4.2), with LAPACK on each diagonal tile, which fails exactly when a
    # pivot is not positive, and the trailing update by column tiles
    m = B.shape[0]
    B[np.diag_indices(m)] += 1e-10 * mu1
    tiles = list(_row_blocks(m, _TILE))
    for t, (k0, k1) in enumerate(tiles):
        try:
            L = cholesky(B[k0:k1, k0:k1])
        except LinAlgError:
            raise ConvergenceError(
                "negative eigenvalue beyond PSD tolerance (no Cholesky factor of"
                f" B + 1e-10 mu_1 I, mu_1 = {mu1:.3e})"
            ) from None
        B[k0:k1, k0:k1] = L
        P = B[k1:, k0:k1]
        P[...] = P @ inv(L).T
        for j0, j1 in tiles[t + 1 :]:
            B[j0:, j0:j1] -= P[j0 - k1 :] @ P[j0 - k1 : j1 - k1].T


def discretize_and_solve(
    spec: KernelSpec,
    grid: NystromGrid,
    n_modes: int | None = None,
    vectors: bool = True,
) -> DiscreteSpectrum:
    """Assemble the corrected symmetric Nystrom matrix and diagonalize.

    Returns the n_modes leading eigenvalues (every positive one if None),
    with their eigenvectors if vectors; a caller that reads fewer vectors
    slices .vectors[:, :k]. When 20 n_modes <= m the modes come from
    Lanczos (_lanczos), certified positive semidefinite by a Cholesky
    factorization of B + 1e-10 mu_1 I; otherwise, or if Lanczos does not
    converge, from one dense LAPACK call (eigvalsh for values, eigh with
    vectors) tested by mu_min >= -1e-10 mu_1. Either way an eigenvalue
    below -1e-10 mu_1 raises ConvergenceError (the operator is positive
    semidefinite; such values mean the discretization broke); tiny negative
    or zero values are excluded from the spectrum. Fewer than n_modes
    positive modes raise DomainError.
    """
    if n_modes is not None:
        n_modes = _check_count(n_modes, "n_modes")
    B = _nystrom_matrix(spec, grid)
    x, w, m = grid.nodes, grid.weights, grid.m
    # Lanczos costs O(m^2) per step and about 4 k + 48 steps for k modes, a
    # dense solve O(m^3): at m = 300-2000 Lanczos wins once 20 k <= m
    found = _lanczos(B, n_modes, vectors) if n_modes and 20 * n_modes <= m else None
    if found is not None:
        _certify_psd(B, float(found[0][0]))
    mu, V = found if found is not None else _dense_modes(B, vectors)
    mu = mu[mu > 0]  # a prefix: mu is descending
    r = mu.size if n_modes is None else n_modes
    if r > mu.size:
        raise DomainError(f"n_modes={r} exceeds the {mu.size} computed modes")
    mu = mu[:r]
    # de-scaled, weighted-orthonormal
    F = V[:, :r] / np.sqrt(w)[:, None] if vectors else np.empty((m, 0))
    spectrum = DiscreteSpectrum(mu=mu, vectors=F, grid=grid, spec=spec)
    rho = spectrum.rho
    for k in range(F.shape[1]):
        F[:, k] *= _first_quarter_sign(x, w, F[:, k], rho[k])
    F.setflags(write=False)
    mu.setflags(write=False)
    return spectrum


def eigenfunction_at(spectrum: DiscreteSpectrum, k: int, x):
    """Nystrom interpolation of eigenfunction k (1-based) at points x.

    Uses the corrected denominator mu - S(x) + Q(x) consistent with the
    assembly, so node values are reproduced exactly and the weighted node
    norm stays 1.
    """
    r = spectrum.vectors.shape[1]
    if r == 0:
        raise DomainError("the spectrum holds no eigenvectors (solved with vectors=False)")
    if _check_count(k, "k") > r:
        raise DomainError(f"k={k} exceeds the {r} eigenvectors of the spectrum")
    a = spectrum.spec.alpha.alpha
    xx = _check_unit(x)
    xg, w = spectrum.grid.nodes, spectrum.grid.weights
    wf = w * spectrum.vectors[:, k - 1]
    # the rank-one column at the points (shared with the row integral) and the nodes
    kx1, kg1, k11 = _column(spectrum.spec, xx), _column(spectrum.spec, xg), _k11(a)
    S = _row_integral(xx, a, kx1)
    num, Q = np.empty(xx.size), np.empty(xx.size)
    # row blocks of points, so that no (points x m) array is made
    for i, j in _row_blocks(xx.size, max(1, _BLOCK_CELLS // xg.size)):
        Kxy = _kernel_raw(xx[i:j, None], xg[None, :], a) - kx1[i:j, None] * kg1[None, :] / k11
        num[i:j], Q[i:j] = Kxy @ wf, Kxy @ w
    return _shaped(num / (spectrum.mu[k - 1] - S + Q), x)


# B_2, B_4, ..., B_16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _hurwitz_zeta(s: float, q: float) -> float:
    """sum_{k>=0} (q+k)^-s for s > 1, q > 0, by Euler-Maclaurin.

    Twelve head terms, the integral and half-term of the rest, and the
    B_2..B_16 corrections at w = q + 12; for q >= 1/2 and s <= 2 the first
    omitted correction is below 1e-19 relative.
    """
    head = 12
    w = q + head
    total = math.fsum((q + k) ** -s for k in range(head))
    total += w ** (1 - s) / (s - 1) + 0.5 * w**-s
    t = s * w ** (-s - 1) / 2  # (s)_{2j-1} w^{-s-2j+1} / (2j)!, j = 1
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j * t
        t *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * w * w)
    return total


def _mercer_head(m: int) -> int:
    """mercer_trace_gap's head length on m points; 20 times it is <= m if m >= 20."""
    return max(1, min(30, m // 20))


def mercer_trace_gap(spectrum: DiscreteSpectrum) -> float:
    """Relative gap between the spectral sum and the diagonal integral.

    The spectral side sums the head of computed eigenvalues and closes the
    tail with the two-term frequency asymptotics (a Hurwitz zeta value): a
    raw sum over the m discrete modes misses the operator tail by
    O(m^{1-2a}), which no practical m brings under the tolerances used
    here. The asymptotics are sharp by n = 20-30 while the Nystrom error of
    mode n grows with n, so the head is short, min(30, m // 20) modes and
    at least 1; over a in [0.501, 1] and both kernels the gap is at most
    5.1e-4 at m = 20, 5.2e-6 at m = 100, 1.5e-6 at m = 300 and 2.6e-8 at
    m = 2000. A spectrum shorter than the head raises DomainError.
    """
    spec = spectrum.spec
    a = spec.alpha.alpha
    trace_rl = 1.0 / (2 * a * (2 * a - 1) * math.gamma(a) ** 2)
    u, w, _ = tanh_sinh_rule()
    c = _column(spec, u)
    trace = trace_rl - float(w @ (c * c / _k11(a)))
    shift = (np.pi / 2.0) * (1.0 - 1.0 / a) if spec.kind is KernelKind.BRIDGE else -np.pi / 2.0
    head = _mercer_head(spectrum.grid.m)
    if head > spectrum.mu.size:
        raise DomainError(
            f"the Mercer head of {head} modes exceeds the {spectrum.mu.size}"
            " modes of the spectrum"
        )
    tail = np.pi ** (-2 * a) * _hurwitz_zeta(2 * a, head + 1 + shift / np.pi)
    total = float(spectrum.mu[:head].sum()) + float(tail)
    return abs(total - trace) / trace
