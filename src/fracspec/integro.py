"""Half-line integral system: refined eigenvalues past the asymptotics.

The eigenvalue problem reduces, after a Laplace-type transform, to a 2x2
system of integral equations on (0, inf) in a scaled variable t (the
frequency rho only enters through e^{-rho tau} and explicit prefactors):

    (A f)(t) = (1/pi) int_0^inf e^{-rho tau}/(tau + t) M(tau) f(tau) dtau,
    M = [[0, g0], [-h0, 0]] = g0 [[0, 1], [1, 0]],

since h0 = -g0 exactly: M swaps the two components and scales them by g0.
The three inhomogeneous solutions are p = Ap + (1,0), q = Aq + (0,1) and
r = Ar + (0,t). A commutes with that swap, so q = p[::-1] exactly and only
p and r are iterated. Their analytic continuations at t = -+i combine into two
boundary functionals xi, eta; rho is an eigenvalue's signature exactly when
Im(xi conj(eta)) = 0. Roots are isolated by sampling the normalized
condition on a grid around the two-term asymptotic value, visiting its
intervals nearest-first and stopping at the first sign change, and are
polished by _brentq, scipy's Brent solver ported with bit-identical roots.

g0 vanishes like t^alpha at 0 and decays like t^{-alpha} at infinity, so
the system is solved on 40 octaves below T, the least power of two
>= 40/rho (the kernel's own decay makes the tail negligible), each carrying
one 6-node Gauss pattern scaled by a power of two: a node depends on its
octave only, never on rho. Fixed-point iteration contracts for every rho
used here; non-contraction raises rather than looping.

What does not depend on rho is built once per refine_roots call (or lone
refine_rho), over the octaves of every rho in its brackets: g0 (one sweep of
the costly PV weight) and the Cauchy matrix 1/(t_i + t_j). Each evaluation
slices its 240 nodes from there, bit for bit what a standalone solve_pqr
builds. solve_pqr is the one place the operator exists: a sweep swaps the
two components, scales them by e^{-rho t} w g0 / pi at the source nodes
and multiplies by rho's window block of the Cauchy matrix, a view, so no
per-rho matrix is built. The PQRSolution carries the kernel data (g0 and
the weights times e^{-rho t}) and X_c0(i) is the PhaseTable's, so secular
and reconstruct_f_exact sample nothing again. refine_rho takes alpha from
its PhaseTable and evaluates each rho once; a root typically takes six or
seven evaluations, and its RefinedRoot keeps the root's value.

reconstruct_f_exact rebuilds the eigenfunction from one secular value, with
no solve: one oscillatory residue term plus two boundary-layer integrals
over the half line, normalized to unit L2 norm on (0,1). Its layer densities
and blocked Laplace sum are asymptotics', as for the layered asymptote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    Order, _laplace_sum, _layer_densities, _layer_rule, rho_asymptotic
)
from .errors import (
    AccuracyError, BracketError, ConvergenceError, DomainError, FracspecError
)
from .phase import (
    FractionalOrder,
    PhaseTable,
    _check_positive,
    _check_unit,
    _first_quarter_sign,
    _shaped,
    b_alpha,
    g0,
)
from .quadrature import gauss_legendre_01

__all__ = [
    "PQRSolution",
    "SecularValue",
    "RefinedRoot",
    "solve_pqr",
    "analytic_extend",
    "secular",
    "refine_rho",
    "refine_roots",
    "reconstruct_f_exact",
]

_T_OVER_RHO = 40.0  # truncation: e^{-rho tau} < 5e-18 past tau = 40/rho
_OCTAVES = 40  # dyadic refinement toward 0; cutoff error ~ (T 2^-40)^{1+a}
_PER_OCTAVE = 6  # Gauss nodes per octave
_SCAN_POINTS = 33  # bracket search nodes on [rho_n - pi/2, rho_n + pi/2]
_STOP = 1e-12
_MAX_ITER = 100


def _top_exponent(rho: float) -> int:
    """E such that T = 2^E is the least power of two >= 40/rho."""
    m, e = math.frexp(_T_OVER_RHO / rho)
    return e - 1 if m == 0.5 else e


def _octave_rule(lo: int, hi: int):
    """Gauss rule on the octaves [2^k, 2^(k+1)], lo <= k < hi, read-only."""
    xg, wg = gauss_legendre_01(_PER_OCTAVE)
    k = np.arange(lo, hi)[:, None]
    t = np.ldexp(1.0 + xg, k).ravel()
    w = np.ldexp(wg, k).ravel()
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _sample_octaves(lo: float, hi: float, table: PhaseTable):
    """(k0, t, w, g0, D) over octaves k0, ... of every rho in [lo, hi],
    with D the Cauchy matrix 1/(t_i + t_j) of the nodes t."""
    k0 = _top_exponent(hi) - _OCTAVES
    t, w = _octave_rule(k0, _top_exponent(lo))
    D = 1.0 / (t[None, :] + t[:, None])
    return k0, t, w, g0(t, table), D


@dataclass(frozen=True, eq=False)
class PQRSolution:
    """Converged grid values of the three auxiliary solutions.

    p, q, r have shape (2, N) over the grid nodes, q = p[::-1]; iterations
    is the number of sweeps. gv and e are the kernel data the system was
    solved with: g0, both off-diagonal blocks of M, and the weights times
    e^{-rho t}, all on the grid; the continuation reads them instead of
    sampling g0 again.
    """

    rho: float
    grid: np.ndarray
    weights: np.ndarray
    gv: np.ndarray
    e: np.ndarray
    p: np.ndarray
    r: np.ndarray
    iterations: int

    @property
    def q(self) -> np.ndarray:
        return self.p[::-1]


def solve_pqr(rho: float, table: PhaseTable, *, _samples=None) -> PQRSolution:
    """Solve the fixed-point systems of p and r on rho's 240 nodes; q is p
    with its components swapped.

    The nodes and their kernel data are sliced from _sample_octaves output
    over a window of octaves that holds rho's (by default, rho's own);
    refine_rho passes its bracket's as _samples, of the same values. A sweep
    applies the operator as swap, column scale and window block: the two
    components are swapped, scaled by e g0 / pi at the source nodes, and
    multiplied by the window's block of the shared Cauchy matrix, so no
    per-rho matrix is built. Stops when both families' sup-norm updates are
    below 1e-12; raises ConvergenceError if an update is not finite or
    grows, or if the updates stay above that after 100 sweeps.
    """
    _check_positive(rho, "rho")
    k0, t, w, gv, D = _samples or _sample_octaves(rho, rho, table)
    i = (_top_exponent(rho) - _OCTAVES - k0) * _PER_OCTAVE
    j = i + _OCTAVES * _PER_OCTAVE
    if i < 0 or j > t.size:
        raise DomainError(f"rho={rho:g} lies outside the sampled octaves")
    t, w, gv = t[i:j], w[i:j], gv[i:j]
    e = w * np.exp(-rho * t)
    sc = e * gv / np.pi
    C = D[i:j, i:j]  # a view: D is symmetric, so C maps sources to targets
    b = np.zeros((2, 2, t.size))
    b[0, 0] = 1.0  # p
    b[1, 1] = t  # r
    f = b.copy()
    prev = np.inf
    for it in range(1, _MAX_ITER + 1):
        new = b + (f[:, ::-1] * sc) @ C
        d = float(np.abs(new - f).max())
        f = new
        if d < _STOP:
            break
        if not math.isfinite(d):
            raise ConvergenceError(f"fixed-point sweep {it}: non-finite update at rho={rho:g}")
        if d > 1.5 * prev and prev > _STOP:
            raise ConvergenceError(
                f"fixed-point iteration is not contracting at rho={rho:g}"
                f" (update grew {prev:.3e} -> {d:.3e})"
            )
        prev = d
    else:
        raise ConvergenceError(
            f"fixed-point iteration did not converge in {_MAX_ITER} sweeps"
            f" at rho={rho:g} (last update {prev:.3e})"
        )
    return PQRSolution(
        rho=float(rho),
        grid=t,
        weights=w,
        gv=gv,
        e=e,
        p=f[0],
        r=f[1],
        iterations=it,
    )


def analytic_extend(sol: PQRSolution, z):
    """Evaluate the continuations of p, q, r at z off (-inf, 0].

    One point z gives three (2,) complex arrays, an array of points three
    (2,) + z.shape arrays of its dtype. On (-inf, 0] the kernel 1/(tau + z)
    hits the integration range, so the formula does not define a
    continuation there, nor at a non-finite z. Values at conjugate points
    are conjugate (all grid data is real); at a grid node the continuation
    reproduces the grid value. The (M x N) kernel, from sol's data, is built
    in place.
    """
    one = np.ndim(z) == 0
    zz = np.asarray([complex(z)]) if one else np.asarray(z).reshape(-1)
    if np.any(~np.isfinite(zz) | ((zz.imag == 0.0) & (zz.real <= 0.0))):
        raise DomainError("continuation undefined on (-inf, 0] and at non-finite z")
    kg = sol.grid[None, :] + zz[:, None]
    np.divide(sol.e, kg, out=kg)
    kg /= np.pi
    kg *= sol.gv
    shape = (2,) + np.shape(z)  # (2,) for one point
    p = np.stack([kg @ sol.p[1] + 1.0, kg @ sol.p[0]]).reshape(shape)
    r = np.stack([kg @ sol.r[1], kg @ sol.r[0] + zz]).reshape(shape)
    return p, p[::-1], r


@dataclass(frozen=True, eq=False)
class SecularValue:
    """Boundary functionals at the solution's rho; condition is Im(xi conj(eta))."""

    xi: complex
    eta: complex
    solution: PQRSolution

    @property
    def rho(self) -> float:
        return self.solution.rho

    @property
    def condition(self) -> float:
        return float(np.imag(self.xi * np.conj(self.eta)))

    @property
    def normalized(self) -> float:
        return self.condition / (abs(self.xi) * abs(self.eta))


def secular(rho: float, table: PhaseTable, *, _samples=None):
    """Assemble xi and eta from the continuation at -i and its conjugate at +i.

    xi  = X(rho i) p1(-i) + rho^-a e^{-rho i} Y(-rho i) p2(i)
    eta = X(rho i) rho^a [rho b q1(-i) - rho r1(-i)]
        + e^{-rho i} Y(-rho i) [rho b q2(i) - rho r2(i)]

    with X(rho i) = X_c0(i)/(rho i), Y(-rho i) = (rho i)^{a-1} X_c0(-i) and
    b = b_alpha. Im(xi conj(eta)) vanishes exactly at eigenvalue signatures
    rho = lambda^{1/(2a)}. X_c0(i) is the table's; _samples is handed on to
    solve_pqr.
    """
    a = table.alpha
    sol = solve_pqr(rho, table, _samples=_samples)
    # all grid data is real, so the continuation at +i is the conjugate of
    # the one at -i, bit for bit, and is not evaluated again
    pm, qm, rm = analytic_extend(sol, -1j)
    pp, qp, rp = pm.conj(), qm.conj(), rm.conj()
    x_i = table.xc_i
    x_mi = x_i.conjugate()  # X_c0(conj z) = conj X_c0(z)
    X = x_i / (rho * 1j)
    Y = (rho * 1j) ** (a - 1.0) * x_mi
    ph = np.exp(-1j * rho)
    bal = b_alpha(table.order)
    xi = X * pm[0] + rho ** (-a) * ph * Y * pp[1]
    eta = X * rho**a * (rho * bal * qm[0] - rho * rm[0]) + ph * Y * (
        rho * bal * qp[1] - rho * rp[1]
    )
    return SecularValue(complex(xi), complex(eta), sol)


@dataclass(frozen=True, eq=False)
class RefinedRoot:
    """A polished root of the secular condition near the n-th asymptote; rho is its value's."""

    n: int
    value: SecularValue
    bracket: tuple
    order: FractionalOrder  # the table's, which rho belongs to

    @property
    def rho(self) -> float:
        return self.value.rho

    @property
    def condition_residual(self) -> float:
        return abs(self.value.normalized)

    @property
    def iterations(self) -> int:
        return self.value.solution.iterations


def _brentq(f, a, b, xtol, rtol=4 * np.finfo(float).eps, maxiter=100):
    """Brent's method (Brent 1973, ch. 4): scipy's brentq.c ported step for step.

    A NaN value of f or too many iterations raise ConvergenceError, ends of
    equal sign BracketError.
    """
    def fx(x):
        if math.isnan(v := float(f(x))):
            raise ConvergenceError(f"the function value at x={x!r} is NaN")
        return v

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):  # C's signbit
        raise BracketError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre and fcur and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects, like C's +-inf or NaN from a division by 0
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    den = dblk * dpre * (fblk - fpre)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
            except ZeroDivisionError:
                pass
        good = 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre))  # C's MIN
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {maxiter} iterations")


def _check_refinable(table: PhaseTable) -> None:
    """Refinement needs alpha < 1: at alpha = 1 the closed forms are exact."""
    if not table.alpha < 1.0:
        raise DomainError("refinement requires alpha < 1, got alpha=1, where the roots"
                          " are pi n exactly: asym2 and f_asym_nolayers give them")


def _bracket(n: int, table: PhaseTable):
    """rho_n's two-term asymptote and [lo, hi], the bracket searched around it."""
    _check_refinable(table)
    rho0 = rho_asymptotic(n, table.order, Order.SECOND)
    return rho0, max(rho0 - np.pi / 2.0, 1e-3), rho0 + np.pi / 2.0


def refine_rho(n: int, table: PhaseTable, *, _samples=None) -> RefinedRoot:
    """Refine rho_n at the table's order from the two-term asymptote.

    The normalized condition is sampled at 33 equispaced nodes of
    [rho_n - pi/2, rho_n + pi/2]. The intervals between them are visited
    nearest-first: by the distance of their midpoints from rho_n, the lower
    interval first at equal distance. The first interval whose ends differ
    in sign is the bracket that _brentq polishes (Brent's method, ported
    from scipy with bit-identical roots), so only the nodes up to it are
    evaluated; it is the sign change nearest to rho_n. When no interval
    changes sign, BracketError is raised after every node has been
    evaluated (no root is guessed). The polished root's condition_residual
    |Im(xi conj(eta))| / (|xi||eta|) must be below 1e-10 or AccuracyError
    is raised. alpha is the table's; alpha = 1 is refused (exact roots).
    refine_roots hands in its shared sample, of the same values, as _samples.
    """
    rho0, lo, hi = _bracket(n, table)
    samples = _samples or _sample_octaves(lo, hi, table)  # sliced by every rho
    # the bracket search visits each node from two intervals and _brentq
    # re-evaluates the bracket ends: each rho is evaluated once and its value
    # kept, and the root, one of _brentq's iterates, reads its value back
    seen = {}

    def fn(r):
        key = float(r)
        if key not in seen:
            seen[key] = secular(key, table, _samples=samples)
        return seen[key].normalized

    rs = np.linspace(lo, hi, _SCAN_POINTS)
    mids = 0.5 * (rs[:-1] + rs[1:])
    # a stable sort puts the lower of two equidistant intervals first
    for i in np.argsort(np.abs(mids - rho0), kind="stable"):
        if np.sign(fn(rs[i])) * np.sign(fn(rs[i + 1])) < 0:
            break
    else:
        raise BracketError(
            f"no sign change of the secular condition in [{lo:.6g}, {hi:.6g}]"
            f" for n={n}, alpha={table.alpha:g} ({_SCAN_POINTS} samples)"
        )
    root = _brentq(fn, rs[i], rs[i + 1], xtol=1e-13)
    rt = RefinedRoot(n=n, value=seen[root], bracket=(float(lo), float(hi)), order=table.order)
    if rt.condition_residual >= 1e-10:
        raise AccuracyError(
            f"root at rho={root:.12g} fails the residual contract:"
            f" |Im(xi conj(eta))| / (|xi||eta|) = {rt.condition_residual:.3e}"
        )
    return rt


def refine_roots(ns, table: PhaseTable):
    """Refine each n in ns in turn, from one g0 sample over all their brackets.

    Returns (roots, failures): the RefinedRoots, bit for bit refine_rho's, in
    the order of ns, and (n, "Type: message") for each n that raised a
    FracspecError, for every n if the sampling did.
    """
    ns = list(ns)
    roots, failures = [], []
    if not ns:
        return roots, failures
    try:
        _, los, his = zip(*(_bracket(n, table) for n in ns))
        samples = _sample_octaves(min(los), max(his), table)
    except FracspecError as e:
        return roots, [(n, f"{type(e).__name__}: {e}") for n in ns]
    for n in ns:
        try:
            roots.append(refine_rho(n, table, _samples=samples))
        except FracspecError as e:
            failures.append((n, f"{type(e).__name__}: {e}"))
    return roots, failures


def reconstruct_f_exact(x, value: SecularValue, table: PhaseTable):
    """Eigenfunction values at x from the integral representation.

    The eigenfunction at rho = value.rho, from value's solution with no
    solve: at a root value is RefinedRoot.value, elsewhere secular(rho,
    table), where the formula evaluates but satisfies no boundary condition.
    The result has unit L2 norm on (0,1) and is positive on its first
    quarter-oscillation.

    One oscillatory term (the residue at the poles +-i rho) plus two real
    half-line integrals carrying the boundary layers at 1 and at 0. The
    integrals use the master half-line grid: their integrands decay only
    algebraically when x approaches an endpoint, far past the truncation
    radius of the solver's own grid. With c1 = -Re(xi/eta), secular's formulas
    give xi + c1 eta = X Psi0(-i) + rho^-a e^{-rho i} Y Psi1(i), where
    Psi = p + c1 rho^a (rho b q - rho r). Psi0 enters the residue and the
    layer at 0, Psi1 the layer at 1; both layers carry a factor rho^-a.
    """
    a, rho = table.alpha, value.rho
    xx = _check_unit(x)
    sol = value.solution
    c1 = float(-np.real(value.xi / value.eta))
    bal = b_alpha(table.order)
    crho = c1 * rho**a * rho  # Psi = p + crho (b q - r)

    tau, wt = _layer_rule()
    P, Q, R = analytic_extend(sol, tau)
    psi0, psi1 = P + crho * (bal * Q - R)
    s_api = np.sin(a * np.pi)

    # residue term: Psi0 at the pole rho*i via the continuation at -i
    pm, qm, rm = analytic_extend(sol, -1j)
    psi0_pole = pm[0] + crho * (bal * qm[0] - rm[0])
    amp = (
        (1.0 / 1j)
        * rho ** (1.0 - a)
        * np.exp(-0.5j * np.pi * a)
        * (s_api / (a * np.pi))
        * (table.xc_i / (rho * 1j))
        * psi0_pole
    )

    # the layer densities at 0 and at 1, times the weights and prefactor
    wk = wt * (s_api / np.pi**2) * rho ** (-a)
    u0, u1 = _layer_densities(tau, table, wk * psi0, wk * tau**a * psi1)

    def values(pts):
        t0 = np.real(amp * np.exp(1j * rho * pts))
        i1 = _laplace_sum(1.0 - pts, rho, tau, u1)
        return t0 + i1 - _laplace_sum(pts, rho, tau, u0)

    # normalize on a fixed internal rule so the scale is x-independent
    xn, wn = gauss_legendre_01(400)
    fn = values(xn)
    nrm = float(np.sqrt(wn @ (fn * fn)))
    if nrm == 0.0:
        raise AccuracyError("reconstructed eigenfunction vanished identically")
    out = _first_quarter_sign(xn, wn, fn, rho) * values(xx) / nrm
    return _shaped(out, x)

