import dataclasses

import mpmath as mp
import numpy as np
import pytest
from numpy.linalg import LinAlgError
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as spgamma

import fracspec as fs
from fracspec import nystrom
from fracspec.errors import ConvergenceError, DomainError
from fracspec.nystrom import (
    KernelKind,
    KernelSpec,
    NystromGrid,
    build_grid,
    discretize_and_solve,
    eigenfunction_at,
    kernel_K,
    mercer_trace_gap,
    _kernel_raw,
)
from fracspec.quadrature import gauss_legendre_01


def _kernel_of_kind(x, y, a, kind):
    # the kernel on the broadcast x and y in one evaluation, term by term:
    # the meshgrid oracle that the block sweeps are held to bit for bit
    if kind is KernelKind.BRIDGE:
        k11 = _kernel_raw(1.0, 1.0, a)
        return _kernel_raw(x, y, a) - _kernel_raw(x, 1.0, a) * _kernel_raw(1.0, y, a) / k11
    return _kernel_raw(x, y, a)


def _kernel_oracle(x, y, a):
    # brute-force quadrature of the defining integral
    lo = min(x, y)
    f = lambda t: (x - t) ** (a - 1) * (y - t) ** (a - 1)
    return float(mp.quad(f, [0, lo]) / mp.gamma(a) ** 2)


@pytest.fixture(scope="module")
def bridge400(order075):
    # test_sign_rule reads the first 12 eigenfunctions, the Mercer tests
    # the first 100 eigenvalues
    spec = KernelSpec(order075, KernelKind.BRIDGE)
    return discretize_and_solve(spec, build_grid(400), n_modes=100)


@pytest.fixture(scope="module")
def rl400(order075):
    spec = KernelSpec(order075, KernelKind.RL)
    return discretize_and_solve(spec, build_grid(400), n_modes=100, vectors=False)


class TestKernel:
    def test_against_quadrature(self):
        pts = [(0.3, 0.7), (0.9, 0.2), (1.0, 0.6), (0.05, 0.04)]
        for a in (0.6, 0.75, 0.9):
            for x, y in pts:
                want = _kernel_oracle(x, y, a)
                assert kernel_K(x, y, a) == pytest.approx(want, rel=1e-9)

    def test_diagonal_closed_form(self):
        for a in (0.6, 0.75, 0.9):
            for x in (0.2, 1.0):
                want = x ** (2 * a - 1) / ((2 * a - 1) * spgamma(a) ** 2)
                assert kernel_K(x, x, a) == pytest.approx(want, rel=1e-13)

    def test_near_diagonal(self):
        # one incomplete-beta form holds at every distance from the diagonal
        mp.mp.dps = 30
        try:
            x, a = 0.5, 0.75
            for rel, tol in ((2e-8, 1e-12), (5e-9, 1e-12), (1e-10, 1e-12)):
                y = x * (1 + rel)
                want = _kernel_oracle(x, y, a)
                assert kernel_K(x, y, a) == pytest.approx(want, rel=tol)
        finally:
            mp.mp.dps = 15

    @pytest.mark.parametrize(
        "a, tol",
        [(0.501, 1e-12), (0.51, 1e-13), (0.55, 1e-14)]
        + [(a, 5e-15) for a in (0.6, 0.75, 0.75125, 0.9, 0.97, 0.99, 0.999)],
    )
    def test_against_mpmath_closed_form(self, a, tol):
        # Gauss-node pairs with the diagonal, near-diagonal pairs at relative
        # distance 1e-9 and 1e-12, and pairs with min(x, y) = 1e-12; the two
        # terms of the incomplete-beta form cancel as a -> 1/2, hence the
        # looser bounds there
        g = build_grid(24).nodes
        i, j = np.triu_indices(g.size)
        x = np.concatenate([g[i], g, g, np.full(g.size, 1e-12)])
        y = np.concatenate([g[j], g * (1 + 1e-9), g * (1 + 1e-12), g])
        with mp.workdps(40):
            am = mp.mpf(a)
            ga2 = mp.gamma(am) ** 2
            want = []
            for xv, yv in zip(x, y):
                lo, hi = mp.mpf(min(xv, yv)), mp.mpf(max(xv, yv))
                if lo == hi:
                    k = hi ** (2 * am - 1) / ((2 * am - 1) * ga2)
                else:
                    R = lo / hi
                    F = mp.hyp2f1(am, 2 * am, 1 + am, R)
                    k = (hi - lo) ** (2 * am - 1) * R**am / am * F / ga2
                want.append(float(k))
        rel = np.abs(_kernel_raw(x, y, a) / np.array(want) - 1)
        assert rel.max() < tol

    @staticmethod
    def _bridge_matrix(x, a, sw):
        # the bridge kernel as the solver assembles it: the block sweep on
        # the sorted nodes x with the rank-one column K(x, 1)
        return nystrom._kernel_matrix(x, a, sw, kernel_K(x, 1.0, a))

    @pytest.mark.parametrize("a", [np.nextafter(0.5, 1.0), 0.501, 0.55, 0.6, 0.75, 0.9,
                                   0.99, np.nextafter(1.0, 0.0), 1.0])
    def test_k11_is_the_kernel_at_one(self, a):
        # the closed form that the rank-one term divides by, bit for bit
        assert nystrom._k11(a) == float(_kernel_raw(1.0, 1.0, a))

    def test_alpha_one_is_min(self):
        x = np.array([0.1, 0.2, 0.5, 0.9, 1.0])
        X, Y = np.meshgrid(x, x, indexing="ij")
        K = kernel_K(X, Y, 1.0)
        assert np.allclose(K, np.minimum(X, Y), atol=1e-14)
        assert K.flags.writeable  # not the solver's broadcast view
        got = self._bridge_matrix(x, 1.0, np.ones(x.size))
        assert np.allclose(got, np.minimum(X, Y) - X * Y, atol=1e-14)

    def test_bridge_vanishes_at_one(self, order075):
        # (K(x_i, x_j) - K(x_i, 1) K(1, x_j) / K(1, 1)) sw_i sw_j, built from
        # kernel_K; its row and column at x = 1 vanish
        x = np.linspace(0.05, 1.0, 7)
        sw = np.sqrt(np.linspace(0.5, 1.5, 7))
        X, Y = np.meshgrid(x, x, indexing="ij")
        k1 = kernel_K(x, 1.0, order075)
        k11 = kernel_K(1.0, 1.0, order075)
        want = kernel_K(X, Y, order075) - np.outer(k1, k1) / k11
        got = self._bridge_matrix(x, 0.75, sw)
        assert np.allclose(got, want * np.outer(sw, sw), rtol=1e-14, atol=0.0)
        assert np.max(np.abs(got[-1])) < 1e-15
        assert np.max(np.abs(got[:, -1])) < 1e-15

    def test_zero_edge(self, order075):
        assert kernel_K(0.0, 0.5, order075) == 0.0
        got = self._bridge_matrix(np.array([0.0, 0.5, 1.0]), 0.75, np.ones(3))
        assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0)

    def test_diagonal_rejected_small_alpha(self):
        o = fs.FractionalOrder(0.4, fs.Variant.CAPUTO)
        with pytest.raises(DomainError):
            kernel_K(0.5, 0.5, o)

    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_zero_d_points_give_a_float(self, alpha):
        # as every other point evaluator: a 0-d result is a float, a 1-d
        # point array keeps its shape
        for x, y in [(0.3, 0.7), (np.float64(0.3), 0.7), (np.array(0.3), np.array(0.7))]:
            got = kernel_K(x, y, alpha)
            assert type(got) is float
            assert got == kernel_K(0.3, 0.7, alpha)
        assert kernel_K(np.array([0.3]), 0.7, alpha).shape == (1,)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan, np.inf])
    def test_points_outside_the_square_rejected(self, bad):
        # K is defined on [0,1]^2; off it the formula gives 0, nan or a
        # finite value, none of them K. The refusal names the bad argument.
        for x, y, name in [(bad, 0.3, "x"), (0.3, bad, "y"), (np.array([0.2, bad]), 0.3, "x"),
                           (0.5, np.array([bad, 0.2]), "y")]:
            with pytest.raises(DomainError, match=rf"{name} must lie in \[0, 1\]"):
                kernel_K(x, y, 0.75)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.02, max_value=1.0),
        st.floats(min_value=0.02, max_value=1.0),
        st.floats(min_value=0.52, max_value=0.99),
    )
    def test_symmetric(self, x, y, a):
        assume(abs(x - y) > 1e-10 * max(x, y))
        assert kernel_K(x, y, a) == pytest.approx(kernel_K(y, x, a), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=0, max_value=3).map(lambda k: 2.0**-k),
        st.floats(min_value=0.52, max_value=0.99),
    )
    def test_homogeneous(self, x, y, c, a):
        # K(cx, cy) = c^{2a-1} K(x, y); c is a power of two, so cx and cy
        # are exact and the identity holds next to the diagonal as well
        # (measured at most 3.6e-15 over 20000 draws, a third of them with
        # y = x or y one ulp above x)
        assert kernel_K(c * x, c * y, a) == pytest.approx(
            c ** (2 * a - 1) * kernel_K(x, y, a), rel=1e-13
        )


class TestKernelMatrix:
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("a", [0.51, 0.75, 0.97, 1.0])
    @pytest.mark.parametrize("nodes", ["m2", "m3", "m40", "m200", "m400", "near"])
    def test_equals_meshgrid_oracle(self, nodes, a, kind):
        # every off-diagonal entry of the finished B, bit for bit
        if nodes == "near":
            # pairs closer than 1e-8 relative, where a hypergeometric series
            # in min/max would lose digits; no grid has them, so the block
            # sweep itself is held to the oracle on these nodes
            x = np.array([0.2, 0.5, 0.5 * (1 + 5e-9), 0.5 * (1 + 2e-8), 0.9])
            sw = np.sqrt(np.array([2, 1, 2, 1, 2]) / 8)
            kx1 = _kernel_raw(x, 1.0, a) if kind is KernelKind.BRIDGE else np.zeros(x.size)
            B = nystrom._kernel_matrix(x, a, sw, kx1)
        else:
            grid = build_grid(int(nodes[1:]))
            x, sw = grid.nodes, np.sqrt(grid.weights)
            B = nystrom._nystrom_matrix(KernelSpec(fs.FractionalOrder(a), kind), grid)
        X, Y = np.meshgrid(x, x, indexing="ij")
        want = _kernel_of_kind(X, Y, a, kind) * (sw[:, None] * sw[None, :])
        off = ~np.eye(x.size, dtype=bool)
        assert np.array_equal(B[off], want[off])

    def test_bridge_solve_evaluates_triangle_and_one_column(self, order075, monkeypatch):
        # every K value of the solve passes through _kernel_sorted
        real = nystrom._kernel_sorted
        cells = []

        def counting(lo, hi, a):
            cells.append(np.broadcast(lo, hi).size)
            return real(lo, hi, a)

        monkeypatch.setattr(nystrom, "_kernel_sorted", counting)
        monkeypatch.setattr(nystrom, "_BLOCK_CELLS", 300)
        # m = 40: five blocks of 7 rows and one of 5; m = 43: blocks of 6
        # rows, whose lone last row folds into a block of 7
        for m, want in ((40, 860), (43, 989)):
            cells.clear()
            discretize_and_solve(KernelSpec(order075, KernelKind.BRIDGE), build_grid(m))
            # the upper triangle and the column K(x, 1), each once; K(1, 1)
            # is the closed form _k11
            assert sum(cells) == m * (m + 1) // 2 + m == want


class TestNystromMatrix:
    """B is symmetric bit for bit, and certified by tiles, in place."""

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("m", [2, 3, 40, 400, 800])
    def test_bitwise_symmetric(self, order075, kind, m):
        B = nystrom._nystrom_matrix(KernelSpec(order075, kind), build_grid(m))
        assert np.array_equal(B, B.T)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bitwise_symmetric_ragged_last_block(self, order075, kind, monkeypatch):
        # m = 40: 5 blocks of 7 rows, and a last diagonal square of 5; m = 43:
        # 6 blocks of 6 rows, the lone 43rd row folded into a last square of 7
        monkeypatch.setattr(nystrom, "_BLOCK_CELLS", 300)
        for m in (40, 43):
            grid = build_grid(m)
            B = nystrom._nystrom_matrix(KernelSpec(order075, kind), grid)
            assert np.array_equal(B, B.T)
            x, sw = grid.nodes, np.sqrt(grid.weights)
            X, Y = np.meshgrid(x, x, indexing="ij")
            want = _kernel_of_kind(X, Y, 0.75, kind) * (sw[:, None] * sw[None, :])
            off = ~np.eye(m, dtype=bool)
            assert np.array_equal(B[off], want[off]), m

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("m", [2, 40, 400])
    def test_diagonal_is_the_formula(self, order075, kind, m):
        # B0_ii + S_i - Q_i, with B0 = K_ij (sw_i sw_j) and Q = (B0 @ sw) / sw
        grid = build_grid(m)
        x, sw, a = grid.nodes, np.sqrt(grid.weights), 0.75
        X, Y = np.meshgrid(x, x, indexing="ij")
        B0 = _kernel_of_kind(X, Y, a, kind) * (sw[:, None] * sw[None, :])
        kx1 = _kernel_raw(x, 1.0, a) if kind is KernelKind.BRIDGE else np.zeros(x.size)
        S = nystrom._row_integral(x, a, kx1)
        want = np.diag(B0) + (S - (B0 @ sw) / sw)
        B = nystrom._nystrom_matrix(KernelSpec(order075, kind), grid)
        assert np.array_equal(np.diag(B), want)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_no_matrix_sized_temporary(self, order075, kind, traced_peak):
        B, assembly = traced_peak(
            nystrom._nystrom_matrix, KernelSpec(order075, kind), build_grid(1000)
        )
        assert assembly < 1.25 * B.nbytes
        mu1 = float(nystrom._lanczos(B, 1, False)[0][0])
        certificate = traced_peak(nystrom._certify_psd, B, mu1)[1]
        assert certificate < B.nbytes / 4

    # m = 1 mod _TILE folds its lone last row into a wider last tile
    @pytest.mark.parametrize("m", [nystrom._TILE + 1, 2 * nystrom._TILE + 1, 300, 800])
    def test_certificate_agrees_with_lapack(self, order075, m):
        B = nystrom._nystrom_matrix(KernelSpec(order075, KernelKind.RL), build_grid(m))
        ev, V = np.linalg.eigh(B)
        mu1, u = float(ev[-1]), V[:, 0]
        # on a well-conditioned matrix the lower triangle left behind is
        # LAPACK's Cholesky factor
        A = B + 0.1 * mu1 * np.eye(m)
        shifted = A.copy()
        shifted[np.diag_indices(m)] += 1e-10 * mu1
        want = np.linalg.cholesky(shifted)
        nystrom._certify_psd(A, mu1)
        assert np.max(np.abs(np.tril(A) - want)) <= 1e-13 * np.max(want)
        for value, passes in ((-1e-8, False), (-2e-10, False), (-1e-12, True), (1e-12, True)):
            # B with its smallest eigenvalue moved to value * mu_1
            planted = B + (value * mu1 - ev[0]) * np.outer(u, u)
            shifted = planted.copy()
            shifted[np.diag_indices(m)] += 1e-10 * mu1
            try:
                np.linalg.cholesky(shifted)
                lapack = True
            except LinAlgError:
                lapack = False
            try:
                nystrom._certify_psd(planted, mu1)
                blocked = True
            except ConvergenceError:
                blocked = False
            assert (blocked, lapack) == (passes, passes), value


class TestRowIntegral:
    def test_rl_against_nested_quadrature(self):
        for a, x in ((0.75, 0.3), (0.6, 0.8)):
            want = float(
                mp.quad(lambda y: _kernel_oracle(x, float(y), a), [0, x, 1])
            )
            got = float(nystrom._row_integral(np.array([x]), a, np.zeros(1))[0])
            assert got == pytest.approx(want, rel=1e-12)

    def test_rl_alpha_one(self):
        x = np.linspace(0.1, 1.0, 5)
        got = nystrom._row_integral(x, 1.0, np.zeros(x.size))
        assert np.allclose(got, x - x**2 / 2, atol=1e-13)

    def test_bridge_alpha_one(self):
        from fracspec.nystrom import _kernel_raw, _row_integral

        # int_0^1 (min(x,y) - x y) dy = x - x^2/2 - x/2
        x = np.linspace(0.1, 1.0, 5)
        got = _row_integral(x, 1.0, _kernel_raw(x, 1.0, 1.0))
        assert np.allclose(got, x / 2 - x**2 / 2, atol=1e-13)


def _mp_row_integral(x, a):
    # x^a 2F1(-a, 1; 1+a; x) / (a^2 Gamma(a)^2), the hypergeometric form
    xm, am = mp.mpf(x), mp.mpf(a)
    return float(xm**am * mp.hyp2f1(-am, 1, 1 + am, xm) / (am * am * mp.gamma(am) ** 2))


class TestSpecialFunctions:
    """The numpy-only betainc, row integral and Hurwitz zeta against mpmath."""

    # near 0, one ulp either side of the branch point 1/2, and next to 1
    X = np.array(
        [1e-300, 1e-12, 1e-3, 0.25, np.nextafter(0.5, 0), 0.5,
         np.nextafter(0.5, 1), 0.75, 0.999, 1 - 1e-12]
    )

    @pytest.mark.parametrize(
        "a, b, tol",
        # the kernel's b = 2 - 2a; measured at most 7.8e-16
        [(a, 2 - 2 * a, 2e-15) for a in (0.501, 0.55, 0.75, 0.9)]
        # I_x(0.99, 0.02) is about 0.014 just above 1/2, and the reflection
        # 1 - (1 - I) loses those digits: measured 2.4e-14
        + [(0.99, 0.02, 6e-14)]
        # caputo off-diagonal alphas below 1/2, b in (1, 2); measured 6.7e-16
        + [(a, b, 2e-15) for a in (0.2, 0.45) for b in (1.1, 1.5, 1.9)],
    )
    def test_betainc(self, a, b, tol):
        xc = 1.0 - self.X  # exact wherever the reflection reads it (x > 1/2)
        got = nystrom._betainc(a, b, self.X, xc)
        with mp.workdps(40):
            want = [float(mp.betainc(a, b, 0, mp.mpf(x), regularized=True)) for x in self.X]
        assert np.max(np.abs(got / np.array(want) - 1)) < tol

    @pytest.mark.parametrize("a", [0.501, 0.55, 0.75, 0.9, 0.99, 0.999])
    def test_economized_degree(self, a):
        # the kernel's two series, (a, 2-2a) below 1/2 and (2-2a, a) above,
        # from 41-56 Taylor terms down to degree 22 or less
        b = 2 - 2 * a
        assert len(nystrom._economized(a, b)) - 1 <= 22
        assert len(nystrom._economized(b, a)) - 1 <= 22

    @pytest.mark.parametrize("a", [0.501, 0.55, 0.75, 0.9, 0.99, 0.999])
    def test_betainc_random_points(self, a):
        # 200 random x in (0, 1) for I_x(a, 2-2a): below 1/2 the series in
        # (a, b) itself, above it the series in (b, a) that the reflection
        # reads, I_{1-x}(b, a) = 1 - I_x(a, b). The complement is compared,
        # not 1 - (1 - I), whose cancellation is test_betainc's 6e-14 case;
        # measured at most 8.9e-16
        b = 2 - 2 * a
        x = np.random.default_rng(7).uniform(0, 1, 200)
        low = x <= 0.5
        xs = np.where(low, x, 1 - x)  # exact above 1/2
        got = np.where(
            low, nystrom._betainc(a, b, xs, 1 - xs), nystrom._betainc(b, a, xs, 1 - xs)
        )
        with mp.workdps(40):
            want = [
                float(mp.betainc(*((a, b) if lo else (b, a)), 0, mp.mpf(v), regularized=True))
                for v, lo in zip(xs, low)
            ]
        assert np.max(np.abs(got / np.array(want) - 1)) < 2e-15

    @pytest.mark.parametrize(
        "a, tol",
        # the two 1/(2a-1) terms cancel as a -> 1/2: measured 4.1e-14 at
        # 0.501 and 3.6e-15 at 0.51, at most 1.1e-15 from 0.55 up
        [(0.501, 1e-13), (0.51, 1e-14)]
        + [(a, 2.5e-15) for a in (0.55, 0.6, 0.75, 0.9, 0.99, 1.0)],
    )
    def test_row_integral_rl(self, a, tol):
        x = np.concatenate(
            [[1e-12, 0.5, 1 - 1e-9, 1 - 2**-52, 1.0], build_grid(80).nodes,
             np.linspace(0.01, 0.99, 99)]
        )
        with mp.workdps(40):
            want = np.array([_mp_row_integral(v, a) for v in x])
        assert np.max(np.abs(nystrom._row_integral(x, a, np.zeros(x.size)) / want - 1)) < tol

    @pytest.mark.parametrize("s", [1.001, 1.2, 1.5, 1.75, 2.0])
    def test_hurwitz_zeta(self, s):
        # mercer_trace_gap reads s = 2a in (1, 2] and q = its head + 1/2 or
        # more; measured at most 2.6e-16
        for q in (1.5, 2.3, 10.25, 100.5, 600.0):
            want = float(mp.zeta(s, q))
            assert nystrom._hurwitz_zeta(s, q) == pytest.approx(want, rel=1e-15)


class TestGrid:
    def test_two_point_nodes(self):
        g = build_grid(2)
        r = 0.5 / np.sqrt(3.0)
        assert g.nodes == pytest.approx([0.5 - r, 0.5 + r], abs=1e-15)
        assert g.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_invariants(self):
        g = build_grid(37)
        assert g.m == 37
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            build_grid(1)

    @pytest.mark.parametrize("m", [7.9, 2.5, 2.0, 0])
    def test_non_integral_or_empty_m(self, m):
        # build_grid(7.9) once gave 7 nodes and build_grid(2.5) two
        with pytest.raises(DomainError, match="integer >= 1"):
            build_grid(m)

    def test_m_is_the_node_count(self):
        g = build_grid(5)
        assert g == NystromGrid(5)
        assert g.m == g.nodes.size == g.weights.size == 5
        with pytest.raises(TypeError):  # a grid is its size: no nodes to pass
            NystromGrid(nodes=g.nodes, weights=g.weights)

    def test_nodes_and_weights_are_the_cached_rule(self):
        g = NystromGrid(6)
        x, w = gauss_legendre_01(6)
        assert g.nodes is x and g.weights is w
        assert not g.nodes.flags.writeable and not g.weights.flags.writeable


class TestSolve:
    def test_alpha_one_classical(self):
        g = build_grid(400)
        one = fs.FractionalOrder(1.0)
        sb = discretize_and_solve(KernelSpec(one, KernelKind.BRIDGE), g)
        n = np.arange(1, 11)
        assert np.max(np.abs(sb.lam[:10] / (np.pi * n) ** 2 - 1)) < 1e-4
        sr = discretize_and_solve(KernelSpec(one, KernelKind.RL), g)
        assert np.max(np.abs(sr.rho[:10] / (np.pi * n - np.pi / 2) - 1)) < 1e-4

    def test_spectrum_shape(self, bridge400):
        assert np.all(bridge400.mu > 0)
        assert np.all(np.diff(bridge400.mu) < 0)
        assert np.all(np.diff(bridge400.lam) > 0)
        assert bridge400.vectors.shape[0] == 400

    def test_grid_refinement_agreement(self, bridge400, bridge2000):
        rel = np.abs(bridge400.lam[:10] / bridge2000.lam[:10] - 1)
        assert rel.max() < 1e-5

    def test_weighted_orthonormality(self, bridge400):
        F = bridge400.vectors[:, :10]
        G = F.T @ (bridge400.grid.weights[:, None] * F)
        assert np.max(np.abs(G - np.eye(10))) < 1e-10

    def test_sign_rule(self, bridge400):
        x, w = bridge400.grid.nodes, bridge400.grid.weights
        for k in range(12):
            win = x < min(np.pi / (2 * bridge400.rho[k]), 1.0)
            assert w[win] @ bridge400.vectors[win, k] > 0

    def test_caputo_endpoint(self):
        spec = KernelSpec(fs.FractionalOrder(0.75, fs.Variant.CAPUTO), KernelKind.RL)
        sp = discretize_and_solve(spec, build_grid(800), n_modes=20)
        v = abs(eigenfunction_at(sp, 20, 1.0))
        assert v == pytest.approx(np.sqrt(1.5), rel=1e-3)

    def test_nonfinite_kernel_raises(self, order075, monkeypatch):
        # one NaN kernel value, in the first block's rectangle (a 2-d call of
        # _kernel_sorted) or in a diagonal square (the gathered 1-d call)
        real = nystrom._kernel_sorted
        monkeypatch.setattr(nystrom, "_BLOCK_CELLS", 300)  # 7 rows a block at m = 40
        spec = KernelSpec(order075, KernelKind.RL)
        for ndim in (2, 1):
            poisoned = []

            def poisoning(lo, hi, a):
                out = real(lo, hi, a)
                if out.ndim == ndim and not poisoned:
                    out = out.copy()
                    out.flat[1] = np.nan
                    poisoned.append(out.shape)
                return out

            monkeypatch.setattr(nystrom, "_kernel_sorted", poisoning)
            with pytest.raises(ConvergenceError, match="non-finite"):
                discretize_and_solve(spec, build_grid(40))
            assert poisoned, ndim

    def test_rejects_small_alpha(self):
        # the kernel diagonal needs alpha > 1/2, for either kind; kernel_K
        # keeps the same rule off the diagonal too, and the message names
        # the value and the variant
        o = fs.FractionalOrder(0.4, fs.Variant.CAPUTO)
        for kind in KernelKind:
            with pytest.raises(DomainError, match=r"alpha > 1/2, got alpha=0.4 \(caputo\)"):
                KernelSpec(o, kind)
        with pytest.raises(DomainError, match="alpha > 1/2"):
            kernel_K(0.3, 0.7, o)
        with pytest.raises(DomainError, match="alpha in \\(1/2, 1\\], got 0.5"):
            kernel_K(0.3, 0.7, 0.5)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_spec_needs_a_fractional_order(self, kind):
        # a bare float once raised AttributeError at the bridge kernel's check
        with pytest.raises(DomainError, match="FractionalOrder"):
            KernelSpec(0.75, kind)



@pytest.fixture
def lanczos_runs(monkeypatch):
    """Records, per Lanczos run, whether it converged (else: dense fallback)."""
    runs = []
    real = nystrom._lanczos

    def spy(B, k, vectors):
        out = real(B, k, vectors)
        runs.append(out is not None)
        return out

    monkeypatch.setattr(nystrom, "_lanczos", spy)
    return runs


class TestPartialSolve:
    """The leading modes on both paths against numpy's LAPACK drivers."""

    @pytest.mark.parametrize("m", [64, 300])
    @pytest.mark.parametrize("a", [0.6, 0.75, 1.0])
    @pytest.mark.parametrize("kind", [KernelKind.BRIDGE, KernelKind.RL])
    def test_against_numpy(self, kind, a, m):
        # 7 modes are dense at m = 64 and Lanczos at m = 300
        spec = KernelSpec(fs.FractionalOrder(a), kind)
        grid = build_grid(m)
        B = nystrom._nystrom_matrix(spec, grid)
        want = np.linalg.eigvalsh(B)[::-1]
        every = discretize_and_solve(spec, grid, vectors=False)
        assert every.mu.size == np.count_nonzero(want > 0)
        assert np.max(np.abs(every.mu - want[: every.mu.size])) <= 1e-13 * want[0]
        sp = discretize_and_solve(spec, grid, n_modes=7)
        assert np.max(np.abs(sp.mu - want[:7])) <= 1e-13 * want[0]
        V = np.linalg.eigh(B)[1][:, ::-1][:, :7]
        got = sp.vectors * np.sqrt(grid.weights)[:, None]
        assert got.shape == (m, 7)
        got *= np.sign(np.sum(got * V, axis=0))
        assert np.max(np.abs(got - V)) < 1e-12

    @pytest.mark.parametrize("a", [0.55, 0.6, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("kind", [KernelKind.BRIDGE, KernelKind.RL])
    def test_lanczos_against_lapack(self, kind, a, lanczos_runs):
        # at a = 1 the bridge kernel is reflection-symmetric, so half of the
        # modes are even about x = 1/2 and half odd: the start vector must
        # reach both
        spec = KernelSpec(fs.FractionalOrder(a), kind)
        grid = build_grid(400)
        B = nystrom._nystrom_matrix(spec, grid)
        for vectors in (False, True):
            sp = discretize_and_solve(spec, grid, n_modes=20, vectors=vectors)
            assert np.max(np.abs(sp.mu / np.linalg.eigvalsh(B)[:-21:-1] - 1)) <= 1e-12
        assert lanczos_runs == [True, True]
        V = np.linalg.eigh(B)[1][:, :-21:-1]
        got = sp.vectors * np.sqrt(grid.weights)[:, None]
        got *= np.sign(np.sum(got * V, axis=0))
        assert np.max(np.abs(got - V)) <= 1e-10

    def test_lanczos_is_repeatable(self, order075, lanczos_runs):
        spec = KernelSpec(order075, KernelKind.BRIDGE)
        one = discretize_and_solve(spec, build_grid(300), n_modes=10)
        two = discretize_and_solve(spec, build_grid(300), n_modes=10)
        assert lanczos_runs == [True, True]
        assert np.array_equal(one.mu, two.mu)
        assert np.array_equal(one.vectors, two.vectors)

    def test_unconverged_lanczos_falls_back_to_dense(self, order075, monkeypatch,
                                                     lanczos_runs):
        monkeypatch.setattr(nystrom, "_step_cap", lambda k, m: k)
        spec = KernelSpec(order075, KernelKind.BRIDGE)
        sp = discretize_and_solve(spec, build_grid(200), n_modes=10)
        assert lanczos_runs == [False]
        full = discretize_and_solve(spec, build_grid(200))
        assert np.array_equal(sp.mu, full.mu[:10])
        assert np.array_equal(sp.vectors, full.vectors[:, :10])

    def test_vector_count(self, order075):
        spec = KernelSpec(order075, KernelKind.BRIDGE)
        full = discretize_and_solve(spec, build_grid(64))
        assert full.vectors.shape == (64, full.mu.size)
        sp = discretize_and_solve(spec, build_grid(64), n_modes=5)
        assert sp.vectors.shape == (64, 5)
        # every dense vector-reading solve is the same full eigh
        assert np.array_equal(sp.mu, full.mu[:5])
        assert np.array_equal(sp.vectors, full.vectors[:, :5])
        # the values-only driver may round differently
        sp = discretize_and_solve(spec, build_grid(64), vectors=False)
        assert sp.vectors.shape == (64, 0)
        assert sp.mu.size == full.mu.size
        assert np.max(np.abs(sp.mu - full.mu)) <= 1e-13 * full.mu[0]
        sp = discretize_and_solve(spec, build_grid(200), n_modes=10, vectors=False)
        assert (sp.mu.size, sp.vectors.shape) == (10, (200, 0))

    @pytest.mark.parametrize(
        "n_modes, vectors",
        [(None, False), (None, True), (4, False), (4, True)],
        ids=["dense-values", "dense-vectors", "lanczos-values", "lanczos-vectors"],
    )
    def test_negative_eigenvalue_raises(self, order075, monkeypatch, lanczos_runs,
                                        n_modes, vectors):
        spec = KernelSpec(order075, KernelKind.RL)
        grid = build_grid(80)  # 20 * 4 <= 80: 4 modes take the Lanczos path
        B = nystrom._nystrom_matrix(spec, grid)
        ev, V = np.linalg.eigh(B)
        u = V[:, 0]

        def with_lowest_at(value):
            # B with its smallest eigenvalue moved to value * mu_1
            shift = value * ev[-1] - ev[0]
            return lambda spec, grid: B + shift * np.outer(u, u)

        monkeypatch.setattr(nystrom, "_nystrom_matrix", with_lowest_at(-1e-8))
        with pytest.raises(ConvergenceError, match="beyond PSD tolerance"):
            discretize_and_solve(spec, grid, n_modes=n_modes, vectors=vectors)
        monkeypatch.setattr(nystrom, "_nystrom_matrix", with_lowest_at(-1e-12))
        sp = discretize_and_solve(spec, grid, n_modes=n_modes, vectors=vectors)
        assert sp.mu[0] == pytest.approx(ev[-1], rel=1e-12)
        assert lanczos_runs == ([] if n_modes is None else [True, True])

    def test_more_modes_than_positive_raises(self, order075):
        spec = KernelSpec(order075, KernelKind.RL)
        count = discretize_and_solve(spec, build_grid(20), vectors=False).mu.size
        with pytest.raises(DomainError, match=f"exceeds the {count} computed modes"):
            discretize_and_solve(spec, build_grid(20), n_modes=count + 1)

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_nonpositive_n_modes(self, order075, n_modes):
        spec = KernelSpec(order075, KernelKind.RL)
        with pytest.raises(DomainError):
            discretize_and_solve(spec, build_grid(20), n_modes=n_modes)

    @pytest.mark.parametrize("n_modes", [2.5, 3.0, 30.0])
    def test_non_integer_n_modes(self, order075, n_modes):
        # at m = 60, 2.5 and 3.0 ask for the Lanczos route, 30.0 for the dense one
        spec = KernelSpec(order075, KernelKind.RL)
        with pytest.raises(DomainError, match="an integer"):
            discretize_and_solve(spec, build_grid(60), n_modes=n_modes)

    def test_numpy_integer_n_modes(self, order075):
        spec = KernelSpec(order075, KernelKind.RL)
        one = discretize_and_solve(spec, build_grid(60), n_modes=np.int64(3))
        two = discretize_and_solve(spec, build_grid(60), n_modes=3)
        assert np.array_equal(one.mu, two.mu)
        assert np.array_equal(one.vectors, two.vectors)


class TestEigenfunctionAt:
    def test_reproduces_node_values(self, bridge400):
        idx = [0, 137, 399]
        for k in (1, 5):
            for i in idx:
                x = float(bridge400.grid.nodes[i])
                got = eigenfunction_at(bridge400, k, x)
                assert got == pytest.approx(
                    bridge400.vectors[i, k - 1], abs=1e-11
                )

    def test_bridge_boundary_values(self, bridge400):
        for k in (1, 3, 8):
            assert abs(eigenfunction_at(bridge400, k, 1.0)) < 1e-12
            assert abs(eigenfunction_at(bridge400, k, 0.0)) < 1e-12

    def test_unit_l2_norm(self, bridge400):
        # interpolation error off the nodes grows with the mode number;
        # 2e-7 at k = 4 is the measured m = 400 level, not quadrature noise
        from fracspec.quadrature import gauss_legendre_01

        x, w = gauss_legendre_01(300)
        f = eigenfunction_at(bridge400, 4, x)
        assert w @ f**2 == pytest.approx(1.0, abs=1e-6)

    def test_blocks_agree_with_the_whole_grid(self, bridge400):
        # the interpolation formula on the whole (points x m) meshgrid; a
        # block holds _BLOCK_CELLS // 400 = 81 points
        k, a, kind = 10, 0.75, KernelKind.BRIDGE
        xg, w = bridge400.grid.nodes, bridge400.grid.weights
        wf = w * bridge400.vectors[:, k - 1]
        for n in (1, 80, 81, 82, 501):
            x = (np.arange(n) + 0.5) / n
            X, Y = np.meshgrid(x, xg, indexing="ij")
            Kxy = _kernel_of_kind(X, Y, a, kind)
            S = nystrom._row_integral(x, a, _kernel_raw(x, 1.0, a))
            want = (Kxy @ wf) / (bridge400.mu[k - 1] - S + Kxy @ w)
            got = eigenfunction_at(bridge400, k, x)
            assert np.max(np.abs(got - want)) <= 1e-13, n

    def test_no_points_by_nodes_temporary(self, bridge400, traced_peak):
        # 81-point blocks; one 501 x 400 kernel array alone is 1.6 MB
        x = np.linspace(0.0, 1.0, 501)
        peak = traced_peak(eigenfunction_at, bridge400, 10, x)[1]
        assert peak < 4 * 2**20

    def test_k_out_of_range(self, bridge400):
        with pytest.raises(DomainError):
            eigenfunction_at(bridge400, 0, 0.5)
        with pytest.raises(DomainError):
            eigenfunction_at(bridge400, 10**6, 0.5)

    @pytest.mark.parametrize("k", [2.0, 2.5, "2"])
    def test_k_must_be_an_integer(self, bridge400, k):
        with pytest.raises(DomainError, match="an integer"):
            eigenfunction_at(bridge400, k, 0.5)

    def test_numpy_integer_k(self, bridge400):
        assert eigenfunction_at(bridge400, np.int64(3), 0.3) == eigenfunction_at(
            bridge400, 3, 0.3
        )

    def test_spectrum_without_vectors(self, rl400):
        # once "k must be an integer in [1, 0], got 1"
        with pytest.raises(DomainError, match="holds no eigenvectors"):
            eigenfunction_at(rl400, 1, 0.5)


class TestMercer:
    def test_bridge_fine(self, bridge2000):
        # the head, min(30, m // 20) = 30 modes: measured 7.2e-9
        assert mercer_trace_gap(bridge2000) < 1e-7

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("kind", [KernelKind.BRIDGE, KernelKind.RL])
    def test_default_head_at_m300(self, kind, a):
        # the head at m = 300 is 15 modes; measured at most 1.5e-6
        spec = KernelSpec(fs.FractionalOrder(a), kind)
        sp = discretize_and_solve(spec, build_grid(300), n_modes=15, vectors=False)
        assert mercer_trace_gap(sp) < 1e-5

    def test_short_spectrum_raises(self, bridge2000):
        # a head cut to the modes at hand would change the gap silently
        short = dataclasses.replace(bridge2000, mu=bridge2000.mu[:29])
        with pytest.raises(DomainError, match="head of 30 modes exceeds the 29 modes"):
            mercer_trace_gap(short)

    def test_both_kinds_moderate(self, bridge400, rl400):
        # the head at m = 400 is 20 modes: measured 7.0e-7 and 4.2e-7
        assert mercer_trace_gap(bridge400) < 1e-5
        assert mercer_trace_gap(rl400) < 1e-5


_COUNTS = {
    "rho_asymptotic": lambda o, sp: fs.rho_asymptotic(True, o),
    "lambda_two_term": lambda o, sp: fs.lambda_two_term(True, o),
    "n_modes": lambda o, sp: discretize_and_solve(
        KernelSpec(o, KernelKind.RL), build_grid(20), n_modes=True),
    "k": lambda o, sp: eigenfunction_at(sp, True, 0.5),
    "gauss_legendre_01": lambda o, sp: gauss_legendre_01(True),
    "NystromGrid": lambda o, sp: NystromGrid(True),
}


@pytest.mark.parametrize("entry", list(_COUNTS))
def test_counts_refuse_bool(entry, order075, bridge400):
    # True == 1 is an Integral, and each of these once took it for 1
    with pytest.raises(DomainError, match="must be an integer >= 1, got True"):
        _COUNTS[entry](order075, bridge400)
