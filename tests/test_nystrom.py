import io
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as spgamma

import fracspec as fs
from fracspec import nystrom
from fracspec.errors import ConvergenceError, DomainError
from fracspec.nystrom import (
    KernelKind,
    KernelSpec,
    build_grid,
    caputo_endpoint_value,
    discretize_and_solve,
    dump_spectrum_csv,
    eigenfunction_at,
    kernel_bridge,
    kernel_K,
    kernel_typo,
    mercer_trace_gap,
    _kernel_matrix,
    _kernel_of_kind,
    _kernel_raw,
)


def _kernel_oracle(x, y, a):
    # brute-force quadrature of the defining integral
    lo = min(x, y)
    f = lambda t: (x - t) ** (a - 1) * (y - t) ** (a - 1)
    return float(mp.quad(f, [0, lo]) / mp.gamma(a) ** 2)


@pytest.fixture(scope="module")
def bridge400(order075):
    return discretize_and_solve(KernelSpec(order075, KernelKind.BRIDGE), build_grid(400))


@pytest.fixture(scope="module")
def rl400(order075):
    return discretize_and_solve(KernelSpec(order075, KernelKind.RL), build_grid(400))


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

    def test_alpha_half_off_diagonal(self):
        # K = (2/pi) artanh(sqrt(min/max)); the general form is 0/0 here
        pts = [(0.3, 0.7), (0.9, 0.2), (1.0, 0.6), (0.5, 0.5 * (1 + 1e-9))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [kernel_K(x, y, 0.5) for x, y in pts]
        with mp.workdps(30):
            want = [_kernel_oracle(x, y, 0.5) for x, y in pts]
        assert got == pytest.approx(want, rel=1e-13)

    def test_alpha_one_is_min(self):
        x = np.array([0.2, 0.5, 0.9])[:, None]
        y = np.array([0.1, 0.5, 1.0])[None, :]
        assert np.allclose(kernel_K(x, y, 1.0), np.minimum(x, y), atol=1e-14)
        got = kernel_bridge(x, y, 1.0)
        assert np.allclose(got, np.minimum(x, y) - x * y, atol=1e-14)

    def test_bridge_vanishes_at_one(self, order075):
        y = np.linspace(0.05, 1.0, 7)
        assert np.max(np.abs(kernel_bridge(1.0, y, order075))) < 1e-15
        assert abs(kernel_bridge(0.37, 1.0, order075)) < 1e-15

    def test_zero_edge(self, order075):
        assert kernel_K(0.0, 0.5, order075) == 0.0
        assert kernel_bridge(0.0, 0.5, order075) == 0.0

    def test_diagonal_rejected_small_alpha(self):
        o = fs.FractionalOrder(0.4, fs.Variant.CAPUTO)
        with pytest.raises(DomainError):
            kernel_K(0.5, 0.5, o)

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
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.52, max_value=0.99),
    )
    def test_homogeneous(self, x, y, c, a):
        # K(cx, cy) = c^{2a-1} K(x, y)
        assert kernel_K(c * x, c * y, a) == pytest.approx(
            c ** (2 * a - 1) * kernel_K(x, y, a), rel=1e-9
        )


class TestKernelMatrix:
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("a", [0.51, 0.75, 0.97, 1.0])
    @pytest.mark.parametrize("nodes", ["m2", "m3", "m40", "m200", "near"])
    def test_equals_meshgrid_oracle(self, nodes, a, kind):
        if nodes == "near":
            # pairs closer than 1e-8 relative, where a hypergeometric series
            # in min/max would lose digits
            x = np.array([0.2, 0.5, 0.5 * (1 + 5e-9), 0.5 * (1 + 2e-8), 0.9])
        else:
            x = build_grid(int(nodes[1:])).nodes
        X, Y = np.meshgrid(x, x, indexing="ij")
        kx1 = _kernel_raw(x, 1.0, a) if kind is KernelKind.BRIDGE else None
        assert np.array_equal(_kernel_matrix(x, a, kx1), _kernel_of_kind(X, Y, a, kind))

    def test_bridge_solve_evaluates_triangle_and_one_column(self, order075, monkeypatch):
        raw = nystrom._kernel_raw
        points = []

        def counting(x, y, a):
            points.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
            return raw(x, y, a)

        monkeypatch.setattr(nystrom, "_kernel_raw", counting)
        m = 40
        discretize_and_solve(KernelSpec(order075, KernelKind.BRIDGE), build_grid(m))
        # the upper triangle, the column K(x, 1) and K(1, 1)
        assert sum(points) <= m * (m + 1) // 2 + m + 1


class TestRowIntegral:
    def test_rl_against_nested_quadrature(self):
        for a, x in ((0.75, 0.3), (0.6, 0.8)):
            want = float(
                mp.quad(lambda y: _kernel_oracle(x, float(y), a), [0, x, 1])
            )
            from fracspec.nystrom import _row_integral_rl

            got = float(_row_integral_rl(np.array([x]), a)[0])
            assert got == pytest.approx(want, rel=1e-12)

    def test_rl_alpha_one(self):
        from fracspec.nystrom import _row_integral_rl

        x = np.linspace(0.1, 1.0, 5)
        assert np.allclose(_row_integral_rl(x, 1.0), x - x**2 / 2, atol=1e-13)

    def test_bridge_alpha_one(self):
        from fracspec.nystrom import _row_integral_bridge

        # int_0^1 (min(x,y) - x y) dy = x - x^2/2 - x/2
        x = np.linspace(0.1, 1.0, 5)
        assert np.allclose(
            _row_integral_bridge(x, 1.0), x / 2 - x**2 / 2, atol=1e-13
        )


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
        v = caputo_endpoint_value(0.75, 20, 800)
        assert v == pytest.approx(np.sqrt(1.5), rel=1e-3)

    def test_nonfinite_kernel_raises(self, order075, monkeypatch):
        def poisoned(x, a, kx1=None):
            K = _kernel_matrix(x, a, kx1)
            K[3, 7] = np.nan
            return K

        monkeypatch.setattr(nystrom, "_kernel_matrix", poisoned)
        spec = KernelSpec(order075, KernelKind.RL)
        with pytest.raises(ConvergenceError):
            discretize_and_solve(spec, build_grid(40))

    def test_typo_kernel_is_nan_below_diagonal(self, order075):
        v = kernel_typo(0.3, 0.7, order075)
        assert np.isnan(float(v))

    def test_rejects_small_alpha(self):
        o = fs.FractionalOrder(0.4, fs.Variant.CAPUTO)
        with pytest.raises(DomainError):
            discretize_and_solve(KernelSpec(o, KernelKind.RL), build_grid(20))


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

    def test_k_out_of_range(self, bridge400):
        with pytest.raises(DomainError):
            eigenfunction_at(bridge400, 0, 0.5)
        with pytest.raises(DomainError):
            eigenfunction_at(bridge400, 10**6, 0.5)


class TestMercer:
    def test_bridge_fine(self, bridge2000):
        assert mercer_trace_gap(bridge2000) < 1e-4

    def test_both_kinds_moderate(self, bridge400, rl400):
        assert mercer_trace_gap(bridge400) < 1e-3
        assert mercer_trace_gap(rl400) < 1e-3

    def test_head_choice_insensitive(self, bridge400):
        a = mercer_trace_gap(bridge400, n_head=60)
        b = mercer_trace_gap(bridge400, n_head=100)
        assert abs(a - b) < 1e-3


def test_dump_spectrum_csv(bridge400):
    buf = io.StringIO()
    dump_spectrum_csv(bridge400, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "k,mu,lambda,rho"
    assert lines[-1] == ""
    assert len(lines) == 2 + bridge400.mu.size
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(bridge400.mu[0])
    assert "e" in first[2] and len(first[2].split("e")[0]) == 14
