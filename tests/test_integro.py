import dataclasses
import functools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import fracspec as fs
from fracspec import asymptotics, cli, integro
from fracspec.asymptotics import Order
from fracspec.errors import BracketError, ConvergenceError, DomainError
from fracspec.integro import (
    _brentq,
    analytic_extend,
    reconstruct_f_exact,
    refine_rho,
    refine_roots,
    secular,
    solve_pqr,
)
from fracspec.nystrom import (
    KernelKind,
    KernelSpec,
    build_grid,
    discretize_and_solve,
    eigenfunction_at,
)


def _leading_deviation(sol):
    # sup distance of (p, q, r) from their large-rho leading forms
    t = sol.grid
    return max(
        np.abs(sol.p[0] - 1).max(),
        np.abs(sol.p[1]).max(),
        np.abs(sol.q[0]).max(),
        np.abs(sol.q[1] - 1).max(),
        np.abs(sol.r[0]).max(),
        np.abs(sol.r[1] - t).max(),
    )


def _dense_solution(sol, rhs):
    # oracle: the 2N system x = A x + rhs assembled from its definition, the
    # swap of the two components and the kernel e_l g0_l / (pi (t_k + t_l)),
    # and solved directly, no fixed-point iteration
    t = sol.grid
    n = t.size
    W = sol.e * sol.gv / (np.pi * (t[:, None] + t[None, :]))
    A = np.block([[np.zeros((n, n)), W], [W, np.zeros((n, n))]])
    return np.linalg.solve(np.eye(2 * n) - A, rhs.ravel()).reshape(2, n)


class TestGridAndOperator:
    def test_grid_shape(self, table075):
        # 40 octaves of 6 nodes below T = 2, the least power of two >= 40/25
        sol = solve_pqr(25.0, table075)
        t, w = sol.grid, sol.weights
        assert t.size == w.size == 240
        assert np.all(np.diff(t) > 0)
        assert np.all(w > 0)
        assert 1.0 < t[-1] < 2.0
        assert t[0] < 1e-11
        assert not t.flags.writeable

    @pytest.mark.parametrize("rho", [20.0, 40.0 / 3.0, 5.0, 0.7, 1e3])
    def test_top_edge(self, rho, table075):
        sol = solve_pqr(rho, table075)
        t, w = sol.grid, sol.weights
        top = 2.0 ** math.ceil(math.log2(40.0 / rho))
        assert 40.0 / rho <= top < 80.0 / rho
        assert top / 2 < t[-1] < top
        assert top * 2.0**-40 < t[0] < top * 2.0**-39
        assert w.sum() == pytest.approx(top, rel=1e-11)

    def test_nodes_are_scaled_pattern(self, table075):
        # a node depends on its octave only, never on rho
        s1 = solve_pqr(25.0, table075)
        s2 = solve_pqr(25.0 / 2.0**3, table075)
        t1, w1, t2, w2 = s1.grid, s1.weights, s2.grid, s2.weights
        assert np.array_equal(t1[6:], t1[:-6] * 2.0)
        assert np.array_equal(w1[6:], w1[:-6] * 2.0)
        assert np.array_equal(t2[:-18], t1[18:])
        assert np.array_equal(w2[:-18], w1[18:])

    def test_grid_rejects_nonpositive_rho(self, table075):
        # a NaN rho once passed rho <= 0 and ran 100 sweeps to a ConvergenceError;
        # an infinite rho once gave a solution after one sweep
        for rho in (0.0, -1.0, np.nan, np.inf):
            for f in (solve_pqr, secular):
                with pytest.raises(DomainError, match="rho must be positive"):
                    f(rho, table075)

    def test_rejects_rho_outside_samples(self, table075):
        samples = integro._sample_octaves(20.0, 24.0, table075)
        for rho in (5.0, 200.0):
            with pytest.raises(DomainError, match="outside the sampled octaves"):
                solve_pqr(rho, table075, _samples=samples)


class TestSolvePqr:
    def test_converges(self, table075):
        sol = solve_pqr(40.0, table075)
        assert sol.iterations < 30

    def test_unconverged_raises(self, table075, monkeypatch):
        # contracting, but two sweeps cannot get the update below 1e-12
        monkeypatch.setattr(integro, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="did not converge in 2 sweeps"):
            solve_pqr(40.0, table075)

    def test_non_finite_update_raises_at_once(self, table075):
        # a NaN update is neither below the stop nor growing: it once ran all
        # 100 sweeps before the ConvergenceError
        k0, t, w, gv, D = integro._sample_octaves(20.0, 20.0, table075)
        gv = gv.copy()
        gv[gv.size // 2] = np.nan
        with pytest.raises(ConvergenceError, match="sweep 1: non-finite update"):
            solve_pqr(20.0, table075, _samples=(k0, t, w, gv, D))

    def test_fixed_point(self):
        # p = A p + (1, 0) and r = A r + (0, t) against the dense solve, on
        # the grid and kernel data of the solution
        for a in (0.6, 0.75, 0.9):
            table = fs.PhaseTable(a)
            for rho in (0.9, 4.0, 12.0, 35.0):
                sol = solve_pqr(rho, table)
                one, t = np.ones_like(sol.grid), sol.grid
                p = _dense_solution(sol, np.stack([one, 0 * one]))
                r = _dense_solution(sol, np.stack([0 * one, t]))
                for got, want in ((sol.p, p), (sol.r, r)):
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err < 1e-12, (a, rho, err)

    def test_memory_stays_below_a_kernel_matrix(self, table075, traced_peak):
        # a sweep reads a view of the shared Cauchy matrix; a 240 x 240
        # matrix of its own would take 450 KiB
        samples = integro._sample_octaves(4.0 - np.pi / 2, 4.0 + np.pi / 2, table075)
        sol, peak = traced_peak(lambda: solve_pqr(4.0, table075, _samples=samples))
        assert sol.iterations > 1
        assert peak < 128 * 1024

    def test_q_is_p_swapped(self, table075):
        # oracle: the dense 2N system (I - A) q = (0, 1), with A assembled
        # from g0 on the grid and solved directly, no fixed-point iteration
        rho = 35.0
        sol = solve_pqr(rho, table075)
        t, w = sol.grid, sol.weights
        n = t.size
        wg = w * np.exp(-rho * t) * fs.g0(t, table075)
        W = wg / (t[:, None] + t[None, :]) / np.pi
        A = np.block([[np.zeros((n, n)), W], [W, np.zeros((n, n))]])
        rhs = np.concatenate([np.zeros(n), np.ones(n)])
        q = np.linalg.solve(np.eye(2 * n) - A, rhs).reshape(2, n)
        assert np.abs(q - sol.p[::-1]).max() < 1e-12

    def test_leading_form_deviations(self, table075):
        # frozen: 2.0916e-2 / 1.2612e-2 / 7.5528e-3 / 1.5497e-3
        caps = {30.0: 2.5e-2, 60.0: 1.5e-2, 120.0: 1e-2, 1000.0: 3e-3}
        devs = {}
        for rho, cap in caps.items():
            d = _leading_deviation(solve_pqr(rho, table075))
            assert d < cap
            devs[rho] = d
        # decay close to 1/rho between octaves
        assert 4.0 / 3.0 < devs[30.0] / devs[60.0] < 3.0
        assert 4.0 / 3.0 < devs[60.0] / devs[120.0] < 3.0


class TestExtension:
    def test_reproduces_grid_nodes(self, table075):
        sol = solve_pqr(28.0, table075)
        for j in (5, 120, 200):
            z = complex(sol.grid[j])
            p, q, r = analytic_extend(sol, z)
            assert p[0] == pytest.approx(sol.p[0, j], abs=1e-11)
            assert q[1] == pytest.approx(sol.q[1, j], abs=1e-11)
            assert r[1] == pytest.approx(sol.r[1, j], abs=1e-11)

    def test_conjugate_symmetry(self, table075):
        # all grid data is real: conjugate points give conjugate values, bit
        # for bit, which secular relies on at -+i
        sol = solve_pqr(28.0, table075)
        for z in (0.4 + 0.9j, 1j, -1j):
            for a, b in zip(analytic_extend(sol, z), analytic_extend(sol, np.conj(z))):
                assert np.array_equal(a, np.conj(b))

    def test_rejects_cut(self, table075):
        sol = solve_pqr(28.0, table075)
        for z in (0.0, -1.0, complex(-3.0, 0.0)):
            with pytest.raises(DomainError):
                analytic_extend(sol, z)
        for z in (np.array([0.5, 0.0]), np.array([1j, -2.0 + 0j])):
            with pytest.raises(DomainError):
                analytic_extend(sol, z)

    def test_rejects_non_finite_z(self, table075):
        # complex(inf, 1) once gave p = [1, 0]
        sol = solve_pqr(28.0, table075)
        for z in (complex(np.inf, 1.0), complex(np.nan, 1.0), complex(1.0, np.inf),
                  np.array([1j, complex(np.nan, 0.0)])):
            with pytest.raises(DomainError, match="non-finite z"):
                analytic_extend(sol, z)

    def test_array_matches_points(self, table075):
        # an array gives (2, M) values of its own dtype, each column the
        # one-point continuation up to the rounding of a multi-row product
        sol = solve_pqr(28.0, table075)
        for z in (np.array([0.4 + 0.9j, -1j, 1j, 3.0 + 0j]), np.array([1e-3, 0.5, 40.0])):
            out = analytic_extend(sol, z)
            for got, want in zip(out, zip(*(analytic_extend(sol, v) for v in z))):
                assert (got.shape, got.dtype) == ((2, z.size), z.dtype)
                assert np.allclose(got, np.stack(want, axis=1), rtol=1e-14, atol=0)


class TestKernelData:
    """solve_pqr samples g0 once; continuation and secular reuse it."""

    @staticmethod
    def _count_sweeps(monkeypatch):
        sweeps = []
        exponent = fs.PhaseTable._pv_exponent
        monkeypatch.setattr(
            fs.PhaseTable,
            "_pv_exponent",
            lambda self, t: sweeps.append(t.size) or exponent(self, t),
        )
        return sweeps

    def test_stored_kernel_data(self, table075):
        sol = solve_pqr(28.0, table075)
        t = sol.grid
        assert np.array_equal(sol.gv, fs.g0(t, table075))
        assert np.array_equal(sol.e, sol.weights * np.exp(-28.0 * t))

    def test_one_sweep_per_solve(self, table075, monkeypatch):
        sweeps = self._count_sweeps(monkeypatch)
        sol = solve_pqr(28.0, table075)
        assert sweeps == [sol.grid.size]
        sweeps.clear()
        secular(28.0, table075)  # its own solve's sweep, nothing more
        assert sweeps == [sol.grid.size]
        sweeps.clear()
        analytic_extend(sol, 0.3 + 0.2j)
        assert sweeps == []

    def test_secular_continues_at_plus_minus_i(self, table075, monkeypatch):
        # secular continues at -i alone and takes +i as its conjugate; xi and
        # eta are the formula with both points continued, bit for bit
        used = []

        def spy(s, z):
            used.append(complex(z))
            return analytic_extend(s, z)

        monkeypatch.setattr("fracspec.integro.analytic_extend", spy)
        rho, a = 28.0, table075.alpha
        value = secular(rho, table075)
        assert used == [-1j]
        pm, qm, rm = analytic_extend(value.solution, -1j)
        pp, qp, rp = analytic_extend(value.solution, 1j)
        X = table075.xc_i / (rho * 1j)
        Y = (rho * 1j) ** (a - 1.0) * table075.xc_i.conjugate()
        ph = np.exp(-1j * rho)
        bal = fs.b_alpha(table075.order)
        xi = X * pm[0] + rho ** (-a) * ph * Y * pp[1]
        eta = X * rho**a * (rho * bal * qm[0] - rho * rm[0]) + ph * Y * (
            rho * bal * qp[1] - rho * rp[1]
        )
        assert (value.xi, value.eta) == (complex(xi), complex(eta))

    def test_continuation_matches_fresh_kernel(self, table075):
        # the stored data give the continuation bit for bit as a kernel
        # sampled afresh from g0 does
        rho = 28.0
        sol = solve_pqr(rho, table075)
        t = sol.grid
        e = sol.weights * np.exp(-rho * t)
        for z in (-1j, 1j):
            ker = e / (t[None, :] + np.asarray([z])[:, None]) / np.pi
            kg = ker * fs.g0(t, table075)[None, :]
            p, q, r = analytic_extend(sol, z)
            assert np.array_equal(p, [(kg @ sol.p[1] + 1.0)[0], (kg @ sol.p[0])[0]])
            assert np.array_equal(q, [(kg @ sol.q[1])[0], (kg @ sol.q[0] + 1.0)[0]])
            assert np.array_equal(r, [(kg @ sol.r[1])[0], (kg @ sol.r[0] + z)[0]])

    def test_bracket_samples_match_standalone(self, table075):
        # the n = 3 bracket straddles rho = 10, where T drops from 8 to 4:
        # its evaluations take two different windows of the shared samples,
        # and every value agrees bit for bit with a sweep of its own grid
        lo, hi = refine_rho(3, table075).bracket
        samples = integro._sample_octaves(lo, hi, table075)
        t, D = samples[1], samples[4]
        assert len(samples) == 5  # (k0, t, w, g0, D): X_c0(i) is the table's
        for rho in (lo, 10.0, hi):
            shared = secular(rho, table075, _samples=samples)
            alone = secular(rho, table075)
            assert shared.xi == alone.xi and shared.eta == alone.eta
            for name in ("grid", "weights", "gv", "e", "p", "q", "r"):
                got = getattr(shared.solution, name)
                assert np.array_equal(got, getattr(alone.solution, name))
            # the Cauchy matrix of rho's window, sliced from the bracket's
            own = integro._sample_octaves(rho, rho, table075)
            i = int(np.searchsorted(t, own[1][0]))
            j = i + own[1].size
            assert np.array_equal(t[i:j], own[1])
            assert np.array_equal(D[i:j, i:j], own[4])
        # a rho whose window is not sampled is refused, never mis-sliced
        for rho in (lo / 4.0, 2.0 * hi):
            with pytest.raises(DomainError):
                solve_pqr(rho, table075, _samples=samples)


class TestSecular:
    def test_large_rho_model(self, table075):
        # xi conj(eta) approaches the explicit oscillatory model at 1/rho rate
        a = 0.75
        ba = fs.b_alpha(a)
        xc = fs.xc0(1j, table075)
        for rho in (20.0, 40.0, 80.0, 160.0):
            sv = secular(rho, table075)
            got = sv.xi * np.conj(sv.eta)
            model = (
                (1.0 / (rho * 1j))
                * xc**2
                * rho**a
                * (-1j) ** (a - 1.0)
                * np.exp(1j * rho)
                * (ba + 1j)
            )
            assert abs(got - model) / abs(model) < 0.05 / rho

    def test_normalized_bounded(self, table075):
        sv = secular(33.3, table075)
        assert abs(sv.normalized) <= 1.0


class TestRefine:
    def test_frozen_root(self, roots075):
        # oracle: Nystrom rho_10 at m = 2000 (30.8928458891); m = 1000 gives
        # 30.8928442148, so the oracle's own error bar is about 1.7e-6
        assert roots075[10].rho == pytest.approx(30.8928458891, abs=1e-6)

    def test_residual_contract(self, roots075):
        for root in roots075.values():
            assert root.condition_residual < 1e-10
            # |normalized| is |Im(xi conj(eta))| / (|xi||eta|) to the bit
            sv = root.value
            assert root.condition_residual == abs(sv.condition) / (
                abs(sv.xi) * abs(sv.eta)
            )

    def test_alpha_from_the_table(self):
        # oracle: Nystrom rho_5 at alpha = 0.6 is 14.6550723 at m = 1000
        # (14.6550729 at m = 500); the alpha = 0.75 root is 15.1825
        root = refine_rho(5, fs.PhaseTable(0.6))
        assert root.rho == pytest.approx(14.6550723, abs=2e-6)

    def test_rho_is_the_solutions(self, roots075):
        # the value types keep no rho of their own: a root's is its
        # value's, which is the solution's
        for cls in (fs.SecularValue, fs.RefinedRoot):
            assert "rho" not in {f.name for f in dataclasses.fields(cls)}
        for root in (roots075[7], refine_rho(3, fs.PhaseTable(0.9))):
            assert root.rho == root.value.rho == root.value.solution.rho

    def test_one_xc0_per_root(self, table075, monkeypatch):
        # X_c0(i) is the table's, evaluated once when it is built; a root
        # evaluates X_c0 nowhere, and the layer densities sample it in
        # asymptotics, so both modules are spied
        assert table075.xc_i == fs.xc0(1j, table075)
        calls = []
        original = fs.phase.xc0

        def spy(z, table):
            calls.append(z)
            return original(z, table)

        monkeypatch.setattr("fracspec.phase.xc0", spy)
        monkeypatch.setattr("fracspec.asymptotics.xc0", spy)
        for n in (1, 3, 10):
            calls.clear()
            root = refine_rho(n, table075)
            assert calls == []
            reconstruct_f_exact(0.5, root.value, table075)
            # the layers' array of points only, no X_c0(i)
            assert len(calls) == 1 and not np.isscalar(calls[0])

    def test_roots_increasing_and_near_asymptote(self, roots075, order075):
        rhos = [roots075[n].rho for n in sorted(roots075)]
        assert np.all(np.diff(rhos) > 0)
        for n, root in roots075.items():
            tilde = fs.rho_asymptotic(n, order075)
            assert abs(root.rho - tilde) < 0.1

    def test_gap_to_asymptote_shrinks(self, roots075, order075):
        gaps = [
            abs(roots075[n].rho - fs.rho_asymptotic(n, order075))
            for n in sorted(roots075)
        ]
        assert gaps[-1] < gaps[0]

    def test_each_rho_evaluated_once(self, monkeypatch):
        # the scan's nodes and _brentq's iterates are each solved once, and
        # the root carries the very value secular returned at it
        seen = {}
        original = secular

        def spy(rho, table, **kw):
            assert float(rho) not in seen
            seen[float(rho)] = original(rho, table, **kw)
            return seen[float(rho)]

        monkeypatch.setattr("fracspec.integro.secular", spy)
        for alpha in (0.6, 0.9):
            table = fs.PhaseTable(alpha)
            for n in (1, 3, 10, 20):
                seen.clear()
                root = refine_rho(n, table)
                assert root.value is seen[root.rho], (alpha, n)
                assert root.value.rho == root.rho

    @staticmethod
    def _scan_nodes(n, order):
        # the 33 nodes of refine_rho's default scan around the asymptote
        rho0 = fs.rho_asymptotic(n, order, Order.SECOND)
        lo = max(rho0 - np.pi / 2.0, 1e-3)
        return rho0, np.linspace(lo, rho0 + np.pi / 2.0, 33)

    @pytest.mark.parametrize("alpha", [0.6, 0.75])
    def test_matches_full_scan_oracle(self, alpha, monkeypatch):
        # oracle: evaluate all 33 nodes, then take the sign change whose
        # midpoint is nearest the asymptote (argmin: lowest index on ties),
        # and polish it with scipy's brentq; refine_rho runs the port
        order = fs.FractionalOrder(alpha)
        table = fs.PhaseTable(order)
        intervals = []

        def spy_brentq(f, a, b, **kw):
            intervals.append((a, b))
            return _brentq(f, a, b, **kw)  # imported before the patch

        monkeypatch.setattr("fracspec.integro._brentq", spy_brentq)
        for n in (1, 2, 5, 10, 20):
            rho0, rs = self._scan_nodes(n, order)
            cache = {}

            def normalized(r):
                if r not in cache:
                    cache[r] = secular(r, table).normalized
                return cache[r]

            sign = np.sign([normalized(float(r)) for r in rs])
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            mids = 0.5 * (rs[flips] + rs[flips + 1])
            i = int(flips[np.argmin(np.abs(mids - rho0))])
            want = brentq(normalized, rs[i], rs[i + 1], xtol=1e-13)

            root = refine_rho(n, table)
            assert intervals.pop() == (rs[i], rs[i + 1])
            assert root.bracket == (rs[0], rs[-1])
            assert root.rho == want

    def test_few_secular_calls_per_root(self, table075, monkeypatch):
        # the full scan made 37 calls per root (33 nodes plus the polish)
        calls = []
        original = secular

        def spy(rho, table, **kw):
            calls.append(rho)
            return original(rho, table, **kw)

        monkeypatch.setattr("fracspec.integro.secular", spy)
        for n in (1, 3, 10, 30):
            calls.clear()
            refine_rho(n, table075)
            assert len(calls) <= 10

    def test_no_sign_change_evaluates_every_node(self, table075, monkeypatch):
        seen = []

        def positive(rho, table, **kw):
            seen.append(rho)
            return SimpleNamespace(rho=rho, normalized=1.0)

        monkeypatch.setattr("fracspec.integro.secular", positive)
        with pytest.raises(BracketError):
            refine_rho(3, table075)
        assert len(seen) == len(set(seen)) == 33

    def test_equidistant_sign_changes_take_the_lower(self, table075, monkeypatch):
        order = table075.order
        rho0, rs = self._scan_nodes(3, order)
        dist = np.abs(0.5 * (rs[:-1] + rs[1:]) - rho0)
        # intervals j and 31 - j lie symmetrically about the centre node;
        # take the nearest pair whose midpoints are equally far from rho0
        j = next(k for k in range(15, -1, -1) if dist[k] == dist[31 - k])
        inside = (rs[j + 1], rs[31 - j])

        def two_flips(rho, table, **kw):
            sign = 1.0 if inside[0] <= rho <= inside[1] else -1.0
            return SimpleNamespace(rho=rho, normalized=sign)

        class Chosen(Exception):
            pass

        def record(f, a, b, **kw):
            raise Chosen(a, b)

        monkeypatch.setattr("fracspec.integro.secular", two_flips)
        monkeypatch.setattr("fracspec.integro._brentq", record)
        with pytest.raises(Chosen) as chosen:
            refine_rho(3, table075)
        assert chosen.value.args == (rs[j], rs[j + 1])

    def test_one_sweep_per_root(self, table075, monkeypatch):
        sweeps = []
        original = integro.g0

        def spy(t, table):
            sweeps.append(t.size)
            return original(t, table)

        monkeypatch.setattr("fracspec.integro.g0", spy)
        # one sweep over the octaves of every rho in [rho_n -+ pi/2]: all
        # of n = 10's have T = 2, while n = 3's straddle rho = 10
        for n, octaves in ((10, 40), (3, 41)):
            refine_rho(n, table075)
            assert sweeps == [octaves * 6]
            sweeps.clear()
        sol = solve_pqr(28.0, table075)
        assert sweeps == [sol.grid.size]

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_shared_sample_matches_single_roots(self, alpha, monkeypatch):
        # refine_roots samples g0 once over the octaves of every bracket;
        # each root is bit for bit the one refine_rho finds from its own
        table = fs.PhaseTable(alpha)
        ns = range(1, 31)
        single = [refine_rho(n, table) for n in ns]
        sweeps = []
        original = integro.g0

        def spy(t, table):
            sweeps.append(t.size)
            return original(t, table)

        monkeypatch.setattr("fracspec.integro.g0", spy)
        roots, failures = refine_roots(ns, table)
        assert len(sweeps) == 1
        assert failures == []
        assert [r.n for r in roots] == list(ns)
        for one, shared in zip(single, roots):
            assert shared.rho == one.rho
            assert shared.value.xi == one.value.xi
            assert shared.value.eta == one.value.eta
            assert shared.iterations == one.iterations
            assert shared.bracket == one.bracket
        assert refine_roots([], table) == ([], [])
        assert len(sweeps) == 1

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_self_convergence(self, alpha, monkeypatch):
        # oracle: the same roots on a finer PQR grid, T = 2^ceil(log2(80/rho))
        # with 48 octaves of 12 nodes. Measured relative gaps: at most
        # 4.4e-11 (a = 0.6, n = 1), below 1.5e-11 at a = 0.75 and 0.9
        table = fs.PhaseTable(alpha)
        ns = (1, 4, 10)
        coarse = [refine_rho(n, table).rho for n in ns]
        monkeypatch.setattr(integro, "_T_OVER_RHO", 80.0)
        monkeypatch.setattr(integro, "_OCTAVES", 48)
        monkeypatch.setattr(integro, "_PER_OCTAVE", 12)
        assert solve_pqr(30.0, table).grid.size == 48 * 12
        for n, rho in zip(ns, coarse):
            fine = refine_rho(n, table).rho
            assert abs(rho - fine) < 1e-10 * fine

    def test_variant_and_alpha_guards(self, table075):
        # a PhaseTable is rl-bridge only, so no caputo table reaches refine_rho
        with pytest.raises(DomainError):
            fs.PhaseTable(fs.FractionalOrder(0.75, fs.Variant.CAPUTO))
        with pytest.raises(DomainError, match="requires alpha < 1, got alpha=1"):
            refine_rho(5, fs.PhaseTable(1.0))
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            refine_rho(0, table075)

    def test_non_integral_n_rejected(self, table075):
        # refine_rho(2.5) returned rho_2 labelled n=2.5
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            refine_rho(2.5, table075)
        roots, failures = refine_roots([2.5], table075)
        assert roots == []
        assert failures == [(2.5, "DomainError: n must be an integer >= 1, got 2.5")]


def _polish(solver, f, a, b, **kw):
    """Root or outcome of one solve, and the points passed to f."""
    points = []

    def spy(x):
        points.append(x)
        return f(x)

    try:
        return solver(spy, a, b, **kw), points
    except BracketError:
        return "signs", points
    except ConvergenceError as e:
        return ("nan" if "is NaN" in str(e) else "maxiter"), points
    except RuntimeError:  # scipy: no convergence
        return "maxiter", points
    except ValueError as e:  # scipy: a NaN value or equal signs at the ends
        return ("nan" if "is NaN" in str(e) else "signs"), points


# root r, scale s; the tiny and huge scales underflow and overflow inside
# the interpolation, which is where a port is most likely to drift
_FAMILIES = {
    "cubic": lambda r, s: lambda x: s * (x - r) ** 3,
    "sine": lambda r, s: lambda x: s * math.sin(3.0 * (x - r)),
    "step": lambda r, s: lambda x: s if x > r else -s,
    "atan": lambda r, s: lambda x: s * math.atan(50.0 * (x - r)),
    "exp": lambda r, s: lambda x: s * (math.exp(x) - math.exp(r)),
    "nan": lambda r, s: lambda x: math.nan if 0 < x - r < 0.5 else s * (x - r),
}


class TestBrentq:
    """_brentq against scipy.optimize.brentq, the code it ports."""

    @settings(max_examples=400, deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        scale=st.sampled_from([1.0, -1.0, 3e-9, 1e-320, -1e-300, 1e300]),
        r=st.floats(-4.0, 4.0),
        ends=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
        root_at=st.sampled_from([None, 0, 1]),
        xtol=st.sampled_from([1e-13, 2e-12, 1e-6, 5e-324]) | st.floats(1e-300, 1.0),
        maxiter=st.integers(0, 6) | st.just(100),
    )
    def test_matches_scipy(self, family, scale, r, ends, root_at, xtol, maxiter):
        if root_at is not None:  # an exact zero at that end
            r = ends[root_at]
        f = _FAMILIES[family](r, scale)
        kw = dict(xtol=xtol, maxiter=maxiter)
        want, want_points = _polish(brentq, f, *ends, **kw)
        got, got_points = _polish(_brentq, f, *ends, **kw)
        assert got_points == want_points
        assert got == want
        assert type(got) is type(want)

    @pytest.mark.parametrize("ends", [(0.5, 2.0), (-1.0, 0.5)])
    def test_exact_zero_at_an_end(self, ends):
        got = _polish(_brentq, lambda x: x - 0.5, *ends, xtol=1e-13)
        assert got == _polish(brentq, lambda x: x - 0.5, *ends, xtol=1e-13)
        assert got == (0.5, list(ends))

    def test_nan_names_x(self):
        def f(x):
            return math.nan if x < 1.0 else x - 1.5

        with pytest.raises(ConvergenceError, match=r"at x=0\.25 is NaN"):
            _brentq(f, 0.25, 2.0, xtol=1e-13)
        with pytest.raises(ValueError, match="is NaN"):
            brentq(f, 0.25, 2.0, xtol=1e-13)

    def test_maxiter_exhausted(self):
        with pytest.raises(ConvergenceError, match="did not converge in 2"):
            _brentq(math.sin, 2.0, 4.0, xtol=1e-13, maxiter=2)
        with pytest.raises(RuntimeError):
            brentq(math.sin, 2.0, 4.0, xtol=1e-13, maxiter=2)
        assert _brentq(math.sin, 2.0, 4.0, xtol=1e-13) == brentq(
            math.sin, 2.0, 4.0, xtol=1e-13
        )


def _c_ratio(root):
    # the coefficient ratio c1/c0 = -Re(xi/eta) at a refined root
    return float(-np.real(root.value.xi / root.value.eta))


class TestCoefficientRatio:
    def test_alternation_and_decay(self, roots075):
        cs = {n: _c_ratio(roots075[n]) for n in range(5, 13)}
        for n, c in cs.items():
            assert np.sign(c) == (-1.0) ** (n + 1)
            assert 0.005 < n * abs(c) < 0.08
        mags = [abs(cs[n]) for n in range(5, 13)]
        assert np.all(np.diff(mags) < 0)

    def test_frozen_value(self, roots075):
        assert _c_ratio(roots075[10]) == pytest.approx(-0.002140, abs=2e-5)


class TestCrossSolver:
    def test_refined_vs_nystrom(self, roots075, bridge2000):
        # the two independent eigenvalue routes agree to Nystrom's own
        # discretization error (m = 2000 vs m = 1000 differ by 4.1e-5 at n = 20)
        rho_ny = bridge2000.rho
        for n in sorted(roots075):
            gap = roots075[n].rho - rho_ny[n - 1]
            assert abs(gap) < 1e-5


@functools.cache
def _bridge_slope(n: int) -> float:
    """d rho_n / da at a = 1, from first-order perturbation of the Brownian
    bridge, in mpmath alone.

    At a = 1, K_b = min(x, y) - x y, f_n = sqrt(2) sin(pi n x) and
    mu_n = (pi n)^-2. With D(x, y) = x ln x + y ln y - |x-y| ln|x-y|
    + 2 (gamma - 1) min(x, y), the kernel's a-derivative at a = 1 is
    D(x, y) - D(x, 1) y - x D(y, 1) + 2 (gamma - 1) x y; mu_n' is its
    quadratic form in f_n, and d rho_n / da = pi n (-ln(pi n) - (pi n)^2 mu_n' / 2).
    """
    def xlogx(x):
        return x * mp.log(x) if x > 0 else mp.zero

    with mp.workdps(15):
        pn = mp.pi * n
        g1 = 2 * (mp.euler - 1)
        halves = mp.linspace(0, 1, n + 1)  # one quadrature panel per half period
        A = mp.quad(lambda x: xlogx(x) * mp.sqrt(2) * mp.sin(pn * x), halves)  # <f, x ln x>
        B = mp.sqrt(2) * (1 - (-1) ** n) / pn  # <f, 1>
        G = mp.sqrt(2) * (-1) ** (n + 1) / pn  # <f, x>
        # <f, |x-y| ln|x-y| f>, through f's autocorrelation at lag s
        phi = mp.quad(lambda s: xlogx(s) * (2 * (1 - s) * mp.cos(pn * s)
                                            + 2 * mp.sin(pn * s) / pn), halves)
        # <f, D(., 1)>; x -> 1 - x turns <f, (1-x) ln(1-x)> into (-1)^(n+1) A
        E = (1 + (-1) ** n) * A + g1 * G
        # <f, min f> is mu_n + G^2, not mu_n
        dmu = 2 * A * B - phi + g1 * (1 / pn**2 + G**2) - 2 * E * G + g1 * G**2
        return float(pn * (-mp.log(pn) - pn**2 * dmu / 2))


class TestBrownianBridgePerturbation:
    """The integro roots near a = 1 against the first-order slope at a = 1."""

    def test_slope_oracle(self):
        # the slopes minus pi/2 at 20 digits; the integro roots' finite
        # difference at a = 1 - 1e-4, 1 - 2e-4 gives 0.04970612 at n = 1
        table = {1: 0.0497061539, 2: -0.0108919323, 3: 0.0038724173,
                 10: -1.2600237e-4, 30: -4.7651603e-6}
        for n, want in table.items():
            assert _bridge_slope(n) - math.pi / 2 == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("h", [1e-3, 2e-3])
    def test_refined_roots_follow_the_slope(self, h):
        # rho2(1 - h) - h (slope_n - pi/2) is rho_n(1 - h) to O(h^2). C is
        # 1.25 times the largest residual / h^2 measured at h = 1e-3 and 2e-3:
        # 0.0656, 0.0111, 0.0038, 1.10e-4 and 3.96e-6 at n = 1, 2, 3, 10, 30
        bound = {1: 0.082, 2: 0.014, 3: 0.0048, 10: 1.4e-4, 30: 5e-6}
        a = 1.0 - h
        table = fs.PhaseTable(fs.FractionalOrder(a))
        for n, c in bound.items():
            rho2 = math.pi * n + math.pi / 2 * (1.0 - 1.0 / a)
            want = rho2 - h * (_bridge_slope(n) - math.pi / 2)
            assert abs(refine_rho(n, table).rho - want) < c * h**2 * want


class TestReconstruct:
    def test_matches_nystrom_eigenfunction(self, roots075, bridge2000, table075):
        sv = secular(roots075[10].rho, table075)
        x = np.linspace(0.0, 1.0, 201)
        f = reconstruct_f_exact(x, sv, table075)
        g = eigenfunction_at(bridge2000, 10, x)
        if np.sign(f[5]) != np.sign(g[5]):
            g = -g
        # measured sup 3.7e-6, below Nystrom's own m = 1000 vs 2000 change
        # (2.4e-5); the bound leaves a factor of about 2.7
        assert np.max(np.abs(f - g)) < 1e-5

    def test_endpoint_values_small(self, roots075, table075):
        sv = secular(roots075[10].rho, table075)
        ends = reconstruct_f_exact(np.array([0.0, 1.0]), sv, table075)
        # measured |f(0)| = 3.9e-10 and |f(1)| = 5.0e-7; f(1) is the part of
        # the layer integral at 1 cut off past tau = 1e12, of order
        # 1e12^(1-2a), and does not shrink with n
        assert np.max(np.abs(ends)) < 1e-6

    def test_unit_l2(self, roots075, table075):
        from fracspec.quadrature import gauss_legendre_01

        sv = secular(roots075[10].rho, table075)
        x, w = gauss_legendre_01(400)
        f = reconstruct_f_exact(x, sv, table075)
        assert w @ f**2 == pytest.approx(1.0, abs=1e-6)

    def test_high_alpha_agreement(self):
        # closer to alpha = 1 both routes sharpen; measured sup 1.1e-6
        order = fs.FractionalOrder(0.95)
        table = fs.PhaseTable(order)
        root = refine_rho(8, table)
        spectrum = discretize_and_solve(
            KernelSpec(order, KernelKind.BRIDGE), build_grid(1200), n_modes=8
        )
        x = np.linspace(0.0, 1.0, 201)
        f = reconstruct_f_exact(x, secular(root.rho, table), table)
        g = eigenfunction_at(spectrum, 8, x)
        if np.sign(f[5]) != np.sign(g[5]):
            g = -g
        assert np.max(np.abs(f - g)) < 5e-6

    def test_value_skips_the_solve(self, roots075, table075, monkeypatch):
        # the root's value, sliced from refine_roots' shared sample, gives
        # the bits of a standalone secular value at the same rho
        root = roots075[10]
        x = np.linspace(0.0, 1.0, 101)
        want = reconstruct_f_exact(x, secular(root.rho, table075), table075)

        def forbidden(*args, **kw):
            raise AssertionError("reconstruct_f_exact solved again")

        monkeypatch.setattr("fracspec.integro.solve_pqr", forbidden)
        monkeypatch.setattr("fracspec.integro.secular", forbidden)
        got = reconstruct_f_exact(x, root.value, table075)
        assert np.array_equal(got, want)

    def test_blocks_agree_with_the_whole_grid(self, roots075, table075, monkeypatch):
        # one block over all points is the whole (points x nodes) meshgrid;
        # 32-row blocks may round a gemv row differently, so not bit for bit
        root = roots075[10]
        for n in (1, 31, 32, 33, 501):
            x = (np.arange(n) + 0.5) / n
            got = reconstruct_f_exact(x, root.value, table075)
            with monkeypatch.context() as m:
                m.setattr(asymptotics, "_row_blocks", lambda size: [(0, size)])
                want = reconstruct_f_exact(x, root.value, table075)
            assert np.max(np.abs(got - want)) <= 1e-15, n

    def test_no_points_by_nodes_temporary(self, roots075, table075, traced_peak):
        # measured 1.4 MiB, nearly all of analytic_extend's one (713 x 240)
        # kernel on the layer rule; 2.7 MiB when that kernel was built through
        # chained temporaries, 8.3 MiB with whole (points x 713) layer arrays
        root = roots075[10]
        x = np.linspace(0.0, 1.0, 501)
        peak = traced_peak(reconstruct_f_exact, x, root.value, table075)[1]
        assert peak < 2 * 2**20

    def test_domain_check(self, roots075, table075):
        with pytest.raises(DomainError):
            reconstruct_f_exact(np.array([-0.1, 0.5]), roots075[10].value, table075)
        with pytest.raises(DomainError):
            reconstruct_f_exact(np.array([0.5, 1.2]), roots075[10].value, table075)


def test_dump_integro_csv(roots075, order075):
    # integro.csv is written by the CLI, with every other output format
    roots = [roots075[n] for n in sorted(roots075)]
    lines = cli._integro_csv(roots).split("\n")
    assert lines[0] == "n,rho_refined,rho_asym2,condition_residual,iterations"
    assert len(lines) == 2 + len(roots)
    first = lines[1].split(",")
    assert first[0] == "5"
    assert float(first[1]) == pytest.approx(roots[0].rho)
    assert float(first[2]) == pytest.approx(fs.rho_asymptotic(5, order075, Order.SECOND))


def test_dump_integro_csv_uses_each_roots_order():
    # the asymptote printed next to a root is the one at the root's own order
    root = refine_rho(5, fs.PhaseTable(0.6))
    assert root.order == fs.FractionalOrder(0.6)
    row = cli._integro_csv([root]).split("\n")[1].split(",")
    assert row[2] == "1.466076571675e+01"
