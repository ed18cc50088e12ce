import mpmath as mp
import numpy as np
import pytest

import fracspec as fs
from fracspec.asymptotics import (
    Order,
    _layer_rule,
    boundary_layer,
    upsilons,
)
from fracspec.errors import DomainError


class TestFrequencies:
    def test_rl_bridge_orders(self, order075):
        assert fs.rho_asymptotic(3, order075, Order.FIRST) == pytest.approx(3 * np.pi)
        assert fs.rho_asymptotic(3, order075, Order.SECOND) == pytest.approx(
            3 * np.pi + (np.pi / 2) * (1 - 4.0 / 3.0)
        )

    def test_caputo_orders_coincide(self):
        o = fs.FractionalOrder(0.75, fs.Variant.CAPUTO)
        for order in Order:
            assert fs.rho_asymptotic(7, o, order) == pytest.approx(
                7 * np.pi - np.pi / 2
            )

    def test_alpha_one_shift_vanishes(self):
        assert fs.rho_asymptotic(4, 1.0, Order.SECOND) == pytest.approx(4 * np.pi)

    def test_lambda_is_rho_power(self, order075):
        rho = fs.rho_asymptotic(9, order075)
        assert fs.lambda_asymptotic(9, order075) == pytest.approx(rho**1.5)

    def test_n_domain(self, order075):
        with pytest.raises(DomainError):
            fs.rho_asymptotic(0, order075)
        with pytest.raises(DomainError):
            fs.lambda_two_term(0, order075)

    @pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0)])
    def test_n_must_be_an_integer(self, order075, table075, n):
        # a float n gave rho at int(n)'s value, or complex layered values
        x = np.array([0.2, 0.7])
        for f in (
            lambda: fs.rho_asymptotic(n, order075),
            lambda: fs.lambda_asymptotic(n, order075),
            lambda: fs.lambda_two_term(n, order075),
            lambda: fs.eigenfunction_asymptotic(n, x, order075, table075),
        ):
            with pytest.raises(DomainError, match="n must be an integer >= 1"):
                f()

    def test_n_takes_numpy_integers(self, order075):
        assert fs.rho_asymptotic(np.int64(3), order075) == fs.rho_asymptotic(3, order075)
        assert fs.lambda_two_term(np.int32(3), order075) == fs.lambda_two_term(3, order075)

    def test_two_term_vs_power_form(self):
        # the additive form differs from rho_2^{2a} at O(n^{2a-2}) only
        for a in (0.6, 0.75, 0.9):
            o = fs.FractionalOrder(a)
            for n in range(2, 51):
                gap = abs(fs.lambda_two_term(n, o) - fs.lambda_asymptotic(n, o))
                assert gap < 0.5 * n ** (2 * a - 2)


class TestLayers:
    def test_upsilon_signs(self, table075):
        t = np.geomspace(1e-6, 1e6, 60)
        u0, u1 = upsilons(t, table075)
        assert np.all(u0 < 0)
        assert np.all(u1 > 0)

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    def test_upsilon_formulas(self, a):
        # the docstring formulas, factor by factor. In double precision
        # sin(theta0 - a pi) loses every digit as t -> 0, where theta0 tends
        # to (a - 1) pi, so that factor alone is taken at 40 digits from
        # theta0's own formula
        table = fs.PhaseTable(a)
        o = table.order
        t = np.geomspace(1e-6, 1e6, 60)
        xt = fs.xc0(-t, table) / t
        gm = fs.gamma0(t, o)
        b = fs.b_alpha(o)
        with mp.workdps(40):
            api = a * mp.pi
            s0 = np.array([
                float(mp.sin(-mp.atan(mp.sin(api) / (mp.mpf(x) ** (2 * a)
                                                     - mp.cos(api))) - api))
                for x in t
            ])
        c = np.sqrt(2 * a) / np.pi
        want0 = c * xt * s0 / gm
        want1 = c * t**a * (b - t) / np.sqrt(b * b + 1.0) * xt * np.sin(
            fs.theta0(t, o)) / gm
        u0, u1 = upsilons(t, table)
        assert np.max(np.abs(u0 / want0 - 1.0)) <= 1e-14
        assert np.max(np.abs(u1 / want1 - 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "t", [np.nan, np.array([1.0, np.nan]), np.inf, np.array([1.0, np.inf])],
        ids=["scalar", "array", "inf", "inf-array"],
    )
    @pytest.mark.parametrize(
        "f",
        [fs.theta0, fs.gamma0, fs.pv_weight, fs.g0,
         lambda t, tb: upsilons(t, tb)[0], lambda t, tb: upsilons(t, tb)[1]],
        ids=["theta0", "gamma0", "pv_weight", "g0", "upsilon0", "upsilon1"],
    )
    def test_nan_t_rejected(self, f, t, table075):
        # NaN and inf are refused like a nonpositive t, rather than propagating
        # (inf once gave pv_weight and g0 nan, gamma0 inf)
        arg = table075.order if f in (fs.theta0, fs.gamma0) else table075
        with pytest.raises(DomainError, match="t must be positive"):
            f(t, arg)

    def test_scalar_gives_a_pair_of_floats(self, table075):
        pairs = (upsilons(2.0, table075), boundary_layer(0.5, 10.0, table075))
        assert [type(v) for pair in pairs for v in pair] == [float] * 4

    def test_integral_upsilon0_closed_form(self):
        # int_0^inf Upsilon0 = -sqrt(2) sin(pi (1-a) / 4)
        for a in (0.7, 0.75, 0.85):
            table = fs.PhaseTable(fs.FractionalOrder(a))
            got = boundary_layer(0.0, 30.0, table)[0]
            want = -np.sqrt(2.0) * np.sin(np.pi * (1.0 - a) / 4.0)
            assert got == pytest.approx(want, abs=1e-6)

    def test_integral_upsilon1_frozen(self, table075):
        got = boundary_layer(1.0, 30.0, table075)[1]
        assert got == pytest.approx(4.545835517841e-01, abs=1e-9)

    def test_layer_value_frozen(self, table075):
        got = boundary_layer(0.5, 30.0, table075)[0]
        assert got == pytest.approx(-3.588864105407e-04, abs=1e-13)

    def test_decay_in_rho(self, table075):
        vals = [
            abs(boundary_layer(0.3, rho, table075)[0])
            for rho in (10.0, 20.0, 40.0, 80.0)
        ]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_decay_away_from_endpoint(self, table075):
        x = np.array([0.0, 0.1, 0.3, 0.7])
        v = np.abs(boundary_layer(x, 25.0, table075)[0])
        assert np.all(np.diff(v) < 0)

    def test_at_one_mirrors_at_zero(self, table075):
        # the layer at 1 decays toward x = 0 with the same exponential rate factor
        near = boundary_layer(0.95, 40.0, table075)[1]
        far = boundary_layer(0.05, 40.0, table075)[1]
        assert abs(near) > 100 * abs(far)

    def test_rho_domain(self, table075):
        # a NaN rho once passed rho <= 0 and gave a NaN layer; an infinite rho
        # gave a zero layer
        for rho in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="rho must be positive"):
                boundary_layer(0.5, rho, table075)

    @pytest.mark.parametrize("which", [0, 1], ids=["at0", "at1"])
    def test_blocks_agree_with_the_whole_grid(self, table075, which):
        # the layer integral on the whole (points x nodes) meshgrid; 32-row
        # blocks may round a gemv row differently, so not bit for bit
        rho = fs.rho_asymptotic(10, table075.order)
        t, w = _layer_rule()
        wu = w * upsilons(t, table075)[which]
        for n in (1, 31, 32, 33, 501):
            x = (np.arange(n) + 0.5) / n
            d = x if which == 0 else 1.0 - x
            want = np.exp(-rho * t[None, :] * d[:, None]) @ wu
            got = boundary_layer(x, rho, table075)[which]
            assert np.max(np.abs(got - want)) <= 1e-15, n

    def test_no_points_by_nodes_temporary(self, table075, traced_peak):
        # measured 0.49 MiB; one 501 x 713 array alone is 2.7 MiB, and the
        # whole-grid layers peaked at 6.6 MiB
        x = np.linspace(0.0, 1.0, 501)
        peak = traced_peak(
            fs.eigenfunction_asymptotic, 10, x, table075.order, table075
        )[1]
        assert peak < 2**20

    def test_one_xc0_sweep_for_both_layers(self, table075, monkeypatch):
        # both layer densities come from one X_c0 sample of the 713-node rule
        calls = []
        original = fs.asymptotics.xc0

        def spy(z, table):
            calls.append(np.shape(z))
            return original(z, table)

        monkeypatch.setattr("fracspec.asymptotics.xc0", spy)
        x = np.linspace(0.0, 1.0, 501)
        fs.eigenfunction_asymptotic(10, x, table075.order, table075)
        assert calls == [(713,)]


class TestEigenfunction:
    def test_alpha_one_is_classical_sine(self):
        x = np.linspace(0.0, 1.0, 101)
        for n in (1, 2, 5):
            got = fs.eigenfunction_asymptotic(n, x, 1.0)
            want = np.sqrt(2.0) * np.sin(np.pi * n * x)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_layers_require_table(self, order075, table075):
        # the layers are added exactly when a table is passed
        x = np.linspace(0.0, 1.0, 11)
        rho = fs.rho_asymptotic(5, order075)
        sine = np.sqrt(2.0) * np.sin(rho * x + np.pi / 16.0)
        assert np.array_equal(fs.eigenfunction_asymptotic(5, x, order075), sine)
        layers = fs.eigenfunction_asymptotic(5, x, order075, table075) - sine
        assert np.abs(layers).max() > 0.1

    def test_layers_are_boundary_layer(self, table075, order075):
        # the layered profile adds exactly the layers that boundary_layer
        # gives, in the same order, so the pinned layers are the printed ones
        x = np.linspace(0.0, 1.0, 101)
        phi = (np.pi / 4) * (1.0 - order075.alpha)
        for n in (9, 10, 30, 31):
            rho = fs.rho_asymptotic(n, order075)
            at0, at1 = boundary_layer(x, rho, table075)
            want = np.sqrt(2.0) * np.sin(rho * x + phi) + at0 + (-1.0) ** n * at1
            got = fs.eigenfunction_asymptotic(n, x, order075, table075)
            assert np.array_equal(got, want), n

    def test_table_of_another_alpha_rejected(self, table075):
        # at n = 5, alpha = 0.6 the 0.75 table's layers are off by 0.49 at x = 1
        with pytest.raises(DomainError, match="PhaseTable of alpha=0.75 given"):
            fs.eigenfunction_asymptotic(5, 1.0, 0.6, table075)
        with pytest.raises(DomainError):
            fs.eigenfunction_asymptotic(5, 1.0, fs.FractionalOrder(0.6), table075)
        assert fs.eigenfunction_asymptotic(5, 1.0, 0.75, table075) == (
            fs.eigenfunction_asymptotic(5, 1.0, fs.FractionalOrder(0.75), table075)
        )

    def test_caputo_rejected(self):
        o = fs.FractionalOrder(0.75, fs.Variant.CAPUTO)
        with pytest.raises(DomainError):
            fs.eigenfunction_asymptotic(5, 0.5, o)

    def test_layer_at_one_alternates_with_n(self, table075, order075):
        # at x = 1 the layer correction is (-1)^n int Upsilon1 up to the
        # AtZero tail, which decays like rho^{-1-2a} (about 1e-4 here)
        for n in (10, 11):
            with_l = fs.eigenfunction_asymptotic(n, 1.0, order075, table=table075)
            without = fs.eigenfunction_asymptotic(n, 1.0, order075)
            diff = with_l - without
            assert diff == pytest.approx((-1.0) ** n * 0.4545835517841, abs=2e-4)

    def test_scalar_matches_array(self, table075, order075):
        xs = np.array([0.2, 0.8])
        arr = fs.eigenfunction_asymptotic(7, xs, order075, table=table075)
        for x, v in zip(xs, arr):
            s = fs.eigenfunction_asymptotic(7, float(x), order075, table=table075)
            assert s == v

    def test_deterministic(self, table075, order075):
        x = np.linspace(0, 1, 33)
        a = fs.eigenfunction_asymptotic(6, x, order075, table=table075)
        b = fs.eigenfunction_asymptotic(6, x, order075, table=table075)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("x", [-0.5, 1.5, np.nan], ids=["below", "above", "nan"])
@pytest.mark.parametrize(
    "evaluate",
    ["eigenfunction_at", "boundary_layer", "eigenfunction_asymptotic",
     "reconstruct_f_exact"],
)
def test_eigenfunctions_reject_x_outside_unit_interval(evaluate, x, table075):
    # each raises before it computes anything, for a scalar and inside an array
    spectrum = fs.discretize_and_solve(
        fs.KernelSpec(table075.order, fs.KernelKind.BRIDGE), fs.build_grid(20),
        n_modes=1,
    )
    call = {
        "eigenfunction_at": lambda x: fs.eigenfunction_at(spectrum, 1, x),
        "boundary_layer": lambda x: boundary_layer(x, 10.0, table075),
        "eigenfunction_asymptotic": lambda x: fs.eigenfunction_asymptotic(
            3, x, table075.order, table075
        ),
        "reconstruct_f_exact": lambda x: fs.reconstruct_f_exact(
            x, fs.secular(10.0, table075), table075
        ),
    }[evaluate]
    for arg in (x, np.array([0.5, x])):
        with pytest.raises(DomainError, match=r"x must lie in \[0, 1\]"):
            call(arg)
