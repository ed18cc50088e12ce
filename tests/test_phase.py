import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracspec as fs
from fracspec.errors import AccuracyError, DomainError
from fracspec.quadrature import tanh_sinh_rule

ALPHAS = (0.55, 0.65, 0.75, 0.85, 0.95)


class TestFractionalOrder:
    def test_rl_bridge_domain(self):
        fs.FractionalOrder(0.75)
        fs.FractionalOrder(1.0)
        with pytest.raises(DomainError):
            fs.FractionalOrder(0.5)
        with pytest.raises(DomainError):
            fs.FractionalOrder(1.0001)

    def test_caputo_domain(self):
        fs.FractionalOrder(0.3, fs.Variant.CAPUTO)
        with pytest.raises(DomainError):
            fs.FractionalOrder(0.0, fs.Variant.CAPUTO)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            fs.FractionalOrder(float("nan"))

    def test_alpha_stored_as_float(self):
        # a float32 alpha once kept every downstream formula in float32:
        # rho_asymptotic(10, ...) gave np.float32(30.892326)
        o = fs.FractionalOrder(np.float32(0.75))
        assert type(o.alpha) is float and o == fs.FractionalOrder(0.75)
        assert fs.rho_asymptotic(10, o) == fs.rho_asymptotic(10, 0.75) == 30.892327760299633
        assert type(fs.PhaseTable(o).alpha) is float

    def test_bool_rejected(self):
        # True once passed as alpha = 1
        with pytest.raises(DomainError, match="alpha must be a real number, got True"):
            fs.FractionalOrder(True)

    def test_string_rejected(self):
        # a string once raised np.isfinite's TypeError
        with pytest.raises(DomainError, match="alpha must be a real number, got '0.75'"):
            fs.FractionalOrder("0.75")


class TestTheta0:
    def test_value_at_one_closed_form(self):
        # theta0(1) = -pi (1 - a) / 2 for every order
        for a in ALPHAS:
            assert fs.theta0(1.0, a) == pytest.approx(
                -np.pi * (1.0 - a) / 2.0, abs=1e-15
            )

    def test_limits(self):
        a = 0.75
        assert fs.theta0(1e-9, a) == pytest.approx((a - 1.0) * np.pi, abs=1e-8)
        assert abs(fs.theta0(1e9, a)) < 1e-12

    def test_nonpositive_and_monotone(self):
        t = np.geomspace(1e-6, 1e6, 400)
        th = fs.theta0(t, 0.75)
        assert np.all(th <= 0)
        assert np.all(np.diff(th) > 0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            fs.theta0(0.0, 0.75)
        with pytest.raises(DomainError):
            fs.theta0(-1.0, 0.75)

    def test_rejects_caputo(self):
        with pytest.raises(DomainError):
            fs.theta0(1.0, fs.FractionalOrder(0.75, fs.Variant.CAPUTO))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.51, max_value=1.0),
    )
    def test_sine_identity(self, logt, a):
        # sin(theta0) gamma0 t^a == -sin(a pi), exact on the whole half line
        t = 10.0**logt
        lhs = np.sin(fs.theta0(t, a)) * fs.gamma0(t, a) * t**a
        assert lhs == pytest.approx(-np.sin(a * np.pi), abs=1e-12)


def test_b_alpha_values():
    assert fs.b_alpha(1.0) == pytest.approx(0.0, abs=1e-15)
    assert fs.b_alpha(0.75) == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-15)
    assert fs.b_alpha(0.55) < fs.b_alpha(0.75) < 0
    with pytest.raises(DomainError):
        fs.b_alpha(0.5)


@pytest.mark.parametrize(
    "what, call",
    [("theta0", lambda o: fs.theta0(1.0, o)),
     ("b_alpha", fs.b_alpha),
     ("a PhaseTable", fs.PhaseTable),
     ("the eigenfunction asymptotics", lambda o: fs.eigenfunction_asymptotic(1, 0.5, o)),
     ("lambda_two_term", lambda o: fs.lambda_two_term(5, o))],
    ids=["theta0", "b_alpha", "PhaseTable", "eigenfunction_asymptotic", "lambda_two_term"],
)
def test_rl_bridge_only(what, call):
    # one rule, one message: b_alpha once took any order with alpha in
    # (1/2, 1], a caputo one too, and lambda_two_term gave a caputo order
    # the rl-bridge expansion (25.07 at n = 5, a = 0.6, against asym2's 24.01)
    with pytest.raises(DomainError, match=f"^{what} exists for the rl-bridge variant only, got caputo$"):
        call(fs.FractionalOrder(0.75, fs.Variant.CAPUTO))


class TestXc0:
    def test_anchor_at_i(self):
        # closed form sqrt(a) e^{-i pi (1-a)/4}
        for a in ALPHAS:
            table = fs.PhaseTable(fs.FractionalOrder(a))
            exact = np.sqrt(a) * np.exp(-1j * np.pi * (1.0 - a) / 4.0)
            assert abs(fs.xc0(1j, table) - exact) < 1e-8

    def test_frozen_generic_point(self, table075):
        got = fs.xc0(0.3 + 0.7j, table075)
        assert got == pytest.approx(
            0.83661961892921144 - 0.24070110585538371j, abs=1e-12
        )

    def test_conjugate_symmetry(self, table075):
        z = -1.3 + 0.4j
        assert fs.xc0(np.conj(z), table075) == pytest.approx(
            np.conj(fs.xc0(z, table075)), abs=1e-14
        )

    @pytest.mark.parametrize("a", [0.55, 0.75, 0.9, 0.99])
    def test_minus_i_is_conjugate_bit_for_bit(self, a):
        # integro.secular takes X_c0(-i) as conj X_c0(i), relying on this
        table = fs.PhaseTable(fs.FractionalOrder(a))
        assert fs.xc0(-1j, table) == fs.xc0(1j, table).conjugate()

    def test_real_on_negative_axis(self, table075):
        v = fs.xc0(complex(-2.0), table075)
        assert v.imag == 0.0
        assert 0.0 < v.real < 1.5

    def test_real_scalar_has_positive_zero_imag(self, table075):
        v = fs.xc0(-2.0, table075)
        assert isinstance(v, complex)
        assert math.copysign(1.0, v.imag) == 1.0

    def test_cut_rejected(self, table075):
        for z in (0.0, 1.0, complex(2.0, 0.0)):
            with pytest.raises(DomainError):
                fs.xc0(z, table075)
        with pytest.raises(DomainError):
            fs.xc0(np.array([1j, 0.5 + 0j]), table075)

    def test_non_finite_z_rejected(self, table075):
        # complex(nan, 1) and complex(-inf, 1) once returned nan+nanj
        for z in (complex(np.nan, 1.0), complex(-np.inf, 1.0), complex(-1.0, np.inf),
                  np.array([1j, complex(np.nan, 0.0)])):
            with pytest.raises(DomainError, match="non-finite z"):
                fs.xc0(z, table075)

    def test_scalar_calls_memoized(self, table075):
        # repeat calls are bit-identical; nothing is stored between them
        a = fs.xc0(0.25 + 0.25j, table075)
        b = fs.xc0(0.25 + 0.25j, table075)
        assert a == b

    def test_array_path_matches_scalar(self, table075):
        zs = np.array([-0.5 + 0j, 1j, -3.0 + 2.0j])
        arr = fs.xc0(zs, table075)
        for z, v in zip(zs, arr):
            assert fs.xc0(complex(z), table075) == pytest.approx(v, abs=1e-14)

    def test_accuracy_contract(self):
        strict = fs.PhaseTable(fs.FractionalOrder(0.75))
        strict.tol = 1e-30
        with pytest.raises(AccuracyError):
            fs.xc0(0.7 + 0.1j, strict)

    @pytest.mark.parametrize("a", [0.55, 0.75, 0.9, 0.99])
    def test_near_zero_raises(self, a):
        # the docstring's region: the estimate exceeds 1e-10 at |z| = 1e-8
        # on the imaginary axis (1.4e-7 at a = 0.75), is below it at 1e-5
        # on Re z <= 0 and up to |z| = 1e12
        table = fs.PhaseTable(fs.FractionalOrder(a))
        for z in (1e-8j, -1e-8j, np.array([1j, 1e-8j])):
            with pytest.raises(AccuracyError):
                fs.xc0(z, table)
        r = np.logspace(-5.0, 12.0, 35)[:, None]
        z = r * np.exp(1j * np.linspace(np.pi / 2, np.pi, 9))
        assert np.all(np.isfinite(fs.xc0(z.ravel(), table)))


class TestPvWeight:
    def test_frozen_values(self, table075):
        assert fs.pv_weight(1.0, table075) == pytest.approx(
            0.71170045186825581, abs=1e-12
        )
        assert fs.pv_weight(50.0, table075) == pytest.approx(
            0.97913749238714998, abs=1e-12
        )
        t6 = fs.PhaseTable(fs.FractionalOrder(0.6))
        assert fs.pv_weight(1.0, t6) == pytest.approx(0.60827199423568412, abs=1e-12)

    def test_large_t_example_band(self, table075):
        # W(50) sits just past 2% below 1; assert the loose band plus the
        # frozen value above, rather than a bound the true value violates
        assert abs(1.0 - fs.pv_weight(50.0, table075)) < 0.025

    def test_limit_at_infinity(self, table075):
        assert abs(fs.pv_weight(1e6, table075) - 1.0) < 1e-4

    def test_reciprocal_symmetry(self, table075):
        # the PV exponent is symmetric under t -> 1/t
        for t in (0.1, 0.37, 2.9, 40.0):
            assert fs.pv_weight(t, table075) == pytest.approx(
                fs.pv_weight(1.0 / t, table075), rel=1e-12
            )

    def test_in_unit_interval(self, table075):
        t = np.geomspace(1e-3, 1e3, 50)
        w = fs.pv_weight(t, table075)
        assert np.all((w > 0) & (w <= 1.0))

    def test_rejects_nonpositive(self, table075):
        with pytest.raises(DomainError):
            fs.pv_weight(0.0, table075)


def _pv_exponent_unblocked(table, t):
    # one full-size sweep over all t: the reference for the blocked sweep
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = table.alpha
    sig, w, sigc = tanh_sinh_rule()
    even = (np.arange(sig.size) - sig.size // 2) % 2 == 0
    c = np.cos(a * np.pi)
    s2 = np.sin(a * np.pi)
    tt = t[:, None] ** (2 * a)
    lo = np.log(sig)

    def dtheta(tau_pow, t_pow, diff):
        return -np.arctan(s2 * diff / ((tau_pow - c) * (t_pow - c) + s2 * s2))

    d_hi = -tt * np.expm1(-2 * a * lo)[None, :]
    tau_hi = tt * sig[None, :] ** (-2 * a)
    d_lo = -tt * np.expm1(2 * a * lo)[None, :]
    tau_lo = tt * sig[None, :] ** (2 * a)
    num = dtheta(tau_hi, tt, d_hi) - dtheta(tau_lo, tt, d_lo)
    q = w * num / (sigc * (1.0 + sig))
    fine = q.sum(axis=-1)
    coarse = 2.0 * q[:, even].sum(axis=-1)
    return -(2.0 / np.pi) * fine, (2.0 / np.pi) * np.abs(fine - coarse)


class TestPvSweep:
    @pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
    def test_blocked_equals_unblocked(self, alpha):
        # block edges at 32 rows; 33 and 65 leave a one-row tail
        table = fs.PhaseTable(fs.FractionalOrder(alpha))
        rng = np.random.default_rng(7)
        for size in (1, 31, 32, 33, 34, 65, 240, 2220):
            t = np.geomspace(1e-8, 1e8, size) * rng.uniform(0.5, 2.0, size)
            expo, err = table._pv_exponent(t)
            want_expo, want_err = _pv_exponent_unblocked(table, t)
            assert np.array_equal(expo, want_expo), size
            assert np.array_equal(err, want_err), size

    def test_array_accuracy_contract(self):
        strict = fs.PhaseTable(fs.FractionalOrder(0.75))
        strict.tol = 1e-30
        with pytest.raises(AccuracyError):
            fs.pv_weight(np.geomspace(0.1, 10.0, 70), strict)

    def test_nan_estimate_fails_the_tolerance(self, table075):
        # a NaN estimate once passed err.max() > tol
        with pytest.raises(AccuracyError, match="xc0 quadrature error estimate nan"):
            fs.phase._check_tol(np.array([0.0, np.nan]), table075, "xc0")


def _cauchy_unblocked(table, z):
    # the X_c0 sums over all z at once: the reference for the blocked sweep
    x, w, _ = tanh_sinh_rule()
    even = (np.arange(x.size) - x.size // 2) % 2 == 0
    t1 = x * x
    zz = np.asarray(z)[:, None]
    q1 = w * fs.theta0(t1, table.order) * 2.0 * x / (t1 - zz)
    q2 = w * fs.theta0(1.0 / x, table.order) / x / (1.0 - x * zz)
    fine = (q1.sum(axis=-1) + q2.sum(axis=-1)) / np.pi
    coarse = (
        2.0 * q1[:, even].sum(axis=-1) + 2.0 * q2[:, even].sum(axis=-1)
    ) / np.pi
    return fine, np.abs(fine - coarse)


class TestCauchySweep:
    @pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
    def test_blocked_equals_unblocked(self, alpha):
        # 32-row blocks, as in the PV sweep; 713 is the layer rule's size
        table = fs.PhaseTable(fs.FractionalOrder(alpha))
        rng = np.random.default_rng(11)
        for size in (1, 31, 32, 33, 34, 65, 713):
            r = np.geomspace(1e-5, 1e12, size) * rng.uniform(0.5, 2.0, size)
            arg = rng.uniform(0.1, np.pi, size)
            for z in (-r, r * np.exp(1j * arg)):
                val, err = table._cauchy(z)
                want_val, want_err = _cauchy_unblocked(table, z)
                assert val.dtype == z.dtype, size
                assert np.array_equal(val, want_val), (size, z.dtype)
                assert np.array_equal(err, want_err), (size, z.dtype)


class TestG0H0:
    def test_g0_frozen(self, table075):
        assert fs.g0(0.5, table075) == pytest.approx(-0.2469575045443444, abs=1e-12)

    def test_g0_at_one_identity(self, table075):
        # g0(1) = sin(theta0(1)) W(1) = -sin(pi/8) W(1) at alpha = 3/4
        w1 = fs.pv_weight(1.0, table075)
        assert fs.g0(1.0, table075) == pytest.approx(
            -np.sin(np.pi / 8.0) * w1, abs=1e-14
        )

    def test_g0_negative(self, table075):
        t = np.geomspace(1e-4, 1e4, 60)
        assert np.all(fs.g0(t, table075) < 0)

    def test_h0_equals_minus_g0(self):
        # oracle: h0(t) = -t^{-a} sin(theta0(t) - a pi) pv_weight(t) with its
        # prefactor in 30-digit mpmath, so g0 = -h0 is checked without either
        # side using the identity t^a sin(theta0) = -t^{-a} sin(theta0 - a pi)
        t = np.geomspace(1e-6, 1e6, 13)
        for alpha in (0.55, 0.75, 0.9):
            table = fs.PhaseTable(alpha)
            pv = fs.pv_weight(t, table)
            with mp.workdps(30):
                a = mp.mpf(alpha)
                s, c = mp.sin(a * mp.pi), mp.cos(a * mp.pi)
                h = []
                for tk, wk in zip(t, pv):
                    tm = mp.mpf(tk)
                    th = -mp.atan(s / (tm ** (2 * a) - c))
                    h.append(float(-(tm ** (-a)) * mp.sin(th - a * mp.pi) * wk))
            g = fs.g0(t, table)
            # measured: at most 7.5e-16 relative (a = 0.9)
            assert np.max(np.abs(g + np.array(h)) / np.abs(g)) < 1e-14, alpha

    def test_vanishes_at_both_ends(self, table075):
        assert abs(fs.g0(1e-8, table075)) < 1e-5
        assert abs(fs.g0(1e8, table075)) < 1e-5

    def test_g0_from_one_sweep(self, table075, monkeypatch):
        # one PV sweep, bit for bit the defining product
        t = np.geomspace(1e-6, 1e6, 80)
        a = table075.alpha
        g = t**a * np.sin(fs.theta0(t, table075.order)) * fs.pv_weight(t, table075)
        sweeps = []
        exponent = fs.PhaseTable._pv_exponent
        monkeypatch.setattr(
            fs.PhaseTable,
            "_pv_exponent",
            lambda self, tt: sweeps.append(tt.size) or exponent(self, tt),
        )
        got = fs.g0(t, table075)
        assert sweeps == [t.size]
        assert np.array_equal(got, g)

    def test_g0_rejects_nonpositive(self, table075):
        with pytest.raises(DomainError):
            fs.g0(np.array([0.5, 0.0]), table075)


class TestSinglePath:
    """A scalar argument takes the array path and is unwrapped at the end."""

    @pytest.mark.parametrize("alpha", [0.55, 0.75125, 0.9, 0.97, 0.99])
    def test_scalar_equals_one_element_array(self, alpha):
        table = fs.PhaseTable(fs.FractionalOrder(alpha))
        for t in (1e-8, 2.9, 1e8):
            for z in (-t, t * (-1.0 + 1.0j)):
                assert fs.xc0(z, table) == fs.xc0(np.array([complex(z)]), table)[0]
            for f in (fs.pv_weight, fs.g0):
                assert f(t, table) == f(np.array([t]), table)[0], (f.__name__, t)

    @pytest.mark.parametrize("name", [
        "theta0", "gamma0", "pv_weight", "g0", "xc0", "upsilon0", "upsilon1",
        "boundary_layer", "eigenfunction_at", "eigenfunction_asymptotic",
        "layered_asymptote", "reconstruct_f_exact", "analytic_extend",
    ])
    def test_points_keep_their_shape(self, name, table075):
        # a 2-d array of points gives the 1-d values reshaped, a 0-d array
        # the one-element array's value as a float (xc0: as a complex;
        # analytic_extend: p, q, r as (2,) complex arrays; boundary_layer:
        # its pair, stacked here; upsilon0 and upsilon1: the members of
        # upsilons' pair)
        tb = table075
        t = np.array([[0.5, 2.0], [3.0, 0.1]])
        x = np.array([[0.1, 0.4], [0.7, 1.0]])
        spectrum = fs.discretize_and_solve(
            fs.KernelSpec(tb.order, fs.KernelKind.BRIDGE), fs.build_grid(20), n_modes=2
        )
        f, pts = {
            "theta0": (lambda p: fs.theta0(p, tb.order), t),
            "gamma0": (lambda p: fs.gamma0(p, tb.order), t),
            "pv_weight": (lambda p: fs.pv_weight(p, tb), t),
            "g0": (lambda p: fs.g0(p, tb), t),
            "xc0": (lambda p: fs.xc0(p, tb), t * (-1.0 + 1.0j)),
            "upsilon0": (lambda p: fs.upsilons(p, tb)[0], t),
            "upsilon1": (lambda p: fs.upsilons(p, tb)[1], t),
            "boundary_layer": (lambda p: np.stack(fs.boundary_layer(p, 10.0, tb)), x),
            "eigenfunction_at": (lambda p: fs.eigenfunction_at(spectrum, 2, p), x),
            "eigenfunction_asymptotic": (
                lambda p: fs.eigenfunction_asymptotic(3, p, tb.order), x),
            "layered_asymptote": (
                lambda p: fs.eigenfunction_asymptotic(3, p, tb.order, tb), x),
            "reconstruct_f_exact": (
                lambda p: fs.reconstruct_f_exact(p, fs.secular(28.0, tb), tb), x),
            "analytic_extend": (
                lambda p: np.stack(fs.analytic_extend(fs.solve_pqr(28.0, tb), p)),
                t * (1.0 + 1.0j)),
        }[name]
        lead = {"analytic_extend": (3, 2), "boundary_layer": (2,)}.get(name, ())
        got = f(pts)
        assert got.shape == lead + pts.shape
        assert np.array_equal(got, f(pts.ravel()).reshape(got.shape))
        one = f(np.asarray(pts[1, 0]))
        if lead:
            dtype = complex if name == "analytic_extend" else float
            assert (one.shape, one.dtype) == (lead, dtype)
        else:
            assert type(one) is (complex if name == "xc0" else float)
        assert np.array_equal(one, f(pts[1:, :1].ravel())[..., 0])

    def test_table_unchanged_by_evaluation(self):
        table = fs.PhaseTable(fs.FractionalOrder(0.75))
        before = {
            k: v.copy() if hasattr(v, "copy") else v for k, v in vars(table).items()
        }
        x = np.linspace(0.0, 1.0, 11)
        sv = fs.secular(28.0, table)
        fs.eigenfunction_asymptotic(9, x, table.order, table=table)
        fs.reconstruct_f_exact(x, sv, table)
        after = vars(table)
        assert after.keys() == before.keys()
        for k, v in before.items():
            if isinstance(v, np.ndarray):
                assert np.array_equal(after[k], v), k
            else:
                assert after[k] == v, k
