"""End-to-end acceptance checks.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with -s or on failure); the
assertion mirrors the printed verdict. Shared session fixtures keep the
expensive objects (the m=2000 reference spectrum, the refined secular
roots) to one computation each.
"""

import numpy as np
import pytest

import fracspec as fs
from fracspec.asymptotics import Order
from fracspec.cli import main
from fracspec.integro import secular, solve_pqr
from fracspec.nystrom import (
    KernelKind,
    KernelSpec,
    build_grid,
    discretize_and_solve,
    eigenfunction_at,
)

ANCHOR_ALPHAS = (0.55, 0.65, 0.75, 0.85, 0.95)


def _verdict(idx, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{idx}/9] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def caputo2000():
    order = fs.FractionalOrder(0.75, fs.Variant.CAPUTO)
    # test 5 reads f_20, the highest eigenfunction any user reads, and
    # test 6 rho_25
    spec = KernelSpec(order, KernelKind.RL)
    return discretize_and_solve(spec, build_grid(2000), n_modes=25)


def test_1_transform_anchor():
    errs = []
    for a in ANCHOR_ALPHAS:
        table = fs.PhaseTable(fs.FractionalOrder(a))
        exact = np.sqrt(a) * np.exp(-1j * np.pi * (1.0 - a) / 4.0)
        errs.append(abs(fs.xc0(1j, table) - exact))
    worst = max(errs)
    ok = worst < 1e-8
    assert _verdict(1, "anchor value at i", ok, f"max |err| = {worst:.2e} < 1e-8")


def test_2_classical_degeneration():
    one = fs.FractionalOrder(1.0)
    s = discretize_and_solve(KernelSpec(one, KernelKind.BRIDGE), build_grid(800))
    n = np.arange(1, 21)
    eig_err = np.max(np.abs(s.lam[:20] / (np.pi * n) ** 2 - 1.0))
    x = np.linspace(0.0, 1.0, 501)
    f_err = np.max(
        np.abs(eigenfunction_at(s, 1, x) - np.sqrt(2.0) * np.sin(np.pi * x))
    )
    ok = eig_err < 1e-4 and f_err < 1e-4
    assert _verdict(
        2,
        "alpha=1 degeneration",
        ok,
        f"eigenvalue relerr {eig_err:.2e}, f1 sup-err {f_err:.2e} (both < 1e-4)",
    )


def test_3_eigenvalue_error_orders(bridge2000, order075):
    ns = np.arange(2, 31)
    lam_hat = bridge2000.lam[ns - 1]
    r1 = np.abs(
        lam_hat / np.array([fs.lambda_asymptotic(int(n), order075, Order.FIRST)
                            for n in ns]) - 1.0
    )
    r2 = np.abs(
        lam_hat / np.array([fs.lambda_two_term(int(n), order075) for n in ns])
        - 1.0
    )
    dominates = bool(np.all(r2 < r1))
    tail = ns >= 5
    slope = float(np.polyfit(np.log(ns[tail]), np.log(r2[tail]), 1)[0])
    ok = dominates and -2.5 < slope < -1.5
    assert _verdict(
        3,
        "second order beats first",
        ok,
        f"relerr2 < relerr1 on n in [2,30]: {dominates};"
        f" log-log slope {slope:.2f} in (-2.5, -1.5)",
    )


def test_4_boundary_layer_effect(bridge2000, table075, order075):
    x = np.linspace(0.0, 1.0, 501)
    f_ny = eigenfunction_at(bridge2000, 10, x)
    f_off = fs.eigenfunction_asymptotic(10, x, order075)
    f_on = fs.eigenfunction_asymptotic(10, x, order075, table=table075)
    sup_off = np.max(np.abs(f_off - f_ny))
    sup_on = np.max(np.abs(f_on - f_ny))
    interior = (x >= 0.1) & (x <= 0.9)
    sup_int = np.max(np.abs((f_on - f_ny)[interior]))
    ok = sup_on < sup_off and sup_int < 0.02 * np.sqrt(2.0)
    assert _verdict(
        4,
        "layers sharpen n=10 profile",
        ok,
        f"sup err {sup_on:.2e} (layers) vs {sup_off:.2e} (none);"
        f" interior {sup_int:.2e} < {0.02 * np.sqrt(2.0):.2e}",
    )


def test_5_caputo_endpoint_law(caputo2000):
    devs = {}
    v75 = abs(eigenfunction_at(caputo2000, 20, 1.0))
    devs[0.75] = abs(v75 - np.sqrt(1.5)) / np.sqrt(1.5)
    for a in (0.6, 0.9):
        spec = KernelSpec(fs.FractionalOrder(a, fs.Variant.CAPUTO), KernelKind.RL)
        sp = discretize_and_solve(spec, build_grid(2000), n_modes=20)
        v = abs(eigenfunction_at(sp, 20, 1.0))
        devs[a] = abs(v - np.sqrt(2 * a)) / np.sqrt(2 * a)
    worst = max(devs.values())
    ok = worst < 0.01
    assert _verdict(
        5,
        "endpoint modulus sqrt(2a)",
        ok,
        "rel dev "
        + ", ".join(f"{a}: {d:.2e}" for a, d in sorted(devs.items()))
        + " (all < 1e-2)",
    )


def test_6_caputo_frequency_law(caputo2000):
    ns = np.arange(5, 26)
    rho_hat = caputo2000.rho[ns - 1]
    dev = np.abs(rho_hat - (np.pi * ns - np.pi / 2.0)) * ns
    bound = float(dev.max())
    ok = bound < 0.05
    assert _verdict(
        6,
        "caputo frequency shift",
        ok,
        f"fitted bound sup n|rho_n - (pi n - pi/2)| = {bound:.4f} (cap 0.05)",
    )


def test_7_refined_roots_vs_asymptote(roots075, bridge2000, table075, order075):
    rows = []
    all_super = True
    all_unique = True
    for n in sorted(roots075):
        rho_ny = float(bridge2000.rho[n - 1])
        d_ref = abs(roots075[n].rho - rho_ny)
        d_asym = abs(fs.rho_asymptotic(n, order075) - rho_ny)
        better = d_ref < d_asym
        all_super &= better

        lo, hi = roots075[n].bracket
        rs = np.linspace(lo, hi, 33)
        vals = np.array([secular(float(r), table075).normalized for r in rs])
        flips = int(np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        all_unique &= flips == 1
        rows.append(
            f"  n={n:2d}: |refined-ny| {d_ref:.3e}"
            f" {'<' if better else '>='} |asym2-ny| {d_asym:.3e},"
            f" sign changes {flips}"
        )
    print("\n".join(rows))
    ok = all_super and all_unique
    assert _verdict(
        7,
        "refined roots beat asymptote",
        ok,
        f"superiority on all n in [5,20]: {all_super};"
        f" unique bracket root: {all_unique}",
    )


def test_8_leading_form_decay(table075):
    def deviation(rho):
        s = solve_pqr(rho, table075)
        t = s.grid
        return max(
            np.abs(s.p[0] - 1).max(),
            np.abs(s.p[1]).max(),
            np.abs(s.q[0]).max(),
            np.abs(s.q[1] - 1).max(),
            np.abs(s.r[0]).max(),
            np.abs(s.r[1] - t).max(),
        )

    d30, d60, d120 = deviation(30.0), deviation(60.0), deviation(120.0)
    r1, r2 = d30 / d60, d60 / d120
    ok = 4.0 / 3.0 < r1 < 3.0 and 4.0 / 3.0 < r2 < 3.0
    assert _verdict(
        8,
        "auxiliary solutions decay like 1/rho",
        ok,
        f"sup deviations {d30:.3e}/{d60:.3e}/{d120:.3e},"
        f" halving ratios {r1:.2f}, {r2:.2f} in (1.33, 3.0)",
    )


def test_9_validate_suite():
    rc = main(["validate", "--alpha", "0.75"])
    ok = rc == 0
    assert _verdict(9, "validate subcommand", ok, f"exit code {rc} (7 checks)")
