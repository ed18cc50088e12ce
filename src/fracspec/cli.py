"""Command line harness around the solver modules.

Subcommands: spectrum (eigenvalue tables), eigenfunction (profiles + error
plot), validate (invariant suite).

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure. Output files are deterministic for a fixed configuration: floats
%.12e, comma-separated, LF endings. Per-n root refinements run in a thread
pool that shares one PhaseTable (read-only, so no lock); each command
writes its files once, at the end, each through a temporary file that then
replaces the target.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import (
    Order,
    eigenfunction_asymptotic,
    lambda_asymptotic,
    lambda_two_term,
)
from .errors import FracspecError
from .integro import PhaseTable, dump_integro_csv, refine_rho, reconstruct_f_exact
from .nystrom import (
    KernelKind,
    KernelSpec,
    build_grid,
    caputo_endpoint_value,
    discretize_and_solve,
    eigenfunction_at,
    kernel_K,
    mercer_trace_gap,
)
from .phase import FractionalOrder, Variant, xc0
from .quadrature import gauss_legendre_01
from .svg import svg_line_chart

__all__ = ["RunConfig", "UsageError", "main"]

_METHODS = ("asym1", "asym2", "nystrom", "integro")
_ANCHOR_ALPHAS = (0.55, 0.65, 0.75, 0.85, 0.95)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own rejections as UsageError, like every other."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    alpha: float = 0.75
    variant: str = "rl-bridge"
    n_min: int = 1
    n_max: int = 30
    methods: tuple = ("asym1", "asym2", "nystrom")
    m: int = 2000
    grid_points: int = 501
    output_dir: str = "."
    reference: str = "nystrom"


def _coerce(key: str, value: str):
    value = value.strip()
    try:
        if key in ("n_min", "n_max", "m", "grid_points"):
            return int(value)
        if key == "alpha":
            return float(value)
    except ValueError:
        raise UsageError(f"config value for {key} is not a number: {value!r}") from None
    if key == "methods":
        return tuple(p.strip() for p in value.split(",") if p.strip())
    if key in ("variant", "reference", "output_dir"):
        return value
    raise UsageError(f"unknown config key: {key}")


_KEY_ALIASES = {"out": "output_dir"}


def load_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment, blank lines ignored."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            key = _KEY_ALIASES.get(key, key)
            out[key] = _coerce(key, value)
    return out


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    flag_map = {
        "alpha": "alpha",
        "variant": "variant",
        "n_min": "n_min",
        "n_max": "n_max",
        "m": "m",
        "grid_points": "grid_points",
        "out": "output_dir",
        "reference": "reference",
    }
    for flag, field_name in flag_map.items():
        v = getattr(args, flag, None)
        if v is not None:
            setattr(cfg, field_name, v)
    if getattr(args, "methods", None) is not None:
        cfg.methods = tuple(p.strip() for p in args.methods.split(",") if p.strip())
    return cfg


def _validated_order(cfg: RunConfig, nystrom: bool) -> FractionalOrder:
    """The run's order; nystrom says whether the command runs that solver."""
    if cfg.variant not in ("rl-bridge", "caputo"):
        raise UsageError(f"unknown variant: {cfg.variant}")
    if not cfg.methods:
        raise UsageError("method set must not be empty")
    for meth in cfg.methods:
        if meth not in _METHODS:
            raise UsageError(f"unknown method: {meth}")
    if "integro" in cfg.methods and cfg.variant != "rl-bridge":
        raise UsageError("integro refinement applies to the rl-bridge variant only")
    if cfg.n_min < 1 or cfg.n_max < cfg.n_min:
        raise UsageError("need 1 <= n_min <= n_max")
    if cfg.m < 2:
        raise UsageError("m must be at least 2")
    if cfg.grid_points < 11:
        raise UsageError("grid_points must be at least 11")
    if cfg.reference not in ("nystrom", "integro"):
        raise UsageError(f"unknown reference method: {cfg.reference}")
    try:
        order = FractionalOrder(cfg.alpha, Variant(cfg.variant))
    except FracspecError as e:
        raise UsageError(str(e)) from e
    if nystrom and order.alpha <= 0.5:
        # only caputo gets here: the kernel diagonal needs alpha > 1/2
        raise UsageError(
            f"the Nystrom solver requires alpha > 1/2, got {order.alpha}"
        )
    if "integro" in cfg.methods and order.alpha == 1.0:
        raise UsageError(
            "integro refinement requires alpha < 1; at alpha = 1 the roots"
            " are exact (rho_n = pi n) and asym2 gives them"
        )
    return order


def _write_text(path: str, text: str) -> None:
    """Write text to path atomically: a failed write leaves path as it was.

    The text goes to a temporary file in the same directory, which then
    replaces path in one os.replace.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
    return "" if v is None else f"{v:.12e}"


# -- spectrum --------------------------------------------------------------


def _build_spectrum(cfg: RunConfig, order: FractionalOrder):
    """Compute everything cmd_spectrum serializes.

    Returns (spectrum_csv, integro_csv or None, failures) where failures is
    a list of (n, message) for integro refinements that raised.
    """
    a = order.alpha
    ns = list(range(cfg.n_min, cfg.n_max + 1))
    rl_bridge = order.variant is Variant.RL_BRIDGE

    lam_ny = {}
    if "nystrom" in cfg.methods:
        kind = KernelKind.BRIDGE if rl_bridge else KernelKind.RL
        spectrum = discretize_and_solve(KernelSpec(order, kind), build_grid(cfg.m))
        if cfg.n_max > spectrum.mu.size:
            raise FracspecError(
                f"n_max={cfg.n_max} exceeds the {spectrum.mu.size} computed modes"
            )
        lam = spectrum.lam
        lam_ny = {n: float(lam[n - 1]) for n in ns}

    roots = {}
    failures = []
    if "integro" in cfg.methods:
        table = PhaseTable(order)
        workers = min(8, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {n: pool.submit(refine_rho, n, order, table) for n in ns}
        for n in ns:
            try:
                roots[n] = futs[n].result()
            except FracspecError as e:
                failures.append((n, f"{type(e).__name__}: {e}"))

    def asym1(n):
        return lambda_asymptotic(n, order, Order.FIRST) if "asym1" in cfg.methods else None

    def asym2(n):
        if "asym2" not in cfg.methods:
            return None
        if rl_bridge:
            return lambda_two_term(n, order)
        return lambda_asymptotic(n, order, Order.SECOND)

    def lam_integro(n):
        rt = roots.get(n)
        return rt.rho ** (2.0 * a) if rt is not None else None

    def reference(n):
        if cfg.reference == "nystrom":
            return lam_ny.get(n)
        return lam_integro(n)

    lines = [
        "n,lambda_asym1,lambda_asym2,lambda_nystrom,lambda_integro,"
        "relerr_asym1,relerr_asym2,regime"
    ]
    for n in ns:
        l1, l2 = asym1(n), asym2(n)
        ref = reference(n)
        r1 = ref / l1 - 1.0 if ref is not None and l1 is not None else None
        r2 = ref / l2 - 1.0 if ref is not None and l2 is not None else None
        regime = "unverified" if n < 3 else ""
        lines.append(
            f"{n},{_fmt(l1)},{_fmt(l2)},{_fmt(lam_ny.get(n))},"
            f"{_fmt(lam_integro(n))},{_fmt(r1)},{_fmt(r2)},{regime}"
        )
    spectrum_csv = "\n".join(lines) + "\n"

    integro_csv = None
    if "integro" in cfg.methods:
        buf = io.StringIO()
        dump_integro_csv(roots.values(), order, buf)  # roots are in n order
        integro_csv = buf.getvalue()
    return spectrum_csv, integro_csv, failures


def cmd_spectrum(cfg: RunConfig) -> int:
    order = _validated_order(cfg, nystrom="nystrom" in cfg.methods)
    spectrum_csv, integro_csv, failures = _build_spectrum(cfg, order)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "spectrum.csv")
    _write_text(path, spectrum_csv)
    print(f"wrote {path}")
    if integro_csv is not None:
        ipath = os.path.join(cfg.output_dir, "integro.csv")
        _write_text(ipath, integro_csv)
        print(f"wrote {ipath}")
    for n, msg in failures:
        print(f"integro refinement failed at n={n}: {msg}", file=sys.stderr)
    if any(n >= 3 for n, _ in failures):
        return 3
    return 0


# -- eigenfunction ---------------------------------------------------------


def cmd_eigenfunction(cfg: RunConfig, n: int, exact: bool = False) -> int:
    order = _validated_order(cfg, nystrom=True)
    if order.variant is not Variant.RL_BRIDGE:
        raise UsageError("eigenfunction profiles are for the rl-bridge variant")
    if "nystrom" not in cfg.methods:
        raise UsageError("eigenfunction needs nystrom among methods (reference)")
    if n < 1:
        raise UsageError("n must be >= 1")
    if exact and order.alpha == 1.0:
        raise UsageError(
            "--exact requires alpha < 1; at alpha = 1 the eigenfunctions are"
            " exact sines and f_asym_nolayers gives them"
        )

    x = np.linspace(0.0, 1.0, cfg.grid_points)
    spectrum = discretize_and_solve(
        KernelSpec(order, KernelKind.BRIDGE), build_grid(cfg.m)
    )
    if n > spectrum.mu.size:
        raise FracspecError(f"n={n} exceeds the {spectrum.mu.size} computed modes")
    f_ny = eigenfunction_at(spectrum, n, x)

    table = PhaseTable(order)
    f_nolayers = eigenfunction_asymptotic(n, x, order, include_layers=False)
    f_layers = eigenfunction_asymptotic(n, x, order, include_layers=True, table=table)
    f_exact = None
    if exact:
        root = refine_rho(n, order, table)
        f_exact = reconstruct_f_exact(x, root.rho, table, root.value)

    header = "x,f_nystrom,f_asym_nolayers,f_asym_layers"
    if f_exact is not None:
        header += ",f_exact"
    lines = [header]
    for i in range(x.size):
        row = f"{x[i]:.12e},{f_ny[i]:.12e},{f_nolayers[i]:.12e},{f_layers[i]:.12e}"
        if f_exact is not None:
            row += f",{f_exact[i]:.12e}"
        lines.append(row)

    series = [
        ("f_asym_nolayers - f_nystrom", x, f_nolayers - f_ny, "#d62728"),
        ("f_asym_layers - f_nystrom", x, f_layers - f_ny, "#1f77b4"),
    ]
    if f_exact is not None:
        series.append(("f_exact - f_nystrom", x, f_exact - f_ny, "#2ca02c"))
    svg = svg_line_chart(
        series,
        title=f"eigenfunction error, n={n}, alpha={order.alpha:g}",
        xlabel="x",
        ylabel="error",
    )

    os.makedirs(cfg.output_dir, exist_ok=True)
    cpath = os.path.join(cfg.output_dir, f"eigenfunction_n{n}.csv")
    spath = os.path.join(cfg.output_dir, f"eigenfunction_n{n}.svg")
    _write_text(cpath, "\n".join(lines) + "\n")
    _write_text(spath, svg)
    print(f"wrote {cpath}")
    print(f"wrote {spath}")
    return 0


# -- validate --------------------------------------------------------------


def cmd_validate(cfg: RunConfig) -> int:
    order = _validated_order(cfg, nystrom=True)
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as e:  # report, never crash the suite
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    def check_anchor():
        worst = 0.0
        for a in _ANCHOR_ALPHAS:
            table = PhaseTable(FractionalOrder(a))
            exact = np.sqrt(a) * np.exp(-1j * np.pi * (1.0 - a) / 4.0)
            worst = max(worst, abs(xc0(1j, table) - exact))
        return worst < 1e-8, f"max deviation {worst:.3e} (5 alphas)"

    def check_alpha1():
        one = FractionalOrder(1.0)
        sp_b = discretize_and_solve(KernelSpec(one, KernelKind.BRIDGE), build_grid(800))
        ns = np.arange(1, 21)
        worst_b = float(
            np.max(np.abs(sp_b.lam[:20] / (np.pi * ns) ** 2 - 1.0))
        )
        one_c = FractionalOrder(1.0, Variant.CAPUTO)
        sp_r = discretize_and_solve(KernelSpec(one_c, KernelKind.RL), build_grid(800))
        worst_r = float(
            np.max(np.abs(sp_r.rho[:20] / (np.pi * ns - np.pi / 2) - 1.0))
        )
        worst = max(worst_b, worst_r)
        return worst < 1e-4, f"max relative error {worst:.3e} (m=800, n<=20)"

    def check_caputo_endpoint():
        target = np.sqrt(2.0 * cfg.alpha)
        v = caputo_endpoint_value(cfg.alpha, 20, cfg.m)
        rel = abs(v - target) / target
        return rel < 0.01, f"|f_20(1)| = {v:.6f} vs sqrt(2a) = {target:.6f} ({rel:.2%})"

    @functools.cache  # orthonormality and mercer_trace share one solve
    def bridge_spectrum():
        return discretize_and_solve(
            KernelSpec(order, KernelKind.BRIDGE)
            if order.variant is Variant.RL_BRIDGE
            else KernelSpec(order, KernelKind.RL),
            build_grid(cfg.m),
        )

    def check_orthonormality():
        sp = bridge_spectrum()
        F = sp.vectors[:, :10]
        G = F.T @ (sp.grid.weights[:, None] * F)
        dev = float(np.max(np.abs(G - np.eye(G.shape[0]))))
        return dev <= 1e-10, f"max |<f_j,f_k> - delta| = {dev:.3e} (10 modes)"

    def check_kernel_sym_psd():
        pts = np.linspace(0.05, 0.95, 10)
        K = kernel_K(pts[:, None], pts[None, :], order.alpha)
        sym = float(np.max(np.abs(K - K.T)))
        xg, wg = gauss_legendre_01(50)
        Kg = kernel_K(xg[:, None], xg[None, :], order.alpha)
        sw = np.sqrt(wg)
        ev = np.linalg.eigvalsh(0.5 * (Kg + Kg.T) * sw[:, None] * sw[None, :])
        neg = float(ev.min())
        ok = sym < 1e-12 and neg >= -1e-10
        return ok, f"asymmetry {sym:.3e}, min Gram eigenvalue {neg:.3e}"

    def check_mercer():
        sp = bridge_spectrum()
        gap = mercer_trace_gap(sp)
        return gap <= 0.01, f"trace gap {gap:.3e} (m={cfg.m})"

    def check_determinism():
        small = replace(
            cfg, m=200, n_min=1, n_max=5, methods=("asym1", "asym2", "nystrom")
        )
        one = _build_spectrum(small, order)[0]
        two = _build_spectrum(small, order)[0]
        return one == two, f"two runs, {len(one)} bytes each, identical={one == two}"

    run("xc0_anchor", check_anchor)
    run("alpha1_degeneration", check_alpha1)
    run("caputo_endpoint", check_caputo_endpoint)
    run("orthonormality", check_orthonormality)
    run("kernel_symmetry_psd", check_kernel_sym_psd)
    run("mercer_trace", check_mercer)
    run("csv_determinism", check_determinism)
    ok = all(results)
    print(f"{'all checks passed' if ok else 'FAILURES present'} ({sum(results)}/{len(results)})")
    return 0 if ok else 1


# -- entry point -----------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--variant", choices=("rl-bridge", "caputo"))
    sp.add_argument("--n-min", dest="n_min", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--methods", type=str, help="comma-separated subset of "
                    + ",".join(_METHODS))
    sp.add_argument("--m", type=int, help="Nystrom grid size")
    sp.add_argument("--grid-points", dest="grid_points", type=int)
    sp.add_argument("--out", type=str, help="output directory")
    sp.add_argument("--config", type=str, help="flat key=value config file")
    sp.add_argument("--reference", choices=("nystrom", "integro"))


def main(argv=None) -> int:
    parser = _Parser(
        prog="fracspec",
        description="Fractional boundary value eigenproblem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spectrum", help="write spectrum.csv (+ integro.csv)")
    _add_common(sp)
    ep = sub.add_parser("eigenfunction", help="write profile CSV and error SVG")
    _add_common(ep)
    ep.add_argument("--n", type=int, default=10, help="mode index (1-based)")
    ep.add_argument(
        "--exact",
        action="store_true",
        help="add the reconstructed-eigenfunction column (slow)",
    )
    vp = sub.add_parser("validate", help="run the invariant suite")
    _add_common(vp)

    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # --help
            return int(e.code or 0)
        cfg = _config_from_args(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "eigenfunction":
            return cmd_eigenfunction(cfg, args.n, exact=args.exact)
        return cmd_validate(cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FracspecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
