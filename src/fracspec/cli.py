"""Command line harness around the solver modules.

Subcommands: spectrum (eigenvalue tables), eigenfunction (profiles + error
plot), validate (invariant suite). Each takes the flags of its _COMMANDS
entry, built from the one _FLAGS table, and main passes them to its cmd_*
function as keyword arguments. A --config file of key = value lines, each
key one of the command's own flags, stands for the flags --key=value placed
before the command line's own, so argparse checks file values exactly as
flags, and the command line wins.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure or an array too large to allocate. Output files, all formatted
here, are deterministic for a fixed configuration: floats %.12e,
comma-separated, LF endings. The per-n root refinements of one spectrum run
share one PhaseTable and one g0 sample (refine_roots). Each command builds
its run objects from the library's types inside _usage, which makes a
type's refusal a usage error, then creates its output directory, computes
with those objects, and writes its files once, at the end, each through a
temporary file that then replaces the target. _reference returns the run's
reference solve: the solver bound to the variant's kernel and to the grid.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .asymptotics import (
    Order,
    eigenfunction_asymptotic,
    lambda_asymptotic,
    lambda_two_term,
    rho_asymptotic,
)
from .errors import FracspecError, _check_count
from .integro import PhaseTable, reconstruct_f_exact, refine_rho, refine_roots, _check_refinable
from .nystrom import (
    KernelKind,
    KernelSpec,
    NystromGrid,
    build_grid,
    discretize_and_solve,
    eigenfunction_at,
    kernel_K,
    mercer_trace_gap,
    _mercer_head,
)
from .phase import FractionalOrder, Variant
from .quadrature import gauss_legendre_01
from .svg import svg_line_chart

__all__ = ["UsageError", "main"]

_METHODS = ("asym1", "asym2", "nystrom", "integro")
# From this mode on the asymptotic starting guesses are trusted: below it a
# spectrum row reads regime=unverified and a failed refinement exits 0.
_TRUSTED_N = 3
_ANCHOR_ALPHAS = (0.55, 0.65, 0.75, 0.85, 0.95)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own rejections as UsageError, like every other."""

    def error(self, message):
        raise UsageError(message)


def _method_list(text: str) -> tuple:
    methods = tuple(p.strip() for p in text.split(",") if p.strip())
    if not methods or not set(methods) <= set(_METHODS):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list from {_METHODS}")
    return methods


# Each flag's add_argument keywords; a --config key is a flag of its command.
_FLAGS = {
    "alpha": dict(type=float, default=0.75),
    "variant": dict(choices=("rl-bridge", "caputo"), default="rl-bridge"),
    "n-min": dict(type=int, default=1),
    "n-max": dict(type=int, default=30),
    "methods": dict(type=_method_list, default=("asym1", "asym2", "nystrom"),
                    help="comma-separated subset of " + ",".join(_METHODS)),
    "m": dict(type=int, default=2000, help="Nystrom grid size"),
    "grid-points": dict(type=int, default=501),
    "out": dict(default=".", help="output directory"),
    "reference": dict(choices=("nystrom", "integro"), default="nystrom"),
}
# Each command's help and flags (eigenfunction adds --n and --exact). validate
# writes no file, but takes --out: perfbench/workloads.py passes it to every job.
_COMMANDS = {
    "spectrum": ("write spectrum.csv (+ integro.csv)", (
        "alpha", "variant", "n-min", "n-max", "methods", "m", "out", "reference")),
    "eigenfunction": ("write profile CSV and error SVG",
                      ("alpha", "m", "grid-points", "out")),
    "validate": ("run the invariant suite", ("alpha", "variant", "m", "out")),
}


def _config_flags(path: str, command: str) -> list:
    """One --key=value flag per key = value line of the config file at path.

    '#' starts a comment. A key is one of the command's _COMMANDS flags, with
    '-' or '_', or output_dir for out; in the '=' form a value may start with '-'.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as e:  # ValueError: undecodable, NUL in path
        raise UsageError(f"cannot read config file {path}: {e}") from e
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        key = key.replace("_", "-")
        key = "out" if key == "output-dir" else key
        if not eq or key not in _COMMANDS[command][1]:
            raise UsageError(f"{path}:{lineno}: expected <flag> = value, got {line!r}")
        flags.append(f"--{key}={value}")
    return flags


@contextlib.contextmanager
def _usage():
    """Report a library type's refusal of a run's input as a UsageError."""
    try:
        yield
    except FracspecError as e:
        raise UsageError(str(e)) from e


def _check_modes(n: int, m: int, what: str) -> None:
    """An m-point grid has m modes: reading mode n, for what, needs n <= m."""
    if n > m:
        raise UsageError(f"need m >= {n} for {what}: an m-point grid has m modes, got m={m}")


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


def _write_outputs(out_dir: str, files=()) -> None:
    """Create out_dir and write the (name, text) files under it; any failure
    there is a usage error. Each command calls it with no files before any
    solve, so a bad --out fails at once, and with its files at the end."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files:
            path = os.path.join(out_dir, name)
            _write_text(path, text)
            print(f"wrote {path}")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write output to {out_dir}: {e}") from e


def _fmt(v) -> str:
    return "" if v is None else f"{v:.12e}"


def _reference(order: FractionalOrder, m: int):
    """The CLI's one reference solve, called as ref(n_modes=..., vectors=...):
    discretize_and_solve on the m-point grid, with the bridge kernel for
    rl-bridge and the RL kernel for caputo."""
    kind = KernelKind.BRIDGE if order.variant is Variant.RL_BRIDGE else KernelKind.RL
    return functools.partial(discretize_and_solve, KernelSpec(order, kind), build_grid(m))


def _integro_csv(roots) -> str:
    """integro.csv; rho_asym2 is the two-term asymptote at each root's order."""
    lines = ["n,rho_refined,rho_asym2,condition_residual,iterations"]
    for rt in roots:
        r2 = rho_asymptotic(rt.n, rt.order, Order.SECOND)
        lines.append(f"{rt.n},{_fmt(rt.rho)},{_fmt(r2)},"
                     f"{_fmt(rt.condition_residual)},{rt.iterations}")
    return "\n".join(lines) + "\n"


# -- spectrum --------------------------------------------------------------


def _build_spectrum(order: FractionalOrder, ns: range, methods: tuple, reference: str,
                    nystrom_ref=None, table: PhaseTable | None = None):
    """Compute everything cmd_spectrum serializes, for the mode indices ns,
    from the run's _reference solve and PhaseTable (None: method not run).

    Returns (spectrum_csv, integro_csv or None, failures) where failures is
    a list of (n, message) for integro refinements that raised.
    """
    lam_ny = {}
    if nystrom_ref is not None:
        lam = nystrom_ref(n_modes=ns[-1], vectors=False).lam
        lam_ny = {n: float(lam[n - 1]) for n in ns}

    refined, failures = refine_roots(ns, table) if table is not None else ([], [])
    lam_int = {rt.n: rt.rho ** (2.0 * order.alpha) for rt in refined}
    lam_ref = lam_ny if reference == "nystrom" else lam_int
    asym2 = lambda_two_term if order.variant is Variant.RL_BRIDGE else lambda_asymptotic

    lines = [
        "n,lambda_asym1,lambda_asym2,lambda_nystrom,lambda_integro,"
        "relerr_asym1,relerr_asym2,regime"
    ]
    for n in ns:
        l1 = lambda_asymptotic(n, order, Order.FIRST) if "asym1" in methods else None
        l2 = asym2(n, order) if "asym2" in methods else None
        ref = lam_ref.get(n)
        r1 = ref / l1 - 1.0 if ref is not None and l1 is not None else None
        r2 = ref / l2 - 1.0 if ref is not None and l2 is not None else None
        regime = "unverified" if n < _TRUSTED_N else ""
        lines.append(
            f"{n},{_fmt(l1)},{_fmt(l2)},{_fmt(lam_ny.get(n))},"
            f"{_fmt(lam_int.get(n))},{_fmt(r1)},{_fmt(r2)},{regime}"
        )
    spectrum_csv = "\n".join(lines) + "\n"

    integro_csv = _integro_csv(refined) if table is not None else None
    return spectrum_csv, integro_csv, failures


def cmd_spectrum(alpha, variant, n_min, n_max, methods, m, out, reference) -> int:
    if n_min < 1 or n_max < n_min:
        raise UsageError("need 1 <= n_min <= n_max")
    with _usage():
        order = FractionalOrder(alpha, Variant(variant))
        NystromGrid(m)  # --m 1 is refused even when no solve reads the grid
        nystrom_ref = _reference(order, m) if "nystrom" in methods else None
        table = PhaseTable(order) if "integro" in methods else None
        if table is not None:
            _check_refinable(table)
    if nystrom_ref is not None:
        _check_modes(n_max, m, f"n_max={n_max}")
    _write_outputs(out)  # creates out: a bad --out fails before any solve
    spectrum_csv, integro_csv, failures = _build_spectrum(
        order, range(n_min, n_max + 1), methods, reference, nystrom_ref, table
    )
    files = [("spectrum.csv", spectrum_csv)]
    if integro_csv is not None:
        files.append(("integro.csv", integro_csv))
    _write_outputs(out, files)
    for n, msg in failures:
        print(f"integro refinement failed at n={n}: {msg}", file=sys.stderr)
    return 3 if any(n >= _TRUSTED_N for n, _ in failures) else 0


# -- eigenfunction ---------------------------------------------------------


def cmd_eigenfunction(alpha, m, grid_points, out, n, exact) -> int:
    if grid_points < 11:
        raise UsageError("grid_points must be at least 11")
    with _usage():
        _check_count(n, "n")
        order = FractionalOrder(alpha)
        nystrom_ref = _reference(order, m)
        table = PhaseTable(order)
        # each approximation's column: its values on x and the colour of
        # its error curve against f_nystrom
        approx = {
            "f_asym_nolayers": (lambda x: eigenfunction_asymptotic(n, x, order), "#d62728"),
            "f_asym_layers": (lambda x: eigenfunction_asymptotic(n, x, order, table), "#1f77b4"),
        }
        if exact:
            _check_refinable(table)
            approx["f_exact"] = (
                lambda x: reconstruct_f_exact(x, refine_rho(n, table).value, table), "#2ca02c")
    _check_modes(n, m, f"n={n}")
    _write_outputs(out)  # creates out: a bad --out fails before any solve

    x = np.linspace(0.0, 1.0, grid_points)
    f_ny = eigenfunction_at(nystrom_ref(n_modes=n), n, x)
    cols = {"x": x, "f_nystrom": f_ny} | {name: f(x) for name, (f, _) in approx.items()}
    lines = [",".join(cols)]
    lines += [",".join(_fmt(c[i]) for c in cols.values()) for i in range(x.size)]
    series = [(f"{name} - f_nystrom", x, cols[name] - f_ny, colour)
              for name, (_, colour) in approx.items()]
    svg = svg_line_chart(
        series,
        title=f"eigenfunction error, n={n}, alpha={order.alpha:g}",
        xlabel="x",
        ylabel="error",
    )

    _write_outputs(out, [
        (f"eigenfunction_n{n}.csv", "\n".join(lines) + "\n"),
        (f"eigenfunction_n{n}.svg", svg),
    ])
    return 0


# -- validate --------------------------------------------------------------


def cmd_validate(alpha, variant, m, out) -> int:
    with _usage():
        order = FractionalOrder(alpha, Variant(variant))
        nystrom_ref = _reference(order, m)
    _check_modes(20, m, "caputo_endpoint, which reads f_20")
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
            worst = max(worst, abs(table.xc_i - exact))
        return worst < 1e-8, f"max deviation {worst:.3e} (5 alphas)"

    def check_alpha1():
        ns = np.arange(1, 21)
        lam_b = _reference(FractionalOrder(1.0), 800)(n_modes=20, vectors=False).lam
        worst_b = float(np.max(np.abs(lam_b / (np.pi * ns) ** 2 - 1.0)))
        caputo = FractionalOrder(1.0, Variant.CAPUTO)
        rho_r = _reference(caputo, 800)(n_modes=20, vectors=False).rho
        worst_r = float(np.max(np.abs(rho_r / (np.pi * ns - np.pi / 2) - 1.0)))
        worst = max(worst_b, worst_r)
        return worst < 1e-4, f"max relative error {worst:.3e} (m=800, n<=20)"

    def check_caputo_endpoint():
        target = np.sqrt(2.0 * alpha)
        sp = _reference(FractionalOrder(alpha, Variant.CAPUTO), m)(n_modes=20)
        v = abs(eigenfunction_at(sp, 20, 1.0))
        rel = abs(v - target) / target
        return rel < 0.01, f"|f_20(1)| = {v:.6f} vs sqrt(2a) = {target:.6f} ({rel:.2%})"

    @functools.cache  # orthonormality and mercer_trace share one solve
    def reference_spectrum():
        # orthonormality reads 10 vectors, mercer its head's values
        return nystrom_ref(n_modes=max(10, _mercer_head(m)))

    def check_orthonormality():
        sp = reference_spectrum()
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
        ev = np.linalg.eigvalsh(Kg * sw[:, None] * sw[None, :])
        neg = float(ev.min())
        ok = sym < 1e-12 and neg >= -1e-10
        return ok, f"asymmetry {sym:.3e}, min Gram eigenvalue {neg:.3e}"

    def check_mercer():
        gap = mercer_trace_gap(reference_spectrum())
        return gap <= 1e-3, f"trace gap {gap:.3e} (m={m})"

    def check_determinism():
        small = (order, range(1, 6), ("asym1", "asym2", "nystrom"), "nystrom",
                 _reference(order, 200))
        one = _build_spectrum(*small)[0]
        two = _build_spectrum(*small)[0]
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


def main(argv=None) -> int:
    parser = _Parser(
        prog="fracspec",
        description="Fractional boundary value eigenproblem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(f"--{name}", **_FLAGS[name])
        p.add_argument("--config", help="flat key = value file of the flags above")
    ep = sub.choices["eigenfunction"]
    ep.add_argument("--n", type=int, default=10, help="mode index (1-based)")
    ep.add_argument("--exact", action="store_true",
                    help="add the reconstructed-eigenfunction column (slow)")

    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:  # the file's flags go first, so the command line wins
                at = argv.index(args.command) + 1
                argv[at:at] = _config_flags(args.config, args.command)
                args = parser.parse_args(argv)
        except SystemExit as e:  # --help
            return int(e.code or 0)
        kwargs = vars(args)
        command, _ = kwargs.pop("command"), kwargs.pop("config")
        cmd = {"spectrum": cmd_spectrum, "eigenfunction": cmd_eigenfunction,
               "validate": cmd_validate}[command]
        return cmd(**kwargs)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (FracspecError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
