"""Regenerate the stored Nystrom reference used by the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [alpha ...]

It first runs the same pipeline at alpha = 1, where lambda_n = (pi n)^2 and
f_n = sqrt(2) sin(pi n x) are exact, and stops unless the error bars cover
the true errors there. Then it writes one file per alpha (default: every
alpha the benchmark's seeds use). Each alpha takes about 25 s and 350 MB.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import fracspec as fs
from reference import (
    ALPHAS,
    F_MODE,
    F_POINTS,
    M_COARSE,
    M_FINE,
    N_MAX,
    reference_path,
)


def _solve(alpha: float, m: int):
    order = fs.FractionalOrder(alpha)
    spectrum = fs.discretize_and_solve(
        fs.KernelSpec(order, fs.KernelKind.BRIDGE), fs.build_grid(m)
    )
    x = np.linspace(0.0, 1.0, F_POINTS)
    return spectrum.lam[:N_MAX].copy(), fs.eigenfunction_at(spectrum, F_MODE, x)


def compute(alpha: float) -> dict:
    lam, f = _solve(alpha, M_FINE)
    lam_c, f_c = _solve(alpha, M_COARSE)
    return {
        "alpha": alpha,
        "m_fine": M_FINE,
        "m_coarse": M_COARSE,
        "n": list(range(1, N_MAX + 1)),
        "lambda": lam.tolist(),
        "lambda_err": np.abs(lam - lam_c).tolist(),
        "f_mode": F_MODE,
        "f_points": F_POINTS,
        "f": f.tolist(),
        "f_err": np.abs(f - f_c).tolist(),
    }


def self_check() -> None:
    """Fail unless the alpha = 1 error bars cover the distance to the closed forms."""
    ref = compute(1.0)
    exact = (np.pi * np.arange(1, N_MAX + 1)) ** 2
    lam_dev = np.abs(np.array(ref["lambda"]) - exact)
    x = np.linspace(0.0, 1.0, F_POINTS)
    f_dev = np.abs(np.array(ref["f"]) - np.sqrt(2.0) * np.sin(F_MODE * np.pi * x))
    lam_ok = bool(np.all(lam_dev <= np.array(ref["lambda_err"])))
    f_ok = float(f_dev.max()) <= float(np.max(ref["f_err"]))
    print(
        f"alpha=1 check: max lambda deviation {float((lam_dev / exact).max()):.3e} rel,"
        f" max f deviation {float(f_dev.max()):.3e};"
        f" covered by error bars: lambda={lam_ok} f={f_ok}"
    )
    if not (lam_ok and f_ok):
        raise SystemExit("reference pipeline fails its alpha = 1 self-check")


def main(argv: list[str]) -> int:
    alphas = [float(a) for a in argv] or list(ALPHAS)
    self_check()
    for alpha in alphas:
        ref = compute(alpha)
        path = reference_path(alpha)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ref, fh)
            fh.write("\n")
        os.replace(tmp, path)
        print(
            f"wrote {path}: max lambda error bar"
            f" {max(e / l for e, l in zip(ref['lambda_err'], ref['lambda'])):.3e} rel,"
            f" max f error bar {max(ref['f_err']):.3e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
