"""Stored Nystrom reference for the benchmark's accuracy figures.

One JSON file per alpha under ``perfbench/reference/`` holds lambda_n for
n <= N_MAX and the eigenfunction f_F_MODE at F_POINTS equispaced points of
[0, 1], each computed on an M_FINE Gauss-Legendre grid, with the distance to
the M_COARSE solution as its self-convergence error bar.
"""

from __future__ import annotations

import json
import os

N_MAX = 30
F_MODE = 10
F_POINTS = 501
M_FINE = 1600
M_COARSE = 800

# Seed 0 is the README configuration; the others move alpha by at most
# 0.0025. The accuracy figures change by 4-7% per 0.01 of alpha near 0.75,
# and the mercer gap by a factor of 6 between alpha = 0.6 and 0.9, so a wider
# set would make them differ between seeds by more than their bound.
ALPHAS = (0.75, 0.7475, 0.74875, 0.75125, 0.7525)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def alpha_for_seed(seed: int) -> float:
    return ALPHAS[seed % len(ALPHAS)]


def reference_path(alpha: float) -> str:
    return os.path.join(REFERENCE_DIR, f"alpha_{alpha:.5f}.json")


def load_reference(alpha: float) -> dict:
    """The stored reference for ``alpha``; raises FileNotFoundError if absent."""
    with open(reference_path(alpha)) as fh:
        ref = json.load(fh)
    if ref["alpha"] != alpha or len(ref["lambda"]) < N_MAX or len(ref["f"]) != F_POINTS:
        raise ValueError(f"reference file for alpha={alpha} is malformed")
    return ref


def lambda_relerr(ref: dict, values: dict) -> dict:
    """Relative distance of each delivered lambda_n (n -> value) from the reference."""
    return {n: abs(v / ref["lambda"][n - 1] - 1.0) for n, v in values.items()}


def f_abs_err(ref: dict, values) -> float:
    """Largest absolute deviation of sampled f values from the reference f."""
    if len(values) != len(ref["f"]):
        raise ValueError(f"expected {len(ref['f'])} samples, got {len(values)}")
    return max(abs(v - r) for v, r in zip(values, ref["f"]))
