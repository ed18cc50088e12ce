import os
import shutil
import subprocess
import sys

import pytest

import fracspec as fs
from reference import ALPHAS, alpha_for_seed, f_abs_err, lambda_relerr, load_reference
from workloads import (
    INTEGRO_HEADER,
    SPECTRUM_HEADER,
    WORKLOADS,
    Job,
    check_job,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spectrum_csv(ns, lam_integro):
    rows = [SPECTRUM_HEADER]
    for n in ns:
        cell = f"{lam_integro[n]:.12e}" if n in lam_integro else ""
        rows.append(f"{n},,1.0e+00,,{cell},,,{'unverified' if n < 3 else ''}")
    return ("\n".join(rows) + "\n").encode()


def _integro_csv(ns, residual=1e-13):
    rows = [INTEGRO_HEADER] + [f"{n},1.0e+00,1.0e+00,{residual:.12e},6" for n in ns]
    return ("\n".join(rows) + "\n").encode()


@pytest.fixture(scope="module")
def ref():
    return load_reference(0.75)


def test_seed_zero_is_the_readme_alpha_and_every_seed_has_a_reference():
    assert alpha_for_seed(0) == 0.75
    assert {alpha_for_seed(s) for s in range(20)} == set(ALPHAS)
    for a in ALPHAS:
        r = load_reference(a)
        assert r["alpha"] == a
        assert r["m_fine"] > 2 * 500  # finer than any workload grid
        assert all(e > 0 for e in r["lambda_err"])


def test_reference_is_the_limit_of_coarse_solves(ref):
    # a tiny m=64 solve is further from the reference than m=128
    order = fs.FractionalOrder(0.75)
    errs = []
    for m in (64, 128):
        sp = fs.discretize_and_solve(fs.KernelSpec(order, fs.KernelKind.BRIDGE), fs.build_grid(m))
        got = lambda_relerr(ref, {n: float(sp.lam[n - 1]) for n in range(1, 6)})
        errs.append(max(got.values()))
    assert errs[1] < errs[0] < 1e-2
    with pytest.raises(ValueError):
        f_abs_err(ref, [0.0] * 5)


def test_integro_failures_count_per_refinement(ref):
    wl = WORKLOADS["spectrum-integro"]
    lam = {n: ref["lambda"][n - 1] * (1 + 1e-3) for n in range(2, 5)}
    job = Job(
        rc=0,
        stdout="",
        stderr="integro refinement failed at n=1: BracketError: no sign change\n",
        files={"spectrum.csv": _spectrum_csv(range(1, 5), lam),
               "integro.csv": _integro_csv(range(2, 5))},
        seconds=1.0,
    )
    check = check_job(wl, job, None, ref)
    assert check.problems == []
    assert (check.attempted, check.failed) == (5, 1)
    assert check.accuracy["lambda_relerr_max"] == pytest.approx(1e-3)


def test_bad_residual_and_changed_bytes_fail_the_job(ref):
    wl = WORKLOADS["spectrum-integro"]
    lam = {n: ref["lambda"][n - 1] for n in range(1, 5)}
    files = {"spectrum.csv": _spectrum_csv(range(1, 5), lam), "integro.csv": _integro_csv(range(1, 5))}
    first = Job(0, "", "", files, 1.0)
    assert check_job(wl, first, None, ref).failed == 0
    bad = dict(files, **{"integro.csv": _integro_csv(range(1, 5), residual=2e-10)})
    check = check_job(wl, Job(0, "", "", bad, 1.0), first, ref)
    assert (check.attempted, check.failed) == (5, 1)
    assert any("condition_residual" in p for p in check.problems)
    assert any("differs from the first job" in p for p in check.problems)


def test_validate_tally_and_exit_code(ref):
    wl = WORKLOADS["validate"]
    report = (
        "PASS alpha1_degeneration: max relative error 5.138e-07 (m=800, n<=20)\n"
        "FAIL mercer_trace: trace gap 2.000e-02 (m=400)\n"
        "FAILURES present (6/7)\n"
    )
    check = check_job(wl, Job(1, report, "", {}, 1.0), None, ref)
    # 7 checks + the job itself; one check failed and so did the job
    assert (check.attempted, check.failed) == (8, 2)
    assert check.accuracy == {"alpha1_relerr": 5.138e-07, "mercer_gap": 2e-2}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
