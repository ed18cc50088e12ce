"""The benchmark's workloads and the checks applied to every job's output.

A job is one call of ``fracspec.cli.main(argv)`` writing into an empty
directory. Its output is checked here and its accuracy figures are computed
against the stored reference (``reference.py``) or an exact oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from reference import f_abs_err, lambda_relerr

SPECTRUM_HEADER = (
    "n,lambda_asym1,lambda_asym2,lambda_nystrom,lambda_integro,"
    "relerr_asym1,relerr_asym2,regime"
)
INTEGRO_HEADER = "n,rho_refined,rho_asym2,condition_residual,iterations"
EIGENFUNCTION_HEADER = "x,f_nystrom,f_asym_nolayers,f_asym_layers,f_exact"
RESIDUAL_MAX = 1e-10
# Gross-error guard on the Nystrom route, which the stored reference comes
# from: its own error at these grids is about 1e-4 and the reference's
# error bar about 1e-5, so a deviation of 1e-3 means broken output.
NYSTROM_GUARD = 1e-3

_REFINE_FAILED = re.compile(r"^integro refinement failed at n=(\d+):", re.M)
_VALIDATE_TALLY = re.compile(r"\((\d+)/(\d+)\)\s*$")
_ALPHA1 = re.compile(r"^(?:PASS|FAIL) alpha1_degeneration: max relative error (\S+)", re.M)
_MERCER = re.compile(r"^(?:PASS|FAIL) mercer_trace: trace gap (\S+)", re.M)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    csv_files: tuple


# Sizes are chosen so that one job takes 1.5-4 s on 2 cores: a run then
# holds several warm jobs to take a median over.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum-nystrom",
            ("spectrum", "--n-max", "30", "--m", "500", "--methods", "asym1,asym2,nystrom"),
            ("spectrum.csv",),
        ),
        Workload(
            "spectrum-integro",
            ("spectrum", "--n-min", "1", "--n-max", "4", "--methods", "asym2,integro"),
            ("spectrum.csv", "integro.csv"),
        ),
        Workload(
            "eigenfunction-exact",
            ("eigenfunction", "--n", "10", "--m", "400", "--exact"),
            ("eigenfunction_n10.csv",),
        ),
        Workload("validate", ("validate", "--m", "300"), ()),
    )
}


def _flag(workload: Workload, flag: str) -> int:
    return int(workload.argv[workload.argv.index(flag) + 1])


def job_argv(workload: Workload, alpha: float, out_dir: str) -> list:
    return [*workload.argv, "--alpha", repr(alpha), "--out", out_dir]


@dataclass
class Job:
    rc: int | None
    stdout: str
    stderr: str
    files: dict  # file name -> bytes
    seconds: float
    steal_share: float = 0.0  # see run.STEAL_LIMIT


@dataclass
class JobCheck:
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)


def _csv(job: Job, name: str, header: str, problems: list):
    data = job.files.get(name)
    if data is None:
        problems.append(f"{name} not written")
        return None
    lines = data.decode().split("\n")
    if lines[0] != header:
        problems.append(f"{name} header {lines[0]!r} != {header!r}")
        return None
    if lines[-1] != "":
        problems.append(f"{name} does not end with a newline")
    return [ln.split(",") for ln in lines[1:] if ln]


def _lambda_column(rows, column: int) -> dict:
    return {int(r[0]): float(r[column]) for r in rows if r[column]}


def check_job(workload: Workload, job: Job, first: Job | None, ref: dict) -> JobCheck:
    """Check one job's output; ``first`` is the run's first job (None for itself)."""
    out = JobCheck()
    problems = out.problems
    if job.rc != 0:
        problems.append(f"exit code {job.rc}: {job.stderr.strip()[-300:]}")
    if first is not None:
        for name in workload.csv_files:
            if job.files.get(name) != first.files.get(name):
                problems.append(f"{name} differs from the first job's bytes")

    name = workload.name
    if name in ("spectrum-nystrom", "spectrum-integro"):
        rows = _csv(job, "spectrum.csv", SPECTRUM_HEADER, problems)
        if rows is not None and name == "spectrum-nystrom":
            err = lambda_relerr(ref, _lambda_column(rows, 3))
            if len(err) != _flag(workload, "--n-max"):
                problems.append(f"{len(err)} lambda_nystrom values for n=1..n_max")
            elif max(err.values()) > NYSTROM_GUARD:
                problems.append("lambda_nystrom deviates from the reference beyond 1e-3")
            if err:
                out.accuracy["lambda_relerr_max"] = max(err.values())
        if name == "spectrum-integro":
            ns = set(range(_flag(workload, "--n-min"), _flag(workload, "--n-max") + 1))
            out.attempted += len(ns)  # one refinement per n
            failed_n = {int(n) for n in _REFINE_FAILED.findall(job.stderr)}
            out.failed += len(failed_n)
            irows = _csv(job, "integro.csv", INTEGRO_HEADER, problems)
            if irows is not None:
                bad = [r[0] for r in irows if not float(r[3]) < RESIDUAL_MAX]
                if bad:
                    problems.append(f"condition_residual >= 1e-10 at n={','.join(bad)}")
                if {int(r[0]) for r in irows} | failed_n != ns:
                    problems.append("integro.csv rows and reported failures do not cover every n")
            err = lambda_relerr(ref, _lambda_column(rows, 4)) if rows is not None else {}
            if err:
                out.accuracy["lambda_relerr_max"] = max(err.values())
    elif name == "eigenfunction-exact":
        rows = _csv(job, "eigenfunction_n10.csv", EIGENFUNCTION_HEADER, problems)
        if rows is not None:
            if len(rows) != len(ref["f"]):
                problems.append(f"{len(rows)} profile rows, expected {len(ref['f'])}")
            else:
                out.accuracy["f_nystrom_err"] = f_abs_err(ref, [float(r[1]) for r in rows])
                out.accuracy["f_exact_err"] = f_abs_err(ref, [float(r[4]) for r in rows])
                if not out.accuracy["f_nystrom_err"] <= NYSTROM_GUARD:
                    problems.append("f_nystrom deviates from the reference beyond 1e-3")
    elif name == "validate":
        if first is not None and job.stdout != first.stdout:
            problems.append("validate report differs from the first job's")
        tally = _VALIDATE_TALLY.search(job.stdout)
        if tally is None:
            problems.append("validate printed no (passed/total) tally")
        else:
            passed, total = int(tally.group(1)), int(tally.group(2))
            out.attempted += total
            out.failed += total - passed
            if (passed, total) != (7, 7):
                problems.append(f"validate ended with ({passed}/{total}), expected (7/7)")
        for key, pattern in (("alpha1_relerr", _ALPHA1), ("mercer_gap", _MERCER)):
            found = pattern.search(job.stdout)
            if found is None:
                problems.append(f"no {key} figure in the validate report")
            else:
                out.accuracy[key] = float(found.group(1))
    if problems:
        out.failed += 1
    return out
