"""Benchmark of the fracspec CLI: one workload per run, checked and timed.

Run from the repository root (the directory holding ``src/fracspec``):

    python3 perfbench/run.py --workload spectrum-nystrom --seed 0 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``; ``--seed`` picks alpha from
``reference.ALPHAS`` (seed 0 is alpha = 0.75). Load is closed-loop with one
client: one job at a time calls ``fracspec.cli.main(argv)`` into an empty
directory, until ``--seconds`` have passed. Every job's output is checked.
The program's own threads (the CLI's refinement pool and BLAS) are the only
concurrency.

``--trace 0`` prints the end-to-end metrics. The jobs run in fresh
interpreters (``child.py``), JOBS_PER_CHILD each. ``setup_s`` is the median
of their times from process start until ``fracspec`` and ``fracspec.cli``
are imported, ``first_job_s`` the median of their first jobs, ``job_s`` the
median of their later jobs, with warm caches, and ``peak_rss_mb`` the median
of their peak RSS. Samples taken under host steal (see ``STEAL_LIMIT``) are
set aside.

``--trace 1`` prints the per-layer metrics of ``layers.py`` instead. Its
jobs run in this process. The first job and every second job after it run
with the outside-in tracer of ``tracer.py`` installed; the jobs between run
plain, and the difference of the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance and the per-job details.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from layers import METRICS, ROOT, JobTrace, layer_metrics
from reference import alpha_for_seed, load_reference
from tracer import Instrumentation, Tracer
from workloads import WORKLOADS, Job, check_job, job_argv

# End-to-end runs start fresh interpreters (child.py) one after another,
# at least MIN_CHILDREN of them, each running JOBS_PER_CHILD jobs: the first
# is cold, the rest warm. Job times differ more between processes than
# within one, so the samples come from many short processes.
MIN_CHILDREN = 3
JOBS_PER_CHILD = 2
# A sample is set aside when the hypervisor took more than this share of the
# machine's CPU time while it ran (the steal column of /proc/stat): it then
# measures the host's other tenants, not the program. A run whose processes
# were all disturbed goes on, up to MAX_STRETCH times --seconds, for clean ones.
STEAL_LIMIT = 0.05
MAX_STRETCH = 2.0
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _inside(path: str, directory: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(directory) + os.sep)


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def steal_seconds() -> float:
    """CPU time taken from this machine by its hypervisor so far; 0 if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _steal_share(stolen: float, wall: float) -> float:
    return stolen / (wall * (os.cpu_count() or 1)) if wall > 0 else 0.0


@dataclass
class Child:
    """One fresh interpreter's part of a run."""

    setup_s: float  # from spawning it until fracspec.cli was imported
    rss_mb: float
    steal_share: float
    jobs: list


def child_run(root: str, src: str, argv: list, out_dir: str, count: int) -> Child:
    """Run ``count`` jobs in a fresh interpreter (``child.py``)."""
    stolen = steal_seconds()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(count), *argv],
        cwd=root, env=_env(src), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed:\n{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().split("\n")[-1])
    if not _inside(rec["origin"], src):
        raise RuntimeError(f"fracspec was imported from {rec['origin']}, not from {src}")
    jobs = [
        Job(j["rc"], j["stdout"], j["stderr"],
            {name: text.encode() for name, text in j["files"].items()},
            j["seconds"], j["steal_share"])
        for j in rec["jobs"]
    ]
    share = _steal_share(steal_seconds() - stolen, time.monotonic() - start)
    return Child(rec["imported"] - start, rec["rss_mb"], share, jobs)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: str, src: str, workload: str, seed: int, alpha: float) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    digest = hashlib.sha256()
    loc = 0
    pkg = os.path.join(src, "fracspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            loc += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "alpha": alpha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "source_loc": loc,
        "load": "closed loop, 1 client, jobs back to back",
    }


def run_job(cli, argv, out_dir: str, tracer: Tracer | None = None, job_id: int = 0) -> Job:
    """One CLI call into an emptied ``out_dir``; a raised exception fails the job."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    out, err = io.StringIO(), io.StringIO()
    rc = None
    stolen = steal_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(ROOT, job=job_id):
                    rc = cli.main(argv)
        except Exception:  # the job failed; the benchmark reports it and goes on
            traceback.print_exc()
        seconds = time.perf_counter() - start
    share = _steal_share(steal_seconds() - stolen, seconds)
    return Job(rc, out.getvalue(), err.getvalue(), _read_files(out_dir), seconds, share)


def _read_files(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """Jobs of one run with their checks, accumulated in order."""

    def __init__(self, cli, workload, alpha, ref, out_dir):
        self.cli = cli
        self.workload = workload
        self.argv = job_argv(workload, alpha, out_dir)
        self.ref = ref
        self.out_dir = out_dir
        self.jobs = []
        self.checks = []

    def add(self, job: Job) -> Job:
        first = self.jobs[0] if self.jobs else None
        self.checks.append(check_job(self.workload, job, first, self.ref))
        self.jobs.append(job)
        return job

    def job(self, tracer=None) -> Job:
        return self.add(run_job(self.cli, self.argv, self.out_dir, tracer, len(self.jobs)))

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    def accuracy(self) -> dict:
        figures = {}
        for c in self.checks:
            for key, value in c.accuracy.items():
                figures[key] = max(figures.get(key, value), value)
        return figures


def _phase(make, min_items: int, budget: float) -> list:
    """Items from ``make()`` for ``budget`` seconds and at least ``min_items``.

    It goes on, up to MAX_STRETCH * budget, while fewer than ``min_items``
    of them ran clear of steal.
    """
    start = time.perf_counter()
    items = []
    while True:
        took = time.perf_counter() - start
        clean = sum(i.steal_share <= STEAL_LIMIT for i in items)
        if len(items) >= min_items and took >= budget and (
            clean >= min_items or took >= MAX_STRETCH * budget
        ):
            return items
        items.append(make())


def _median_clean(items, value) -> tuple:
    """(median of value(item) over items clear of steal, or over all; samples used)."""
    kept = [i for i in items if i.steal_share <= STEAL_LIMIT] or items
    samples = [value(i) for i in kept]
    return statistics.median(samples), samples


def end_to_end(run: Run, seconds: float, root: str, src: str):
    """Fresh interpreters, one after another, until ``seconds`` have passed."""

    def make():
        child = child_run(root, src, run.argv, run.out_dir, JOBS_PER_CHILD)
        for job in child.jobs:
            run.add(job)
        return child

    children = _phase(make, MIN_CHILDREN, seconds)
    setup_s, setup = _median_clean(children, lambda c: c.setup_s)
    first_s, first = _median_clean([c.jobs[0] for c in children], lambda j: j.seconds)
    warm = [j for c in children for j in c.jobs[1:]]
    job_s, warm_samples = _median_clean(warm, lambda j: j.seconds)
    figures = run.accuracy()
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "first_job_s": _metric(first_s, "s"),
        "job_s": _metric(job_s, "s"),
        "peak_rss_mb": _metric(statistics.median(c.rss_mb for c in children), "MB"),
        # no figure means no job produced checkable output: report total error
        "accuracy_err": _metric(max(figures.values(), default=1.0), "1"),
    }
    samples = {"setup_s": setup, "first_job_s": first, "job_s": warm_samples,
               "peak_rss_mb": [c.rss_mb for c in children]}
    return metrics, figures, samples


def per_layer(run: Run, seconds: float):
    tracer = Tracer()
    instr = Instrumentation(tracer)
    traced, plain = [], []

    def traced_job():
        with instr:
            run.job(tracer)
        traced.append(len(run.jobs) - 1)

    deadline = time.perf_counter() + seconds
    traced_job()  # cold: fills the quadrature caches
    while len(plain) < 1 or len(traced) < 2 or time.perf_counter() < deadline:
        if len(plain) < len(traced):
            run.job()
            plain.append(len(run.jobs) - 1)
        else:
            traced_job()

    per_job = []
    absent = []
    for k in traced:
        trace = JobTrace(tracer.job_spans(k), tracer.job_waits(k))
        values, absent = layer_metrics(trace, instr.installed)
        per_job.append(values)
        gap = sum(trace.self_s.values()) - (trace.wall_s + trace.excess_s)
        if abs(gap) > 1e-6:
            run.checks[k].problems.append(f"span self times miss the job wall time by {gap:.3e} s")
            run.checks[k].failed += 1
    units = {m.name: m.unit for m in METRICS}
    metrics = {}
    for m in METRICS:
        if m.name.startswith("quadrature."):
            value = per_job[0][m.name]  # first-use cost belongs to the cold job
        else:
            value = statistics.median(v[m.name] for v in per_job[1:])
        metrics[m.name] = _metric(value, m.unit)
    traced_s = statistics.median(run.jobs[k].seconds for k in traced[1:])
    plain_s = statistics.median(run.jobs[k].seconds for k in plain)
    metrics["cli.bytes_written"] = _metric(
        float(sum(len(b) for b in run.jobs[0].files.values())), "B"
    )
    metrics["trace.job_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    # counts are deterministic: any that differ between traced jobs are listed
    counts_differing = sorted(
        name for name, unit in units.items()
        if unit == "count" and any(v[name] != per_job[0][name] for v in per_job)
    )
    details = {
        "traced_jobs": len(traced),
        "plain_jobs": len(plain),
        "absent": absent,
        "counts_differing": counts_differing,
        "spans_of_last_job": trace.summary(),
        "installed_spans": len(instr.installed),
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fracspec", "__init__.py")):
        print(f"perfbench: no fracspec sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    alpha = alpha_for_seed(args.seed)
    try:
        ref = load_reference(alpha)
    except (OSError, ValueError) as e:
        print(f"perfbench: no usable reference for alpha={alpha}: {e}", file=sys.stderr)
        return 2

    cli = None
    if args.trace:  # traced jobs run in this process
        sys.path.insert(0, src)
        import fracspec.cli as cli

        if not _inside(cli.__file__, src):
            print(f"perfbench: fracspec was imported from {cli.__file__}", file=sys.stderr)
            return 2

    out_dir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")
    run = Run(cli, workload, alpha, ref, out_dir)
    try:
        if args.trace:
            metrics, details = per_layer(run, args.seconds)
            figures, samples = run.accuracy(), {}
        else:
            metrics, figures, samples = end_to_end(run, args.seconds, root, src)
            details = {}
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, OUT_DIR))

    fail_ratio = run.failed / run.attempted
    print(f"{args.workload} seed={args.seed} alpha={alpha} trace={args.trace}:"
          f" {len(run.jobs)} jobs, {run.attempted} operations, {run.failed} failed")
    for name, m in metrics.items():
        count = len(samples.get(name, ()))
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s} {f'n={count}' if count else ''}")
    for name, value in figures.items():
        print(f"  {name:34s} {value:<14.6g} 1")
    print(f"  {'fail_ratio':34s} {fail_ratio:<14.6g} 1      base {run.attempted} operations")
    problems = [(k, p) for k, c in enumerate(run.checks) for p in c.problems]
    for k, p in problems:
        print(f"  job {k}: {p}")
    details.update(
        {
            "samples": samples,
            "accuracy": figures,
            "fail_ratio": fail_ratio,
            "jobs_s": [j.seconds for j in run.jobs],
            "steal_shares": [j.steal_share for j in run.jobs],
            "problems": [f"job {k}: {p}" for k, p in problems],
            "reference": {"m_fine": ref["m_fine"], "m_coarse": ref["m_coarse"]},
        }
    )
    prov = provenance(root, src, args.workload, args.seed, alpha)
    print(json.dumps({"provenance": prov, "details": details}))
    result = {
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
