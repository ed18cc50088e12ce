"""A fresh interpreter's part of an end-to-end run: import fracspec, run jobs.

run.py starts it as ``python3 perfbench/child.py COUNT ARG...`` with
``./src`` first on PYTHONPATH; ARG... is the job's CLI argv, ``--out DIR``
included, and COUNT the number of jobs to run one after another. It prints
one JSON line: the monotonic time at which fracspec.cli finished importing,
where fracspec came from, the process's peak RSS, and each job's exit code,
output, written files, duration and steal share.
"""

import time

import fracspec.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from run import _peak_rss_mb, run_job  # noqa: E402


def main(argv) -> int:
    count, job_argv = int(argv[0]), argv[1:]
    out_dir = job_argv[job_argv.index("--out") + 1]
    jobs = []
    for _ in range(count):
        job = run_job(fracspec.cli, job_argv, out_dir)
        jobs.append({
            "rc": job.rc,
            "stdout": job.stdout,
            "stderr": job.stderr,
            "files": {name: data.decode() for name, data in job.files.items()},
            "seconds": job.seconds,
            "steal_share": job.steal_share,
        })
    print(json.dumps({
        "imported": IMPORTED,
        "origin": fracspec.cli.__file__,
        "rss_mb": _peak_rss_mb(),
        "jobs": jobs,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
