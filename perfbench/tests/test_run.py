import pytest

import run
from workloads import Job


def _job(seconds, steal):
    return Job(0, "", "", {}, seconds, steal_share=steal)


def test_median_sets_aside_samples_taken_under_steal():
    jobs = [_job(1.0, 0.0), _job(9.0, 0.5), _job(1.2, 0.01)]
    assert run._median_clean(jobs, lambda j: j.seconds) == (pytest.approx(1.1), [1.0, 1.2])
    stolen = [_job(2.0, 0.5), _job(4.0, 0.5)]
    assert run._median_clean(stolen, lambda j: j.seconds)[0] == 3.0


@pytest.mark.parametrize(
    "shares, kept",
    [
        ([0.0, 0.0, 0.9], 2),  # clean: stops at the budget
        ([0.9, 0.0, 0.0, 0.9], 3),  # goes on until two clean ones
        ([0.9, 0.9, 0.9, 0.9, 0.0], 4),  # gives up at MAX_STRETCH * budget
    ],
)
def test_phase_stretches_for_clean_jobs(monkeypatch, shares, kept):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "MAX_STRETCH", 2.0)
    it = iter(shares)

    def make():
        clock[0] += 1.0
        return _job(1.0, next(it))

    jobs = run._phase(make, min_items=2, budget=2.0)
    assert [j.steal_share for j in jobs] == shares[:kept]
