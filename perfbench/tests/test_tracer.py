import threading

import pytest

import fracspec
import fracspec.cli
import fracspec.nystrom
from layers import JobTrace, layer_metrics
from tracer import Instrumentation, Tracer, parallel_excess, self_times, union_length


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(1, 2), (0, 10)]) == 10.0


def test_self_time_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("bench.job", job=7):
        clock.now = 1
        with tr.span("a"):
            clock.now = 2
            with tr.span("a.inner"):
                clock.now = 3
            clock.now = 4
        clock.now = 5
        with tr.span("b"):
            clock.now = 6
        clock.now = 10
    spans = tr.job_spans(7)
    assert len(spans) == 4
    selfs = {s.name: self_times(spans)[s.id] for s in spans}
    assert selfs == {"bench.job": 6.0, "a": 2.0, "a.inner": 1.0, "b": 1.0}
    assert parallel_excess(spans) == 0.0
    assert sum(selfs.values()) == 10.0


def test_self_time_cross_thread_children():
    clock = FakeClock()
    tr = Tracer(clock)
    child_open = {}

    def child(parent, start, end, name):
        with tr.adopt(parent):
            clock.now = start
            with tr.span(name):
                child_open[name].wait()
                clock.now = end

    with tr.span("bench.job", job=1) as root:
        parent = tr.current()
        assert parent is root
        events = {"w1": threading.Event(), "w2": threading.Event()}
        child_open.update(events)
        t1 = threading.Thread(target=child, args=(root, 1.0, 5.0, "w1"))
        t1.start()
        events["w1"].set()
        t1.join(timeout=10)
        t2 = threading.Thread(target=child, args=(root, 2.0, 6.0, "w2"))
        t2.start()
        events["w2"].set()
        t2.join(timeout=10)
        assert not t1.is_alive() and not t2.is_alive()
        clock.now = 10.0
    spans = tr.job_spans(1)
    by_name = {s.name: s for s in spans}
    assert by_name["w1"].parent == by_name["w2"].parent == root.id
    assert by_name["w1"].thread != by_name["bench.job"].thread
    selfs = self_times(spans)
    # children cover [1, 6]: 5 s of the root's 10 s
    assert selfs[root.id] == 5.0
    assert parallel_excess(spans) == 3.0
    assert sum(selfs.values()) == 10.0 + 3.0
    trace = JobTrace(spans, [])
    assert trace.wall_s == 10.0
    assert trace.overlap("w1") == 1.0


def test_overlap_of_parallel_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("bench.job", job=0) as root:
        pass
    for start, end in ((0.0, 4.0), (1.0, 5.0)):
        clock.now = start
        with tr.adopt(root):
            with tr.span("integro.refine_rho"):
                clock.now = end
    trace = JobTrace(tr.job_spans(0), [])
    assert trace.overlap("integro.refine_rho") == pytest.approx(8.0 / 5.0)


def test_failed_span_is_marked():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("x", job=0):
            raise ValueError("boom")
    assert tr.spans[0].failed


def _tiny_spectrum(tmp_path, tracer=None):
    argv = ["spectrum", "--alpha", "0.75", "--n-min", "3", "--n-max", "4", "--m", "64",
            "--methods", "asym2,nystrom,integro", "--out", str(tmp_path)]
    if tracer is None:
        return fracspec.cli.main(argv)
    with tracer.span("bench.job", job=0):
        return fracspec.cli.main(argv)


def test_instrumentation_traces_cli_job_and_restores(tmp_path):
    original = fracspec.nystrom.discretize_and_solve
    tr = Tracer()
    with Instrumentation(tr) as instr:
        assert fracspec.cli.discretize_and_solve is not original
        assert fracspec.discretize_and_solve is fracspec.cli.discretize_and_solve
        assert _tiny_spectrum(tmp_path, tr) == 0
    assert fracspec.cli.discretize_and_solve is original
    assert fracspec.nystrom.discretize_and_solve is original

    trace = JobTrace(tr.job_spans(0), tr.job_waits(0))
    values, absent = layer_metrics(trace, instr.installed)
    assert absent == []
    assert values["nystrom.solve.calls"] == 1
    assert values["nystrom.solve.alloc_peak_mb"] > 0
    assert values["integro.refine.calls"] == 2
    assert values["integro.refine.failed"] == 0
    # each secular call runs solve_pqr once and analytic_extend at +i and -i
    assert values["integro.solve_pqr.calls"] == values["integro.secular.calls"]
    assert values["integro.extend.calls"] == 2 * values["integro.secular.calls"]
    assert values["phase.g0.calls"] == 3 * values["integro.secular.calls"]
    assert values["phase.pv_useful_ratio"] == pytest.approx(1 / 6)
    # refinements ran on pool threads under the CLI's span
    refine = trace.by_name["integro.refine_rho"]
    main_span = trace.by_name["cli.main"][0]
    assert all(s.thread != main_span.thread for s in refine)
    assert len(trace.waits) == 2
    gap = sum(trace.self_s.values()) - (trace.wall_s + trace.excess_s)
    assert abs(gap) < 1e-9


def test_missing_symbol_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(fracspec.cli, "ThreadPoolExecutor")
    monkeypatch.delattr(fracspec.nystrom, "kernel_typo")
    tr = Tracer()
    with Instrumentation(tr) as instr:
        pass
    assert "cli.ThreadPoolExecutor" not in instr.installed
    values, absent = layer_metrics(JobTrace([], []), instr.installed)
    assert "cli.pool.wait_s" in absent
    assert values["cli.pool.wait_s"] == 0.0
    assert "nystrom.solve.calls" not in absent


def test_nothing_installed_marks_every_metric_absent():
    values, absent = layer_metrics(JobTrace([], []), set())
    assert set(absent) == set(values)
