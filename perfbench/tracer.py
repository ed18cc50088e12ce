"""Outside-in span tracing of the fracspec package.

The benchmark never edits the program to trace it. ``Instrumentation``
replaces each public function of the fracspec modules by a wrapper that
records a span, in every module namespace that holds a reference to it, so
calls between modules are seen as well as calls from the CLI. It also
wraps ``PhaseTable.__init__`` and swaps the CLI's ``ThreadPoolExecutor`` for
a subclass that records how long each task waited and carries the
submitting span across to the worker thread. ``uninstall`` restores every
original.

Spans are kept in memory; ``Tracer.spans`` is read once the traced jobs are
done. A span's self time is its duration minus the part of its interval
covered by the union of its children's intervals, so children that run in
parallel on other threads are subtracted once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("quadrature", "nystrom", "phase", "integro", "asymptotics", "svg", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    job: int | None
    name: str
    thread: int
    start: float
    end: float = float("nan")
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; the current span is tracked per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pool_waits: list[tuple[int | None, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, job: int | None = None):
        """Record one span; ``job`` is given on a root span and inherited below it."""
        parent = self.current()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if parent is not None:
            job = parent.job
        sp = Span(
            id=sid,
            parent=None if parent is None else parent.id,
            job=job,
            name=name,
            thread=threading.get_ident(),
            start=self.clock(),
        )
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def adopt(self, parent: Span | None):
        """Make ``parent`` (opened on another thread) the current span here."""
        stack = self._stack()
        if parent is None:
            yield
            return
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def record_wait(self, parent: Span | None, seconds: float) -> None:
        with self._lock:
            self.pool_waits.append((None if parent is None else parent.job, seconds))

    def job_spans(self, job: int) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.job == job]

    def job_waits(self, job: int) -> list[float]:
        with self._lock:
            return [w for j, w in self.pool_waits if j == job]


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _child_intervals(spans) -> dict[int, list[tuple[float, float]]]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return children


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = _child_intervals(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
            if min(hi, s.end) > max(lo, s.start)
        )
        out[s.id] = s.duration - covered
    return out


def parallel_excess(spans) -> float:
    """Child time that ran alongside a sibling: sum of durations minus union.

    The self times of a span tree sum to the root's duration plus this
    excess, which is zero when no two children of one span overlap.
    """
    return sum(
        sum(hi - lo for lo, hi in iv) - union_length(iv)
        for iv in _child_intervals(spans).values()
    )


# -- instrumentation --------------------------------------------------------


def _points(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _record_points(index: int, name: str):
    def before(span, args, kwargs):
        span.attrs["points"] = _points(_arg(args, kwargs, index, name))

    return before


def _record_iterations(span, result) -> None:
    span.attrs["iterations"] = int(result.iterations)


def _record_grid_size(span, args, kwargs) -> None:
    m = getattr(_arg(args, kwargs, 1, "grid"), "m", None)
    if m is not None:
        span.attrs["m"] = int(m)


# span name -> (before(span, args, kwargs), after(span, result)); both optional
_PROBES = {
    "nystrom.discretize_and_solve": (_record_grid_size, None),
    "phase.pv_weight": (_record_points(0, "t"), None),
    "phase.xc0": (_record_points(0, "z"), None),
    "nystrom.eigenfunction_at": (_record_points(2, "x"), None),
    "integro.solve_pqr": (None, _record_iterations),
}

# spans whose peak allocation (tracemalloc, numpy arrays included) is recorded
_ALLOC_SPANS = ("nystrom.discretize_and_solve",)


def _wrap(tracer: Tracer, name: str, fn):
    before, after = _PROBES.get(name, (None, None))
    alloc = name in _ALLOC_SPANS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            if before is not None:
                before(span, args, kwargs)
            started = False
            if alloc:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    span.attrs["alloc_peak"] = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
            if after is not None:
                after(span, result)
            return result

    return traced


def _pool_class(tracer: Tracer, base):
    class TracedThreadPoolExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = tracer.clock()

            def task(*a, **k):
                tracer.record_wait(parent, tracer.clock() - submitted)
                with tracer.adopt(parent):
                    return fn(*a, **k)

            return super().submit(task, *args, **kwargs)

    return TracedThreadPoolExecutor


class Instrumentation:
    """Install and remove the wrappers on an imported fracspec package."""

    package = "fracspec"

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self) -> dict:
        prefix = self.package + "."
        return {
            name[len(prefix):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        }

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = modules.get(short)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = _wrap(self.tracer, name, obj)
                    self.installed.add(name)
        targets = [sys.modules[self.package]] + list(modules.values())
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

        phase = modules.get("phase")
        table_cls = getattr(phase, "PhaseTable", None)
        if table_cls is not None:
            self._set(
                table_cls,
                "__init__",
                _wrap(self.tracer, "phase.PhaseTable", table_cls.__init__),
            )
            self.installed.add("phase.PhaseTable")
        cli = modules.get("cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:
            self._set(cli, "ThreadPoolExecutor", _pool_class(self.tracer, pool))
            self.installed.add("cli.ThreadPoolExecutor")

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
