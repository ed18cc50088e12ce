"""Per-layer metrics of one traced job, computed from its spans.

Each metric names the spans it needs. When one of them was not installed
(the wrapped symbol no longer exists in the program), the metric's value is
0 and its name is listed as absent, so the zero is not read as measured.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from tracer import parallel_excess, self_times, union_length

ROOT = "bench.job"  # the span run.py opens around each traced job
SOLVE = "nystrom.discretize_and_solve"
INTERP = "nystrom.eigenfunction_at"
REFINE = "integro.refine_rho"
SECULAR = "integro.secular"
PQR = "integro.solve_pqr"
POOL = "cli.ThreadPoolExecutor"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    requires: tuple
    compute: object  # (JobTrace) -> float


class JobTrace:
    """Aggregates over the spans of one job."""

    def __init__(self, spans, waits):
        self.spans = spans
        self.waits = waits
        self.self_s = self_times(spans)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        roots = self.by_name[ROOT]
        self.wall_s = sum(s.duration for s in roots)
        self.excess_s = parallel_excess(spans)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def failed(self, name: str) -> int:
        return sum(s.failed for s in self.by_name.get(name, ()))

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.by_name.get(name, ()))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.by_name.get(name, ()))

    def prefix_calls(self, prefix: str) -> int:
        return sum(len(v) for k, v in self.by_name.items() if k.startswith(prefix))

    def prefix_self_s(self, prefix: str) -> float:
        return sum(self.self_s[s.id] for s in self.spans if s.name.startswith(prefix))

    def summary(self) -> dict:
        """Span name -> calls, summed duration and summed self time."""
        return {
            name: {
                "calls": len(spans),
                "s": sum(s.duration for s in spans),
                "self_s": sum(self.self_s[s.id] for s in spans),
            }
            for name, spans in sorted(self.by_name.items())
        }

    def overlap(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        union = union_length((s.start, s.end) for s in spans)
        return sum(s.duration for s in spans) / union if union > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _solve_peak_mb(t: JobTrace) -> float:
    peaks = [s.attrs.get("alloc_peak", 0) for s in t.by_name.get(SOLVE, ())]
    return max(peaks, default=0) / 2**20


def _solve_matrices(t: JobTrace) -> float:
    # computed, not measured: the peak in units of one m x m float64 matrix
    return max(
        (s.attrs.get("alloc_peak", 0) / (8.0 * s.attrs["m"] ** 2)
         for s in t.by_name.get(SOLVE, ()) if "m" in s.attrs),
        default=0.0,
    )


def _iters_mean(t: JobTrace) -> float:
    done = [s.attrs["iterations"] for s in t.by_name.get(PQR, ()) if "iterations" in s.attrs]
    return sum(done) / len(done) if done else 0.0


METRICS = (
    LayerMetric("quadrature.calls", "count", ("quadrature.gauss_legendre_01",),
                lambda t: t.prefix_calls("quadrature.")),
    LayerMetric("quadrature.s", "s", ("quadrature.gauss_legendre_01",),
                lambda t: t.prefix_self_s("quadrature.")),
    LayerMetric("nystrom.solve.calls", "count", (SOLVE,), lambda t: t.calls(SOLVE)),
    LayerMetric("nystrom.solve.s", "s", (SOLVE,), lambda t: t.seconds(SOLVE)),
    LayerMetric("nystrom.solve.alloc_peak_mb", "MB", (SOLVE,), _solve_peak_mb),
    LayerMetric("nystrom.solve.matrices_at_peak", "matrices", (SOLVE,), _solve_matrices),
    LayerMetric("nystrom.interp.points", "count", (INTERP,),
                lambda t: t.attr_sum(INTERP, "points")),
    LayerMetric("nystrom.interp.s", "s", (INTERP,), lambda t: t.seconds(INTERP)),
    LayerMetric("phase.self_s", "s", ("phase.g0",), lambda t: t.prefix_self_s("phase.")),
    LayerMetric("phase.g0.calls", "count", ("phase.g0",), lambda t: t.calls("phase.g0")),
    LayerMetric("phase.h0.calls", "count", ("phase.h0",), lambda t: t.calls("phase.h0")),
    LayerMetric("phase.pv_weight.points", "count", ("phase.pv_weight",),
                lambda t: t.attr_sum("phase.pv_weight", "points")),
    LayerMetric("phase.pv_points_per_secular", "count", ("phase.pv_weight", SECULAR),
                lambda t: _ratio(t.attr_sum("phase.pv_weight", "points"), t.calls(SECULAR))),
    LayerMetric("phase.pv_useful_ratio", "ratio", ("phase.pv_weight", SECULAR),
                lambda t: _ratio(t.calls(SECULAR), t.calls("phase.pv_weight"))),
    LayerMetric("phase.xc0.calls", "count", ("phase.xc0",), lambda t: t.calls("phase.xc0")),
    LayerMetric("phase.xc0.points", "count", ("phase.xc0",),
                lambda t: t.attr_sum("phase.xc0", "points")),
    LayerMetric("phase.table_init_s", "s", ("phase.PhaseTable",),
                lambda t: t.seconds("phase.PhaseTable")),
    LayerMetric("integro.refine.calls", "count", (REFINE,), lambda t: t.calls(REFINE)),
    LayerMetric("integro.refine.failed", "count", (REFINE,), lambda t: t.failed(REFINE)),
    LayerMetric("integro.secular.calls", "count", (SECULAR,), lambda t: t.calls(SECULAR)),
    LayerMetric("integro.secular_per_root", "count", (SECULAR, REFINE),
                lambda t: _ratio(t.calls(SECULAR), t.calls(REFINE))),
    LayerMetric("integro.solve_pqr.calls", "count", (PQR,), lambda t: t.calls(PQR)),
    LayerMetric("integro.solve_pqr.iters_mean", "count", (PQR,), _iters_mean),
    LayerMetric("integro.extend.calls", "count", ("integro.analytic_extend",),
                lambda t: t.calls("integro.analytic_extend")),
    LayerMetric("integro.reconstruct.s", "s", ("integro.reconstruct_f_exact",),
                lambda t: t.seconds("integro.reconstruct_f_exact")),
    LayerMetric("integro.refine.overlap", "ratio", (REFINE,), lambda t: t.overlap(REFINE)),
    LayerMetric("cli.pool.wait_s", "s", (POOL,), lambda t: sum(t.waits)),
    LayerMetric("asymptotics.self_s", "s", ("asymptotics.boundary_layer",),
                lambda t: t.prefix_self_s("asymptotics.")),
    LayerMetric("asymptotics.layer.s", "s", ("asymptotics.boundary_layer",),
                lambda t: t.seconds("asymptotics.boundary_layer")),
    LayerMetric("cli.self_s", "s", ("cli.main",), lambda t: t.prefix_self_s("cli.")),
    LayerMetric("svg.s", "s", ("svg.svg_line_chart",), lambda t: t.seconds("svg.svg_line_chart")),
)


def layer_metrics(trace: JobTrace, installed) -> tuple[dict, list]:
    """(name -> value for every metric, names of the metrics marked absent)."""
    values, absent = {}, []
    for m in METRICS:
        if all(r in installed for r in m.requires):
            values[m.name] = float(m.compute(trace))
        else:
            values[m.name] = 0.0
            absent.append(m.name)
    return values, absent
