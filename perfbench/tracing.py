"""Outside-in tracing of one workload call, from the benchmark's own files.

The traced run swaps the public functions each subtv module calls through
its own globals (and two methods of the sampler objects) for wrappers that
record a span per call: name, start, end and the span that caused it.
Nothing under src/ changes.  Spans stay in memory; the caller writes them
out when the run ends and derives the per-layer metrics from them.

Layers, outermost first:
  tester     identity_test                    (the benchmark's own call)
  estimator  estimate_tv, estimate_mass       subtv.tester / subtv.estimator globals
  gbas       gbas_estimate                    subtv.estimator global
  posets     draw_coordinate, mass            methods of the two sampler objects
             apply_condition, enumerate_extensions, count_extensions
                                              subtv.posets globals
  oracle     exact_distribution, exact_tv     subtv package attributes
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; single-threaded (the traced call uses threads=1)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn inside a span; note(span, result) may attach counts from the result."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(sp, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patch_modules(self, subtv):
        """Route the module-level calls between layers through spans, then restore."""
        targets = [
            (subtv.posets, "apply_condition", "posets.condition", None),
            (subtv.posets, "enumerate_extensions", "posets.enumerate", None),
            (subtv.posets, "count_extensions", "posets.count", None),
            (subtv.estimator, "gbas_estimate", "gbas", _note_draws),
            (subtv.estimator, "estimate_mass", "estimator.mass", None),
            (subtv.tester, "estimate_tv", "estimator", None),
            (subtv, "exact_distribution", "oracle.exact_distribution", None),
            (subtv, "exact_tv", "oracle.exact_tv", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, note in targets:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), note))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def trace_samplers(self, unknown, known) -> None:
        """Wrap the sampler objects' entry points (instance attributes shadow the class)."""
        seen = set()
        draw_coordinate = unknown.draw_coordinate

        def traced_draw(condition, coord, m, rng):
            cold = condition not in seen
            seen.add(condition)
            with self.span("posets.draw", m=int(m), cold=cold):
                return draw_coordinate(condition, coord, m, rng)

        unknown.draw_coordinate = traced_draw
        known.mass = self.wrap("posets.mass", known.mass)


def _note_draws(sp: Span, result) -> None:
    sp.attrs["draws"] = result.draws


def layer_metrics(spans: list[Span], report) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced workload call.

    A span's self time is its duration minus the time of its child spans.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.dur
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.dur for s in by_name[name])

    def self_time(name):
        return sum(s.dur - child_time[s.id] for s in by_name[name])

    draws = by_name["posets.draw"]
    cold = [s for s in draws if s.attrs["cold"]]
    warm = [s for s in draws if not s.attrs["cold"]]
    gbas_ids = {s.id for s in by_name["gbas"]}
    requested = sum(s.attrs["m"] for s in draws)
    gbas_draws = sum(s.attrs["draws"] for s in by_name["gbas"])
    warm_requested = sum(s.attrs["m"] for s in warm)
    terms = report.per_sample_terms
    points = len(by_name["estimator.mass"])
    return {
        "posets.condition_calls": len(by_name["posets.condition"]),
        "posets.condition_s": total("posets.condition"),
        "posets.enumerate_calls": len(by_name["posets.enumerate"]),
        "posets.enumerate_s": total("posets.enumerate"),
        "posets.cold_calls": len(cold),
        "posets.cold_s": sum(s.dur for s in cold),
        "posets.draws_requested": requested,
        "posets.warm_draw_us": 1e6 * sum(s.dur for s in warm) / warm_requested,
        "posets.mass_calls": len(by_name["posets.mass"]),
        "posets.mass_s": total("posets.mass"),
        "posets.count_s": total("posets.count"),
        "gbas.calls": len(by_name["gbas"]),
        "gbas.s": total("gbas"),
        "gbas.self_s": self_time("gbas"),
        "gbas.batches": sum(1 for s in draws if s.parent in gbas_ids),
        "gbas.draws": gbas_draws,
        "gbas.draw_yield": gbas_draws / requested,
        "estimator.points": points,
        "estimator.mass_s": total("estimator.mass"),
        "estimator.self_s": self_time("estimator"),
        "estimator.draws_per_point": report.total_samples / points,
        "estimator.stderr_over_zeta": (
            statistics.stdev(terms) / len(terms) ** 0.5 / report.params.zeta
        ),
        "oracle.exact_distribution_s": total("oracle.exact_distribution"),
        "oracle.exact_tv_s": total("oracle.exact_tv"),
    }


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
         "end": s.end, **s.attrs}
        for s in spans
    ]
