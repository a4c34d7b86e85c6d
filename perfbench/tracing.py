"""In-memory spans and call counters for the traced benchmark run.

Spans wrap the public functions the workloads call, by swapping the module
attributes the program looks them up through; no program file changes.  Hot
callables (a map's raw ``fn`` and ``jac``, and ``C1Map.eval``) run
millions of times, so they are counted instead.
Counters live in the traced process only: a scan traced this way must run
with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from dataclasses import dataclass, field

from newtonflow import basin, certify, cli, flow, maps
from newtonflow.maps import C1Map

# (module, attribute) pairs that get a span.  A function reachable under
# several names is wrapped once and the same wrapper goes to every name.
SPANNED = [
    (basin, "scan_basin"),
    (basin, "injectivity_probe"),
    (basin, "export_grid"),
    (flow, "solve_inverse"),
    (flow, "integrate"),
    (basin, "integrate"),
    (cli, "integrate"),
    (flow, "newton_field"),
    (certify, "newton_field"),
    (certify, "check_cor22"),
    (certify, "check_ball_criterion"),
    (cli, "main"),
]


class Counted:
    """Picklable call counter around a map evaluator or Jacobian."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@dataclass
class Span:
    trace: str
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for one workload run (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.fns: list[Counted] = []
        self.jacs: list[Counted] = []
        self.eval_calls = 0

    def jac_calls(self) -> int:
        return sum(c.calls for c in self.jacs)

    def fn_calls(self) -> int:
        return sum(c.calls for c in self.fns)

    def count_map(self, m: C1Map) -> C1Map:
        fn, jac = Counted(m.fn), Counted(m.jac)
        self.fns.append(fn)
        self.jacs.append(jac)
        return dataclasses.replace(m, fn=fn, jac=jac)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.main" if fn.__name__ == "main" else fn.__name__

        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            jac0 = self.jac_calls()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            attrs = {"jac_calls": self.jac_calls() - jac0}
            if isinstance(result, flow.Trajectory):
                attrs["steps"] = result.steps
            elif isinstance(result, certify.Certificate):
                attrs["samples_used"] = result.samples_used
                attrs["samples_skipped"] = result.samples_skipped_singular
            self.spans.append(Span(self.trace_id, span_id, parent, name, layer,
                                   start, end, attrs))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Span the public calls, count map calls, and undo both on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in SPANNED]
        wrappers: dict[int, object] = {}
        for mod, attr, fn in saved:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            setattr(mod, attr, wrappers[id(fn)])
        orig_builtin = maps.builtin
        orig_eval = C1Map.eval

        def counted_builtin(*args, **kwargs):
            return self.count_map(orig_builtin(*args, **kwargs))

        def counted_eval(m, x):
            self.eval_calls += 1
            return orig_eval(m, x)

        maps.builtin = cli.builtin = counted_builtin
        C1Map.eval = counted_eval
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            maps.builtin = cli.builtin = orig_builtin
            C1Map.eval = orig_eval

    # --- summaries ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _child_time(self) -> dict[int | None, float]:
        # calls are sequential in one thread, so children never overlap and
        # their durations add up
        out: dict[int | None, float] = {}
        for s in self.spans:
            out[s.parent] = out.get(s.parent, 0.0) + s.duration
        return out

    def self_times(self, name: str) -> list[float]:
        """Durations of the spans called ``name`` minus their children's."""
        child = self._child_time()
        return [s.duration - child.get(s.id, 0.0) for s in self.named(name)]

    def layer_self_times(self) -> dict[str, float]:
        child = self._child_time()
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child.get(s.id, 0.0)
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def median_ms(self, name: str, self_only: bool = False) -> float:
        values = (self.self_times(name) if self_only
                  else [s.duration for s in self.named(name)])
        return 1e3 * statistics.median(values) if values else 0.0

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
