"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
experts and the model are wrapped in delegating proxies, and for the
traced round only ``expertseq.forward.propagate_frontier`` and
``expertseq.approx.trim_frontier`` are replaced by timing wrappers. The
spans are aggregated in memory per name (calls, total time, self time)
rather than kept one by one, because a round makes hundreds of thousands
of ``successors`` calls. A span's self time is its duration minus the
durations of the spans opened inside it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

import expertseq.approx as approx_mod
import expertseq.forward as forward_mod
from expertseq.experts import ForecastingSystem
from expertseq.hmm import HmmModel


class Tracer:
    """Aggregated spans plus the counters recorded at the same boundaries.

    While ``active`` is false the module wrappers pass calls through
    unrecorded; the CLI runs that way, so its internal work is charged to
    the CLI span alone.
    """

    def __init__(self):
        self.spans: dict[str, list[int]] = {}   # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}
        self.active = True
        self._child_ns = [0]

    def call(self, name: str, fn, *args, **kwargs):
        self._child_ns.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            inner = self._child_ns.pop()
            self._child_ns[-1] += dt
            s = self.spans.get(name)
            if s is None:
                s = self.spans[name] = [0, 0, 0]
            s[0] += 1
            s[1] += dt
            s[2] += dt - inner

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / 1e9


class ExpertProxy(ForecastingSystem):
    """Delegating expert that records each ``predict`` and its history length."""

    def __init__(self, inner: ForecastingSystem, tracer: Tracer):
        self.inner = inner
        self.size = inner.size
        self._tracer = tracer

    def predict(self, history):
        self._tracer.add("experts.history_len_sum", len(history))
        return self._tracer.call("experts.predict", self.inner.predict, history)


class ModelProxy(HmmModel):
    """Delegating model that records each ``successors`` call and its arcs.

    ``initial``, ``label``, ``is_productive`` and ``level`` are bound to the
    wrapped model's methods directly, so they cost no extra call.
    """

    def __init__(self, inner: HmmModel, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self.num_experts = inner.num_experts
        self.silent_depth_bound = inner.silent_depth_bound
        self.unambiguous = inner.unambiguous
        self.productive_tags = inner.productive_tags
        self.initial = inner.initial
        self.label = inner.label
        self.is_productive = inner.is_productive
        self.level = inner.level

    def initial(self):
        return self.inner.initial()

    def successors(self, state):
        out = self._tracer.call("models.successors", self.inner.successors, state)
        self._tracer.add("models.arcs", len(out))
        return out

    def label(self, state):
        return self.inner.label(state)


@contextmanager
def patched(tracer: Tracer):
    """Replace the propagation core and the trimming step with timing
    wrappers for the duration of one traced round."""
    propagate, trim = forward_mod.propagate_frontier, approx_mod.trim_frontier

    def traced_propagate(model, frontier, target_level, record=None):
        if not tracer.active:
            return propagate(model, frontier, target_level, record=record)
        out = tracer.call("hmm.propagate", propagate, model, frontier, target_level, record=record)
        tracer.add("hmm.transitions", out[1])
        tracer.peak("hmm.peak_weights", out[2])
        return out

    def traced_trim(weights, p):
        if not tracer.active:
            return trim(weights, p)
        return tracer.call("approx.trim", trim, weights, p)

    forward_mod.propagate_frontier = traced_propagate
    approx_mod.trim_frontier = traced_trim
    try:
        yield tracer
    finally:
        forward_mod.propagate_frontier = propagate
        approx_mod.trim_frontier = trim
