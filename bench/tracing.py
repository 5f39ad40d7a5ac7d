"""Layer tracing from outside the package.

The tracer wraps public functions and class attributes of ``awpa`` at run
time; nothing under ``src/`` is edited.  Three kinds of probe are used:

* spans at the ``engine``, ``cyclotomic`` and ``linalg`` boundaries: every
  public method of ``AwpaAlgebra`` and ``CyclotomicAlgebra``, plus
  ``cyclotomic.nakayama_check`` and the public ``linalg`` functions.  Each
  span records (id, name, start, end, parent id, op id) in memory.  A
  span's self time is its duration minus the time of the spans and leaf
  calls nested in it.
* an aggregated leaf probe on ``word_mul`` (layer ``wreath``): busy time and
  call counts, no per-call span.  It is patched both in ``awpa.wreath`` and
  in ``awpa.engine``, which imported the name.
* counters on ``CycScalar`` arithmetic (layer ``scalars``): counts only,
  since a run makes hundreds of thousands of scalar operations.

Counts are kept for one "window" (the first sub-batch of a run, which has
fixed inputs), so that they repeat exactly between runs of one seed.  Self
times are kept for every traced work phase of the run.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

def _public_methods(cls):
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Tracer:
    """Spans, leaf timings and counters for one benchmark process."""

    def __init__(self):
        self.active = False  # probes time only while a work phase runs
        self.counting = False  # counts and spans are kept only in the window
        self.op_id = 0
        self.spans: list[tuple] = []
        self._next_span = 0
        self._stack: list[list] = []  # [span id, nested time]
        self.self_time: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.word_pairs: set = set()
        self.contexts: dict[int, object] = {}
        self._patches: list[tuple] = []

    # -- probes ---------------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None and tracer.counting:
                on_call(args)
            stack = tracer._stack
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[1]
                tracer.busy[name] += duration
                if stack:
                    stack[-1][1] += duration
                if tracer.counting:
                    tracer.counts[name + "_calls"] += 1
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, name, fn):
        tracer = self

        def timed(F, w1, w2):
            if not tracer.active:
                return fn(F, w1, w2)
            start = perf_counter()
            try:
                return fn(F, w1, w2)
            finally:
                duration = perf_counter() - start
                tracer.self_time[name] += duration
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if tracer.counting:
                    tracer.counts[name + "_calls"] += 1
                    tracer.word_pairs.add((id(F), w1, w2))

        timed.__wrapped__ = fn
        return timed

    def _counter(self, key, fn, nonrational=False):
        counts = self.counts
        tracer = self

        if nonrational:

            def counted(a, b):
                if tracer.counting:
                    counts[key] += 1
                    if len(a.coeffs) > 1 or len(getattr(b, "coeffs", ())) > 1:
                        counts[key + "_nonrational"] += 1
                return fn(a, b)

        else:

            def counted(*args):
                if tracer.counting:
                    counts[key] += 1
                return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from awpa import cyclotomic, engine, linalg, scalars, wreath

        def on_mul(args):
            ctx, a, b = args[0], args[1], args[2]
            self.counts["engine.mono_pairs"] += len(a.terms) * len(b.terms)
            self.contexts.setdefault(id(ctx), ctx)

        def on_rref(args):
            mat = args[0]
            cells = len(mat) * (len(mat[0]) if mat else 0)
            self.counts["linalg.rref_cells"] += cells
            self.counts["linalg.rref_nonzero"] += sum(1 for row in mat for x in row if x)

        for name in _public_methods(engine.AwpaAlgebra):
            hook = on_mul if name == "mul" else None
            fn = getattr(engine.AwpaAlgebra, name)
            self._patch(engine.AwpaAlgebra, name, self._span(f"engine.{name}", fn, hook))
        for name in _public_methods(cyclotomic.CyclotomicAlgebra):
            fn = getattr(cyclotomic.CyclotomicAlgebra, name)
            self._patch(cyclotomic.CyclotomicAlgebra, name, self._span(f"cyclotomic.{name}", fn))
        self._patch(
            cyclotomic,
            "nakayama_check",
            self._span("cyclotomic.nakayama_check", cyclotomic.nakayama_check),
        )
        for name in ("rref", "inverse", "nullspace", "solve", "rank", "mat_mul", "mat_vec"):
            hook = on_rref if name == "rref" else None
            self._patch(linalg, name, self._span(f"linalg.{name}", getattr(linalg, name), hook))
        leaf = self._leaf("wreath.word_mul", wreath.word_mul)
        self._patch(wreath, "word_mul", leaf)
        self._patch(engine, "word_mul", leaf)
        cls = scalars.CycScalar
        self._patch(cls, "__mul__", self._counter("scalars.mul_calls", cls.__mul__, True))
        self._patch(cls, "__rmul__", self._counter("scalars.mul_calls", cls.__rmul__, True))
        self._patch(cls, "__add__", self._counter("scalars.add_calls", cls.__add__))
        self._patch(cls, "__radd__", self._counter("scalars.add_calls", cls.__radd__))
        self._patch(cls, "inverse", self._counter("scalars.inverse_calls", cls.inverse))
        self._patch(cls, "lift", self._counter("scalars.lift_calls", cls.lift))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- count window -------------------------------------------------------------

    def reset_counts(self):
        self.spans.clear()
        self.counts.clear()
        self.word_pairs.clear()
        self.contexts.clear()

    def window_counts(self) -> dict:
        """Counters of the current window, plus the memo-cache sizes of the
        contexts it multiplied in (read now, at the end of the window)."""
        c = self.counts
        out = {
            "scalars.mul_calls": c["scalars.mul_calls"],
            "scalars.add_calls": c["scalars.add_calls"],
            "scalars.inverse_calls": c["scalars.inverse_calls"],
            "scalars.lift_calls": c["scalars.lift_calls"],
            "wreath.word_mul_calls": c["wreath.word_mul_calls"],
            "wreath.word_mul_distinct_pairs": len(self.word_pairs),
            "engine.mul_calls": c["engine.mul_calls"],
            "engine.mono_pairs": c["engine.mono_pairs"],
            "cyclotomic.reduce_calls": c["cyclotomic.reduce_calls"],
            "linalg.rref_calls": c["linalg.rref_calls"],
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.rref_nonzero": c["linalg.rref_nonzero"],
            "scalars.mul_nonrational": c["scalars.mul_calls_nonrational"],
        }
        for cache in ("mono", "smono", "twist"):
            out[f"engine.{cache}_cache_entries"] = sum(
                len(getattr(ctx, f"_{cache}_cache")) for ctx in self.contexts.values()
            )
        return out
