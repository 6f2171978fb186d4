"""In-memory spans and counters recorded around calls into the program.

A layer is traced by replacing a public name in the module that looks it up
at call time, so `functionals.compacton_integrals` (imported by name from
`profiles`) is wrapped in `functionals` as well as in `profiles`.  Spans are
kept as tuples and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

__all__ = ["Tracer", "instrument"]


class Tracer:
    """Spans (name, start, end, parent, query id) and named counters.

    Nothing is recorded unless `active` is set, which the runner does only
    around the timed call of each request, so input generation and output
    checks stay out of the per-layer figures.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.query_id = -1
        self.active = False
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.query_id)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap_span(self, module, attr, name):
        """Record a span named `name` around every call of `module.attr`."""
        orig = getattr(module, attr)

        @wraps(orig)
        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            with self.span(name):
                return orig(*args, **kwargs)

        self._patch(module, attr, orig, traced)

    def wrap_count(self, module, attr, name):
        """Count calls of `module.attr` under `name` without a span."""
        orig = getattr(module, attr)

        @wraps(orig)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(module, attr, orig, counted)

    def wrap_custom(self, module, attr, make_wrapper):
        """Install `make_wrapper(original)` in place of `module.attr`."""
        orig = getattr(module, attr)
        self._patch(module, attr, orig, make_wrapper(orig))

    def _patch(self, module, attr, orig, new):
        self._patched.append((module, attr, orig))
        setattr(module, attr, new)

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def self_times(self, first=0, last=None):
        """Total self time per span name over spans[first:last].

        A span's self time is its duration minus the durations of its direct
        children; siblings never overlap in one thread.
        """
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            out[name] += (end - start) - child_time.get(i, 0.0)
        return out

    def write(self, path, extra):
        payload = dict(extra)
        payload["fields"] = ["name", "start", "end", "parent", "query"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)


def instrument(tracer, compactons):
    """Wrap every layer boundary the per-layer metrics are read from.

    `compactons` is a namespace holding the five program modules.
    """
    pr, fn, sp, ev, cli = (
        compactons.profiles,
        compactons.functionals,
        compactons.spectral,
        compactons.evolution,
        compactons.cli,
    )
    # evolution: the right-hand side is the hot inner call of the integrator
    tracer.wrap_span(ev, "dkdv_rhs", "evolution.rhs")
    tracer.wrap_count(ev, "regularized_derivative", "evolution.fft.calls")
    tracer.wrap_count(ev, "gmres", "evolution.krylov.solves")
    tracer.wrap_span(ev, "initial_condition", "evolution.initial_condition")
    tracer.wrap_span(ev, "diagnostics", "evolution.diagnostics")

    def integrate_wrapper(orig):
        @wraps(orig)
        def traced(*args, callback=None, **kwargs):
            if not tracer.active:
                return orig(*args, callback=callback, **kwargs)

            def on_step(t, y):
                tracer.counts["evolution.steps.accepted"] += 1
                if callback is not None:
                    callback(t, y)

            tracer.counts["evolution.integrate.calls"] += 1
            with tracer.span("evolution.integrate"):
                return orig(*args, callback=on_step, **kwargs)

        return traced

    tracer.wrap_custom(ev, "integrate", integrate_wrapper)

    # profiles: every module that looks the profile constructors up by name
    for mod in (pr, fn, sp, ev):
        tracer.wrap_span(mod, "build_compacton", "profiles.build_compacton")
    tracer.wrap_span(pr, "build_nls_compacton", "profiles.build_nls_compacton")
    for mod in (pr, fn):
        tracer.wrap_span(mod, "compacton_integrals", "profiles.compacton_integrals")

    # functionals
    def minimize_wrapper(orig):
        @wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            tracer.counts["functionals.minimize_in_family.calls"] += 1
            with tracer.span("functionals.minimize_in_family"):
                res = orig(*args, **kwargs)
            tracer.counts["functionals.minimize_in_family.iterations"] += res.iterations
            return res

        return traced

    tracer.wrap_custom(fn, "minimize_in_family", minimize_wrapper)
    tracer.wrap_span(fn, "report", "functionals.report")

    # spectral: b_transform is booked under eig_b, the route it serves
    tracer.wrap_span(sp, "eig_green", "spectral.eig_green")
    tracer.wrap_span(sp, "eig_b", "spectral.eig_b")
    tracer.wrap_span(sp, "b_transform", "spectral.eig_b")
    tracer.wrap_span(sp, "green_apply", "spectral.green_apply")
    tracer.wrap_count(sp, "make_operator", "spectral.make_operator.calls")
    tracer.wrap_span(sp, "evolve_linearized", "spectral.evolve_linearized")

    tracer.wrap_span(cli, "main", "cli.main")
