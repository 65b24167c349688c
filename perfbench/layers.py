"""Per-layer spans and counters, taken from outside sphtrans.

``Tracer.install`` replaces each public function named in ``TARGETS`` by
a wrapper, in every loaded ``sphtrans`` module that bound it by name
(``phi`` is bound in ``spherical``, ``transform``, ``schwartz``, ``cli``,
``acceptance`` and the package itself).  Modules imported later bind the
wrapper, because ``from .x import f`` reads the replaced attribute.

A wrapper counts the call, adds the size of its point argument, and
records a span in CPU seconds, as the end-to-end times are.  Self time
is the span minus the spans of the wrapped calls made inside it, so no
second is counted in two layers.  Nothing is written to
sphtrans's files; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, metric prefix, how to count points)
TARGETS = (
    ("groups", "preset", "groups.preset", None),
    ("spherical", "phi", "spherical.phi", ("arg", 2, "t")),
    ("cfunction", "plancherel_density", "cfunction.plancherel_density", ("arg", 1, "lam")),
    ("cfunction", "c_function", "cfunction.c_function", None),
    ("specfun", "integrate_interval", "specfun.integrate_interval", ("integrand",)),
    ("transform", "wave_packet", "transform.wave_packet", ("packet",)),
    ("transform", "hc_transform", "transform.hc_transform", None),
    ("transform", "hc_transform_at", "transform.hc_transform_at", None),
    ("transform", "convolve_at_identity", "transform.convolve_at_identity", None),
    ("transform", "expansion_term", "transform.expansion_term", None),
    ("schwartz", "image_membership", "schwartz.image_membership", None),
    ("schwartz", "tube_extension_check", "schwartz.tube_extension_check", None),
    ("cli", "main", "cli.main", None),
)

# Every per-layer metric, in BENCHMARK.json order: (name, unit).
LAYER_METRICS = (
    ("groups.preset.calls", "count"),
    ("groups.preset.s", "s"),
    ("spherical.phi.calls", "count"),
    ("spherical.phi.points", "count"),
    ("spherical.phi.s", "s"),
    ("cfunction.plancherel_density.calls", "count"),
    ("cfunction.plancherel_density.points", "count"),
    ("cfunction.plancherel_density.s", "s"),
    ("cfunction.c_function.calls", "count"),
    ("cfunction.c_function.s", "s"),
    ("specfun.integrate_interval.calls", "count"),
    ("specfun.integrate_interval.integrand_points", "count"),
    ("specfun.integrate_interval.s", "s"),
    ("transform.wave_packet.calls", "count"),
    ("transform.wave_packet.s", "s"),
    ("transform.packet_eval.points", "count"),
    ("transform.packet_eval.s", "s"),
    ("transform.hc_transform.calls", "count"),
    ("transform.hc_transform.s", "s"),
    ("transform.hc_transform_at.calls", "count"),
    ("transform.hc_transform_at.s", "s"),
    ("transform.convolve_at_identity.calls", "count"),
    ("transform.convolve_at_identity.s", "s"),
    ("transform.expansion_term.calls", "count"),
    ("transform.expansion_term.s", "s"),
    ("schwartz.image_membership.calls", "count"),
    ("schwartz.image_membership.s", "s"),
    ("schwartz.tube_extension_check.calls", "count"),
    ("schwartz.tube_extension_check.s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
)


class Tracer:
    """Counters and a span stack for one process."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # time covered by child spans, per open span

    def _span(self, name: str, fn, *args, **kwargs):
        start = time.process_time()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.process_time() - start
            children = self._stack.pop()
            self.totals[name + ".s"] += elapsed - children
            if self._stack:
                self._stack[-1] += elapsed

    def _wrap(self, prefix: str, fn, points):
        tracer = self

        def counting_integrand(f):
            def integrand(t):
                tracer.totals["specfun.integrate_interval.integrand_points"] += np.size(t)
                return f(t)

            return integrand

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.totals[prefix + ".calls"] += 1
            kind = points[0] if points else None
            if kind == "arg":
                _, pos, key = points
                arg = args[pos] if len(args) > pos else kwargs[key]
                tracer.totals[prefix + ".points"] += np.size(arg)
            elif kind == "integrand":
                args = (counting_integrand(args[0]),) + args[1:]
            out = tracer._span(prefix, fn, *args, **kwargs)
            if kind == "packet" and hasattr(out, "eval"):
                out.eval = tracer._packet_eval(out.eval)
            return out

        return wrapper

    def _packet_eval(self, fn):
        def packet_eval(ts):
            self.totals["transform.packet_eval.points"] += np.size(ts)
            return self._span("transform.packet_eval", fn, ts)

        return packet_eval

    def install(self):
        """Wrap every target function of the loaded sphtrans modules."""
        loaded = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "sphtrans" or name.startswith("sphtrans.")
        }
        for module, func, prefix, points in TARGETS:
            home = loaded.get("sphtrans." + module)
            if home is None:
                continue
            original = getattr(home, func)
            wrapper = self._wrap(prefix, original, points)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def add(self, totals: dict):
        for key, value in totals.items():
            self.totals[key] += value

    def per_op(self, ops: int) -> dict:
        """Every per-layer metric divided by the number of completed ops."""
        ops = max(ops, 1)
        return {
            name: {"value": self.totals.get(name, 0.0) / ops, "unit": unit}
            for name, unit in LAYER_METRICS
        }
