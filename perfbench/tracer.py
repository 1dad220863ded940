"""Span tracer installed around brwmom's public functions from outside.

Nothing inside ``src/`` knows about it: ``install`` replaces each traced
function, method or classmethod with a timing wrapper, in every loaded
``brwmom`` module that holds a reference to it (so module-local aliases
such as ``asymptotics.mom_symbolic`` are traced too).  Spans
``(name, start, end, parent, job)`` are kept in flat arrays in memory and
written once, at exit, by ``write_spans``.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Calls run on one thread, so child spans of one parent
never overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

def _numeric_hit(counters, args, kwargs, result):
    counters["asymptotics.numeric_fallback.hits"] += result.method == "numeric"


def _mc_work(counters, args, kwargs, result):
    # Computed from the configuration, not measured: one float64 draw per
    # edge per trial.
    config = args[0] if args else kwargs["config"]
    edges = 2 ** (config.n + 1) - 2
    counters["montecarlo.trials"] += config.trials
    counters["montecarlo.draw_bytes"] += 8 * config.trials * edges


# (module, attribute path, layer name, optional counter hook).  Several
# attributes may share one layer name; their spans are pooled.
TARGETS = (
    ("brwmom.cli", "cmd_mom", "cli.command", None),
    ("brwmom.cli", "cmd_poly", "cli.command", None),
    ("brwmom.cli", "cmd_asym", "cli.command", None),
    ("brwmom.cli", "cmd_sweep", "cli.command", None),
    ("brwmom.cli", "cmd_mc", "cli.command", None),
    ("brwmom.cli", "cmd_verify", "cli.command", None),
    ("brwmom.cli", "encode_value", "cli.encode_value", None),
    ("brwmom.rings", "RationalContext.two_pow", "rings.two_pow", None),
    ("brwmom.rings", "RadicalContext.two_pow", "rings.two_pow", None),
    ("brwmom.rings", "FloatContext.two_pow", "rings.two_pow", None),
    ("brwmom.rings", "Radical.__mul__", "rings.Radical.mul", None),
    ("brwmom.rings", "Radical.__rmul__", "rings.Radical.mul", None),
    ("brwmom.rings", "Radical.inverse", "rings.Radical.inverse", None),
    ("brwmom.engine", "MomentTable.build", "engine.MomentTable.build", None),
    ("brwmom.engine", "mom_symbolic", "engine.mom_symbolic", None),
    ("brwmom.engine", "mom_polynomial", "engine.mom_polynomial", None),
    ("brwmom.engine", "evaluate_genpoly", "engine.evaluate_genpoly", None),
    ("brwmom.oracle", "mom_bruteforce", "oracle.mom_bruteforce", None),
    ("brwmom.symbolic", "geometric_sum", "symbolic.geometric_sum", None),
    ("brwmom.symbolic", "GenPoly.__mul__", "symbolic.GenPoly.mul", None),
    ("brwmom.symbolic", "RatFun.__add__", "symbolic.RatFun.arith", None),
    ("brwmom.symbolic", "RatFun.__sub__", "symbolic.RatFun.arith", None),
    ("brwmom.symbolic", "RatFun.__neg__", "symbolic.RatFun.arith", None),
    ("brwmom.symbolic", "RatFun.__mul__", "symbolic.RatFun.arith", None),
    ("brwmom.symbolic", "RatFun.__truediv__", "symbolic.RatFun.arith", None),
    ("brwmom.asymptotics", "leading_term", "asymptotics.leading_term",
     _numeric_hit),
    ("brwmom.asymptotics", "subcritical_coefficient",
     "asymptotics.subcritical_coefficient", None),
    ("brwmom.asymptotics", "critical_coefficient",
     "asymptotics.critical_coefficient", None),
    ("brwmom.asymptotics", "supercritical_coefficient",
     "asymptotics.supercritical_coefficient", None),
    ("brwmom.asymptotics", "leading_coefficient_numeric",
     "asymptotics.leading_coefficient_numeric", None),
    ("brwmom.closed_forms", "leading_coefficient_closed_form",
     "closed_forms.leading_coefficient_closed_form", None),
    ("brwmom.rmt", "unitary_mom_k1", "rmt.unitary_mom_k1", None),
    ("brwmom.rmt", "unitary_mom_k1_integer", "rmt.unitary_mom_k1_integer",
     None),
    ("brwmom.montecarlo", "_edge_gaussians", "montecarlo.sample", None),
    ("brwmom.montecarlo", "log_partition_function", "montecarlo.reduce",
     None),
    ("brwmom.montecarlo", "estimate_mom", "montecarlo.estimate_mom",
     _mc_work),
)

COUNTERS = ("asymptotics.numeric_fallback.hits", "montecarlo.trials",
            "montecarlo.draw_bytes", "engine.mom_symbolic.misses")


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("H")
        self._stack = [-1]
        self.current_job = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._symbolic_cache = None
        self._misses_at_install = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every target in TARGETS, aliases included."""
        modules = [importlib.import_module(m) for m in sorted(
            {t[0] for t in TARGETS} | {"brwmom"})]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.wrap(name, raw.__func__, hook)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, hook))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        # The lru_cache object behind the traced mom_symbolic.
        self._symbolic_cache = sys.modules[
            "brwmom.engine"].mom_symbolic.__wrapped__
        self._misses_at_install = self._symbolic_cache.cache_info().misses

    def finish(self) -> None:
        """Fold the lru_cache miss count of mom_symbolic into counters."""
        misses = self._symbolic_cache.cache_info().misses
        self.counters["engine.mom_symbolic.misses"] += (
            misses - self._misses_at_install)
        self._misses_at_install = misses

    def layer_totals(self) -> dict:
        """{name: [calls, total_s, self_s]} over all spans."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(count):
            row = totals[self.names[self.name[i]]]
            row[0] += 1
            row[1] += duration[i]
            row[2] += duration[i] - covered[i]
        return totals

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps(
                    [self.names[self.name[i]], self.start[i], self.end[i],
                     self.parent[i], self.job[i]]) + "\n")

