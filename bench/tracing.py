"""Span tracing installed from outside the package.

Every traced function is replaced, on each genpgd module attribute bound to
it, by a wrapper that records a span: name, start, end, parent span and
solve id.  The package imports its callees by name (``projection`` does
``from .generator import forward``), so each caller looks the name up in its
own module; patching only ``genpgd.generator.forward`` would count nothing.
``traced`` installs the wrappers for the length of a ``with`` block and puts
every original back when it ends.

Leaf calls (the generator maps, seeding, objective value and gradient, hard
thresholding) are not stored one span each, because a relu-latentgd solve
makes ~10^5 of them.  Each is folded into its enclosing span's per-name
tally.  Self time stays exact either way: a span's self time is its
duration minus the summed durations of its children, and all spans are
kept in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from stats import generator_flops

TRACED = {
    "generator": ("forward", "vjp", "forward_batch"),
    "seeding": ("spawn_rng",),
    "projection": ("project", "hard_threshold", "hard_threshold_coeffs"),
    "objective": ("value", "gradient", "estimate_rsc_rss", "estimate_incoherence",
                  "minkowski_curvature", "subspace_curvature", "subspace_incoherence",
                  "estimate_diameter_gamma"),
    "solver": ("epsilon_pgd", "myopic_pgd", "default_step_size", "trace_to_csv"),
    "harness": ("gen_problem", "save_problem", "estimate_regularity", "run_solve",
                "run_sweep", "emit_report"),
    "cli": ("main",),
}

LEAVES = frozenset({
    "generator.forward", "generator.vjp", "generator.forward_batch",
    "seeding.spawn_rng", "objective.value", "objective.gradient",
    "projection.hard_threshold_coeffs",
})

_MARK = "__bench_traced__"


def _generator_flops(name):
    """Counter hook for a generator map; the multiply-accumulate count is
    cached per network object, since a solve makes ~10^5 calls on one net."""
    short = name.split(".")[1]
    nets = {}

    def observe(tracer, args, result):
        net = args[0]
        hit = nets.get(id(net))
        if hit is None or hit[0] is not net:
            hit = nets[id(net)] = (net, generator_flops(short, net))
        batch = np.shape(args[1])[1] if short == "forward_batch" else 1
        tracer.counters["flops"] += hit[1] * batch

    return observe


def _observe_project(tracer, args, result):
    tracer.counters["certified"] += bool(result.certified)


def _observer(name):
    if name.startswith("generator."):
        return _generator_flops(name)
    if name == "projection.project":
        return _observe_project
    return None


class Tracer:
    """Spans, per-name totals and work counters of one traced run.

    ``totals[name]`` is ``[calls, inclusive seconds, self seconds]``;
    ``root_total`` sums the durations of the outermost calls, which is
    what the self times of all calls add up to.  Set ``solve`` to stamp the
    spans opened afterwards with a solve id.  Each open call keeps a frame
    ``[child seconds, leaf tally of the innermost open span]`` on a stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.solve = None
        self.spans = []
        self.totals = {}
        self.counters = {"flops": 0, "certified": 0}
        self.root_total = 0.0
        self._stack = []
        self._parents = []  # ids of the open spans, innermost last
        self._next_id = 0

    def wrap(self, name, fn):
        if name in LEAVES:
            traced_fn = self._wrap_leaf(name, fn)
        else:
            traced_fn = self._wrap_span(name, fn)
        setattr(traced_fn, _MARK, True)
        return functools.wraps(fn)(traced_fn)

    def _wrap_leaf(self, name, fn):
        # the hot path: ~10^5 calls per solve, so no span record, locals
        # bound up front, and one small list per call
        stack, clock = self._stack, self.clock
        push, pop = stack.append, stack.pop
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        observe = _observer(name)

        def traced_fn(*args, **kwargs):
            tally = stack[-1][1] if stack else None
            frame = [0.0, tally]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_total += dur
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if tally is not None:
                    t = tally.get(name)
                    if t is None:
                        tally[name] = [1, dur]
                    else:
                        t[0] += 1
                        t[1] += dur
            if observe is not None:
                observe(self, args, result)
            return result

        return traced_fn

    def _wrap_span(self, name, fn):
        stack, parents, clock = self._stack, self._parents, self.clock
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        observe = _observer(name)

        def traced_fn(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = parents[-1] if parents else None
            solve = self.solve
            frame = [0.0, {}]
            stack.append(frame)
            parents.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parents.pop()
                dur = end - start
                self_s = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_total += dur
                tot[0] += 1
                tot[1] += dur
                tot[2] += self_s
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent_id, "solve": solve, "self_s": self_s,
                    "leaves": frame[1],
                })
            if observe is not None:
                observe(self, args, result)
            return result

        return traced_fn

    def calls(self, name) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "totals": self.totals,
                       "counters": self.counters}, f)


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))]


def install(tracer: Tracer, package) -> list:
    """Wrap every traced function on every module attribute bound to it;
    returns the ``(module, attribute, original)`` patches made."""
    wrappers = {}
    for mod_name, names in TRACED.items():
        module = importlib.import_module(f"{package.__name__}.{mod_name}")
        for fn_name in names:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn))
    patches = []
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patches.append((module, attr, value))
    return patches


def restore(patches) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)


def wrapped_attributes(package) -> list[str]:
    """Module attributes that still hold a benchmark wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules(package)
            for attr, value in vars(m).items() if getattr(value, _MARK, False)]


@contextmanager
def traced(tracer: Tracer, package):
    patches = install(tracer, package)
    try:
        yield tracer
    finally:
        restore(patches)
