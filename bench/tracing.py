"""Span recording around the public functions of synthconf's modules.

A layer is a synthconf module.  ``Tracer.install`` wraps every plain
function listed in a layer module's ``__all__`` and puts the wrapper
wherever any ``synthconf.*`` module namespace holds that function object,
matched by identity, so ``from .solvers import ...`` references are
caught too.  ``uninstall`` puts the original objects back, so untraced
runs pay nothing.

A span is ``(name, start, end, parent, request)``.  Spans are kept in
memory for the whole run.  Calls made outside a request (input generation,
warm-up) are not recorded.  The self time of a span is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("simulation", "panel", "estimators", "solvers", "inference", "io", "cli")

#: Name of the span the benchmark opens around each request.
REQUEST = "bench.request"


def _iterations(index):
    def hook(counts, result, args, kwargs):
        counts["iterations"].append(result[index].iterations)
    return hook


def _fit(counts, result, args, kwargs):
    if result.diagnostics is not None:
        counts["reports"].append(int(not result.diagnostics.converged))


def _permutations(counts, result, args, kwargs):
    counts["permutations"].append(result.n_permutations)


def _bytes_written(counts, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counts["bytes"].append(os.path.getsize(path))


#: Counts read from return values, by span name.
HOOKS = {
    "solvers.projected_gradient_ls": _iterations(1),
    "solvers.coordinate_descent_penalized": _iterations(2),
    "estimators.fit": _fit,
    "inference.p_value": _permutations,
    "io.write_json_result": _bytes_written,
}


def _layer_functions():
    """Every plain function in a layer module's ``__all__``, by span name."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"synthconf.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                found[f"{layer}.{fn.__name__}"] = fn
    return found


class Tracer:
    """Records spans and return-value counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self._stack: list[int] = []
        self._request: int | None = None
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), None, stack[-1], self._request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[name], result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in _layer_functions().items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "synthconf" and not module_name.startswith("synthconf."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def request(self, index: int, call, *args):
        """Run ``call(*args)`` as request ``index`` inside a root span."""
        span = [REQUEST, perf_counter(), None, None, index]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._request = index
        try:
            return call(*args)
        finally:
            span[2] = perf_counter()
            self._request = None
            self._stack.pop()


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def accounting(spans, selfs):
    """Per request: (wall, benchmark self time, unattributed time).

    The layer self times plus the benchmark's own time (the self time of
    the request span) should add up to the request's wall time; the
    remainder is unattributed.
    """
    per_request = {}
    for span, own in zip(spans, selfs):
        entry = per_request.setdefault(span[4], [0.0, 0.0, 0.0])
        if span[0] == REQUEST:
            entry[0] = span[2] - span[1]
            entry[1] = own
        entry[2] += own
    return {req: (wall, bench, wall - total) for req, (wall, bench, total) in per_request.items()}


def by_function(spans, selfs):
    """Calls and summed self time (seconds) per span name."""
    table = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, selfs):
        table[span[0]][0] += 1
        table[span[0]][1] += own
    return table
