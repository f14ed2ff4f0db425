"""Span tracing of the gradnotch layers, installed from outside the program.

`Tracer.install()` replaces each function in TARGETS at every name it is
bound under in any `gradnotch` module (modules import each other's
functions by name), wraps `PolarSeries.eval` on the class and counts
`PolarSeries` constructions; `Tracer.uninstall()` puts every original
binding back. Wrappers record nothing unless a request is in flight, so
the benchmark's own reference computations are not counted.

Each thread keeps its own span stack. A span opened on a thread with an
empty stack belongs to the request in flight and becomes a child of the
request's root span: that is how the sweep's pool workers attach to their
request. A span's self time is its duration minus the union of its child
intervals, so children that overlap in time (two pool workers) are not
subtracted twice. Spans are reduced to per-name totals as they close.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _points_first_arg(args, kwargs, result):
    n = int(np.size(args[0]))
    return {"points": n, "scalar_calls": int(n == 1)}


def _points_eval(args, kwargs, result):
    # args = (self, r, theta)
    return {"points": int(np.broadcast(np.asarray(args[1]),
                                       np.asarray(args[2])).size)}


def _roots_found(args, kwargs, result):
    return {"roots_found": len(result)}


def _checks_failed(args, kwargs, result):
    return {"checks_failed": sum(1 for c in result.checks if not c.passed)}


# (module, function, span name, extra counters from (args, kwargs, result))
TARGETS = (
    ("gradnotch.charfn", "char_bracket", "charfn.char_bracket",
     _points_first_arg),
    ("gradnotch.eigensolver", "find_roots", "eigensolver.find_roots",
     _roots_found),
    ("gradnotch.basis", "bc_matrix", "basis.bc_matrix", None),
    ("gradnotch.basis", "bc_det", "basis.bc_det", None),
    ("gradnotch.basis", "null_space", "basis.null_space", None),
    ("gradnotch.basis", "eigenfield", "basis.eigenfield", None),
    ("gradnotch.fields", "field_series_map", "fields.field_series_map", None),
    ("gradnotch.fields", "dipolar_series", "fields.dipolar_series", None),
    ("gradnotch.fields", "total_theta_series", "fields.total_theta_series",
     None),
    ("gradnotch.equilibrium", "check_equilibrium",
     "equilibrium.check_equilibrium", None),
    ("gradnotch.equilibrium", "resultant_on_arc",
     "equilibrium.resultant_on_arc", None),
    ("gradnotch.verify", "run_suite", "verify.run_suite", _checks_failed),
    ("gradnotch.verify", "det_vs_charfn", "verify.det_vs_charfn", None),
)


class _Span:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.parent = parent
        self.children = []


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = defaultdict(int)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self._request = None
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []

    # -- spans ----------------------------------------------------------

    @contextmanager
    def request(self, request_id, name: str):
        """Root span of one request; nested spans on any thread attach."""
        self._request = request_id
        root = self._enter(name)
        self._root = root
        try:
            yield root
        finally:
            self._exit(root)
            self._request = self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = _Span(name, self.clock(), parent)
        stack.append(span)
        return span

    def _exit(self, span: _Span, extra=None) -> None:
        end = self.clock()
        self._stack().pop()
        own = end - span.start - covered(span.start, end, span.children)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        with self._lock:
            stat = self.stats[span.name]
            stat.calls += 1
            stat.self_s += own
            for key, value in (extra or {}).items():
                stat.extra[key] += value

    def count(self, name: str) -> None:
        if self._request is not None:
            with self._lock:
                self.counters[name] += 1

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(span, {"raised." + type(exc).__name__: 1})
                raise
            tracer._exit(span, measure(args, kwargs, result)
                         if measure else None)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gradnotch" or n.startswith("gradnotch."))
                   and m is not None]
        for mod_name, fn_name, span_name, measure in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            traced = self._wrap(original, span_name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, traced)

        from gradnotch.model import PolarSeries
        post_init = PolarSeries.__post_init__
        tracer = self

        def counted_post_init(series):
            tracer.count("model.PolarSeries.created")
            post_init(series)

        self._installed.append((PolarSeries, "__post_init__", post_init))
        PolarSeries.__post_init__ = counted_post_init
        self._installed.append((PolarSeries, "eval", PolarSeries.eval))
        PolarSeries.eval = self._wrap(PolarSeries.eval,
                                      "model.PolarSeries.eval", _points_eval)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []
