"""Spans and counters recorded from outside the program.

The program imports functions by name (``from .kernel import
build_grams``), so a call from one layer into another goes through an
attribute of the *calling* module.  :class:`Tracer` replaces those
attributes with timing wrappers for the length of a traced run and
restores them afterwards; no file of the program changes.

A span is (name, start, end, parent, op).  Spans stay in memory and
are written once, when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
The tracer keeps one stack, so it must only see calls from one thread;
none of the benchmark's workloads start threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


@dataclass(frozen=True)
class Probe:
    """One program function and the module attributes that reach it.

    ``home`` is the ``module:attribute`` that defines the function;
    ``patch`` lists the modules whose attribute of that name is replaced.
    ``span`` is the span name, or None to only count.  ``count`` maps (args, kwargs) to ``(counter, amount)``; it runs after
    the call returns, so it may look at files the call wrote.
    """

    home: str
    patch: Tuple[str, ...]
    span: Optional[str]
    count: Optional[Callable] = None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _n_cols(a) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[-1]) if len(shape) else 1


def _gram_entries(args, kwargs):
    n = _n_cols(_arg(args, kwargs, 0, "X"))
    return "kernel.gram_entries", n * n


def _grams_entries(args, kwargs):
    n = _n_cols(_arg(args, kwargs, 0, "X"))
    return "kernel.gram_entries", 3 * n * n  # K_X, K_U and eK_XY


def _interp_points(args, kwargs):
    q = _arg(args, kwargs, 0, "query")
    ndim = getattr(q, "ndim", 1)
    return "hjb.interp_points", 1 if ndim == 1 else _n_cols(q)


def _euler_steps(args, kwargs):
    return "systems.euler_steps", int(_arg(args, kwargs, 5, "substeps"))


def _bytes_written(args, kwargs):
    return "store.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path"))


def _bytes_read(args, kwargs):
    return "store.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path"))


#: Every layer boundary the traced run records.  An attribute is patched
#: only where no other patched function reaches it too, so a span never
#: nests inside a span of the same function: ``kernel.gram`` is patched
#: in its callers, not in ``kmeoc.kernel``, whose ``build_grams`` calls it.
PROBES: Sequence[Probe] = (
    Probe("kmeoc.systems:generate_dataset",
          ("kmeoc.systems", "kmeoc.bench", "kmeoc.cli"), "systems.generate"),
    Probe("kmeoc.systems:euler_maruyama_step", ("kmeoc.systems",), None,
          _euler_steps),
    Probe("kmeoc.kernel:build_grams", ("kmeoc.estimator", "kmeoc.cli"),
          "kernel.gram", _grams_entries),
    Probe("kmeoc.kernel:gram", ("kmeoc.estimator", "kmeoc.fpk"),
          "kernel.gram", _gram_entries),
    Probe("kmeoc.kernel:cross_vector", ("kmeoc.hjb", "kmeoc.fpk"),
          "kernel.cross"),
    Probe("scipy.linalg:cho_factor", ("kmeoc.estimator", "kmeoc.fpk"),
          "estimator.factor"),
    Probe("scipy.linalg:cho_solve",
          ("kmeoc.estimator", "kmeoc.hjb", "kmeoc.fpk"), "estimator.solve"),
    Probe("kmeoc.estimator:fit_krr",
          ("kmeoc.estimator", "kmeoc.bench", "kmeoc.cli"), "estimator.fit"),
    Probe("kmeoc.estimator:enforce_markov",
          ("kmeoc.estimator", "kmeoc.bench", "kmeoc.cli"), "estimator.markov"),
    Probe("kmeoc.estimator:departure_from_normality",
          ("kmeoc.estimator", "kmeoc.cli"), "estimator.normality"),
    Probe("kmeoc.hjb:khjb_recursion",
          ("kmeoc.hjb", "kmeoc.bench", "kmeoc.cli"), "hjb.recursion"),
    Probe("kmeoc.hjb:policy_interpolate",
          ("kmeoc.hjb", "kmeoc.bench", "kmeoc.cli"), "hjb.interp",
          _interp_points),
    Probe("kmeoc.fpk:embed_initial", ("kmeoc.fpk", "kmeoc.cli"), "fpk.embed"),
    Probe("kmeoc.fpk:propagate", ("kmeoc.fpk", "kmeoc.cli"), "fpk.propagate"),
    Probe("kmeoc.fpk:forecast_observable_path", ("kmeoc.fpk", "kmeoc.cli"),
          "fpk.forecast"),
    Probe("kmeoc.store:save", ("kmeoc.store",), "store.save", _bytes_written),
    Probe("kmeoc.store:load", ("kmeoc.store",), "store.load", _bytes_read),
    Probe("kmeoc.bench:rmse_policy", ("kmeoc.bench",), "bench.score"),
)


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - a wrapper bug, not a run fault
            raise RuntimeError("span stack out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, counter: str, amount: float) -> None:
        self.counters[self.op][counter] += amount

    # -- installing -----------------------------------------------------
    def _wrap(self, fn, probe: Probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(probe.span) if probe.span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.end(idx)
            if probe.count is not None:
                tracer.add(*probe.count(args, kwargs))
            return result

        return wrapper

    def install(self) -> None:
        for probe in PROBES:
            home_name, attr = probe.home.split(":")
            original = getattr(importlib.import_module(home_name), attr)
            wrapper = self._wrap(original, probe)
            for mod_name in probe.patch:
                mod = importlib.import_module(mod_name)
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod_name}.{attr} is not {probe.home}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading --------------------------------------------------------
    def op_spans(self, op: int) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.op == op]

    def self_times(self, op: int) -> Dict[str, float]:
        """Span name -> summed self time over the operation's spans."""
        idx = self.op_spans(op)
        child = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: Dict[str, float] = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)

    def span_counts(self, op: int) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for i in self.op_spans(op):
            out[self.spans[i].name] += 1
        return dict(out)

    def dump(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.op] for s in self.spans
        ]


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, timed on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, Probe("", (), "calibrate"))
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls
