"""Per-layer spans for the traced run, installed from outside the library.

Every public function of the layer modules is wrapped, and the wrapper
replaces the original under each name a ``chp_pack`` module looks it up
by (``from .chp import solve_border`` binds a second name).  Nothing
under ``src/`` changes.  A span's self time is its duration minus the
durations of the spans it called; spans nest on one stack because the
benchmark has a single caller thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

LAYERS = ("chp", "builder", "validation", "optimizer", "geometry", "configio", "svg")


@dataclass
class Span:
    """Totals of one wrapped function over a traced pass."""

    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    work: Dict[str, int] = field(default_factory=dict)  # counts beyond calls, by label
    inputs: set = field(default_factory=set)


def _add_dnas(span: Span, args, kwargs, out) -> None:
    span.work["dnas"] += len(out)


def _add_bytes(span: Span, args, kwargs, out) -> None:
    span.work["bytes"] += len(out.encode("utf-8"))


def _add_input(span: Span, args, kwargs, out) -> None:
    span.inputs.add((args, tuple(sorted(kwargs.items()))))
    span.work["distinct"] = len(span.inputs)


# Work counts beyond calls, read where the work happens: label and updater.
_COUNTERS: Dict[str, tuple] = {
    "chp.solve_border": ("distinct", _add_input),
    "chp.enumerate_dnas": ("dnas", _add_dnas),
    "configio.dumps_config": ("bytes", _add_bytes),
    "svg.render_svg": ("bytes", _add_bytes),
}


class Tracer:
    """Span bookkeeping; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans: Dict[str, Span] = {}
        self._stack: List[float] = []  # per open span: time spent in its child spans

    def reset(self) -> None:
        for name in self.spans:
            self.spans[name] = self._fresh(name)

    @staticmethod
    def _fresh(name: str) -> Span:
        label, _ = _COUNTERS.get(name, (None, None))
        return Span(work={label: 0} if label else {})

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.spans[name] = self._fresh(name)
        _, counter = _COUNTERS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.spans[name]
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed += 1
                raise
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(span, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer under all its names, aliases too."""
        package = [m for n, m in list(sys.modules.items()) if n == "chp_pack" or n.startswith("chp_pack.")]
        for layer in LAYERS:
            module = importlib.import_module(f"chp_pack.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", obj)
                for other in package:
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, alias, traced)

    def metrics(self) -> Dict[str, float]:
        """Flat per-pass figures: ``<layer>.<fn>.<counter>`` and ``<layer>.self_s``."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.failed"] = span.failed
            out[f"{name}.self_s"] = span.self_s
            out[name.split(".")[0] + ".self_s"] += span.self_s
            out.update((f"{name}.{label}", value) for label, value in span.work.items())
        return out


def memo_clear(fn: Callable) -> Callable[[], None]:
    """The cache-clearing hook of ``fn`` or of anything it wraps; a no-op if none."""
    while fn is not None:
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            return clear
        fn = getattr(fn, "__wrapped__", None)
    return lambda: None
