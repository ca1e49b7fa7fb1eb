"""Span tracer that wraps the program's functions from outside.

A probe names one function of a ``fracchrom`` module.  Installing the
probes replaces that function with a timing wrapper everywhere the
package holds a reference to it: in its own module, and under every name
another module imported it by (``from .sampler import monte_carlo`` in
``cli``, for instance).  Spans stay in memory; ``layers.layer_metrics``
turns them into the per-layer numbers after the run.  An untraced run never
calls ``install`` and so leaves every module untouched.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (calls nest,
        since everything runs on one thread)."""
        return self.end - self.start - self.child_s


class Tracer:
    """Records one span per wrapped call, and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.uncounted: set[str] = set()
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, counter=None):
        """``fn`` inside a span called ``name``.  ``counter(args, kwargs,
        result)`` returns a mapping of counter names to amounts to add."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, tracer.clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.end - span.start
            if counter is not None:
                try:
                    for key, amount in counter(args, kwargs, result).items():
                        tracer.count(key, amount)
                except (AttributeError, TypeError, IndexError):
                    # the function's result changed shape; the counter
                    # reads zero and the run reports it by name
                    tracer.uncounted.add(name)
            return result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.self_s
        return out


@dataclass(frozen=True)
class Probe:
    module: str  # e.g. "fracchrom.sampler"
    attr: str
    counter: Optional[Callable] = None

    @property
    def name(self) -> str:
        return self.module.rsplit(".", 1)[-1] + "." + self.attr


def install(tracer: Tracer, probes, package: str = "fracchrom"):
    """Wrap every probe's function and rebind every reference to it in
    the package's loaded modules.  Returns ``(restore, missing)``: a
    callable that puts the originals back, and the probes whose function
    no longer exists (their metrics then read zero)."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    patched = []
    missing = []
    for probe in probes:
        home = sys.modules.get(probe.module)
        original = getattr(home, probe.attr, None) if home is not None else None
        if original is None:
            missing.append(probe.name)
            continue
        wrapper = tracer.wrap(original, probe.name, probe.counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))

    def restore():
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)

    return restore, missing
