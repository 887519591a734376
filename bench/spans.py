"""Span tracer that times radrisk's layers from outside the package.

A hook replaces one function, for the duration of a ``with hooked(...)``
block, under the module attribute its caller looks it up by (for example
``radrisk.evaluation.cv.mrmr_select`` is the name ``_one_repeat`` calls).
Nothing under ``src/`` is edited. Every call then records a span: layer name,
start, end, parent span and run id. Spans stay in memory; the benchmark writes
them out when the run ends.

A layer's self time is its span's duration minus the durations of its direct
children. Calls are single-threaded and strictly nested, so children never
overlap and the self times of one root span's tree sum to that root's
duration.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` (``module.attribute``) as layer ``layer``.

    ``layer`` may be a function of the call's ``(args, kwargs)`` that returns
    the layer name. ``count`` is called as ``count(tracer, layer, args,
    kwargs, result)`` after the call returns, outside the span.
    """

    target: str
    layer: str | Callable
    count: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    def counter(self, run_id: int, key: str) -> float:
        return self.counters.get((run_id, key), 0)

    def roots(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == -1 and s.run_id == run_id]

    def layer_totals(self, run_ids) -> dict[str, dict[str, float]]:
        """Per layer: summed self time and call count."""
        run_ids = set(run_ids)
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for k, s in enumerate(self.spans):
            if s.run_id not in run_ids:
                continue
            row = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += (s.end - s.start) - child_time[k]
            row["calls"] += 1
        return out

    def durations(self, name: str, run_ids) -> list[float]:
        run_ids = set(run_ids)
        return [s.end - s.start for s in self.spans if s.name == name and s.run_id in run_ids]

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _wrap(tracer: Tracer, hook: Hook, fn):
    layer = hook.layer

    def wrapper(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        result = tracer.call(name, fn, *args, **kwargs)
        if hook.count is not None:
            hook.count(tracer, name, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def hooked(tracer: Tracer, hooks):
    """Install ``hooks`` for the block and restore the originals after it."""
    saved = []
    try:
        for hook in hooks:
            module_name, attr = hook.target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, hook, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
