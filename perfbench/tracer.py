"""Layer tracing for the benchmark, installed from outside the package.

Every public function of each traced ``hitpro`` module is wrapped, and the
wrapper is written into every ``hitpro`` module that holds the original
under the same name. The package imports with ``from .x import y``, so
patching only the defining module would miss calls made through the
importing module's own global.

Each call records a span (id, layer name, thread, start, end, parent id).
Parents come from a per-thread stack. A span that opens on a thread with no
open span, such as a thread-pool worker, takes as parent the innermost span
open on the thread that installed the tracer, which is the one that
submitted the work. Spans stay in memory; ``summary`` turns them into call
counts and times once the traced work is done. A span's self time is its
duration minus the part of it that its children cover, so a span that waits
on pool workers is not charged for their work, while the workers' own self
times add up across threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, layers: tuple[str, ...]):
        self._package = package
        self._layers = layers
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, str, int, float, float, int | None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, namer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(name, args) if namer else name
            stack = self._stack()
            span_id = next(self._ids)
            try:
                parent = (stack or self._home_stack)[-1]
            except IndexError:
                parent = None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, span_name, threading.get_ident(), start, end, parent)
                )

        return traced

    def install(self, namers=None) -> None:
        """Wrap the public functions of every traced layer.

        ``namers`` maps a qualified name such as ``"cli.main"`` to a function
        of (name, call args) giving the span name of one call.
        """
        namers = namers or {}
        self._home_stack = self._stack()
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == self._package or key.startswith(self._package + "."))
        ]
        for layer in self._layers:
            mod = sys.modules[f"{self._package}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qualified = f"{layer}.{attr}"
                wrapper = self._wrap(qualified, fn, namers.get(qualified))
                for holder in modules:
                    if getattr(holder, attr, None) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over all spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for span_id, name, _, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - _covered(children.get(span_id, []))
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals; children on pool threads overlap."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
