"""Spans and counts recorded around public layer entry points.

The tracer patches callables from the outside and puts the originals
back afterwards; nothing in ``src/`` knows it exists.  A span is
``[name, start_ns, end_ns, parent_index]`` kept in memory; the caller
writes them out when the run ends.  Boundaries that are called too often
for a span each (``Chart.ancestors`` runs millions of times in the model
checker) are counted instead.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: modules whose global bindings are rewritten when a function is wrapped:
#: the program's own and the benchmark's (which imports what it calls)
PATCHED_PACKAGES = ("repro", "perfbench")

Span = List[Any]  # [name, start_ns, end_ns, parent_index]


class Tracer:
    """Records spans (and counts) for every wrapped callable."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable,
                      hook: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrapper(self, name: str, fn: Callable, count_only: bool,
                 hook: Optional[Callable]) -> Callable:
        if count_only:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn, hook)

    # -- patching ------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, *,
                    count_only: bool = False,
                    hook: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (a plain method defined on *cls*)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, count_only, hook))

    def wrap_function(self, fn: Callable, name: str, *,
                      count_only: bool = False,
                      hook: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every module that binds it.

        ``from x import f`` copies the binding, so the defining module and
        each importer are patched alike.
        """
        wrapper = self._wrapper(name, fn, count_only, hook)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(
                    PATCHED_PACKAGES):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise ValueError(f"{name}: {fn!r} is bound in no loaded module")

    def restore(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- digestion -----------------------------------------------------
    def calls(self) -> Counter:
        """Calls per boundary: spans plus count-only boundaries."""
        calls = Counter(self.counts)
        for span in self.spans:
            calls[span[0]] += 1
        return calls

    def to_json(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts)}


def covered_ns(intervals: Iterable[Sequence[int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted((s, e) for s, e in intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Per span name: the summed duration not covered by child spans."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent) in enumerate(spans):
        inner = [(max(s, start), min(e, end))
                 for s, e in children.get(index, ()) if e > start and s < end]
        totals[name] += (end - start) - covered_ns(inner)
    return dict(totals)


def top_level_ns(spans: Sequence[Span]) -> int:
    """Time covered by spans that have no parent span."""
    return covered_ns((start, end) for _n, start, end, parent in spans
                      if parent < 0)


def durations_ns(spans: Sequence[Span], name: str) -> List[int]:
    """Inclusive durations of every span called *name*, in call order."""
    return [end - start for n, start, end, _p in spans if n == name]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share))
    return float(ordered[rank - 1])
