"""Outside-in tracing for the per-layer run.

Wrappers are installed around the public entry points of each `iabsim`
module from here, so the program under test carries no tracing code. Spans
are kept in flat arrays (name, parent, start, end) while the run goes on and
are written out, and reduced to per-layer calls, total time and self time,
only after it ends. A layer's self time is its span's duration minus the
part covered by its child spans.
"""
from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.inputs: set = set()  # distinct inputs of one wrapped call
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with a span recorded around every call."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def count(self, name: str, fn):
        """`fn` with its calls counted but not timed."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers -------------------------------------------------

    def patch(self, obj, attr: str, make, restore: bool = True) -> None:
        """Replace `obj.attr` by `make(obj.attr)`.

        A missing entry point raises AttributeError, so a traced pass on code
        that has moved or renamed one fails instead of reporting 0 for it.
        """
        old = getattr(obj, attr)
        if restore:
            self._undo.append((obj, attr, old))
        setattr(obj, attr, make(old))

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- reduction -------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and each call's duration."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
            row["durations"].append(dur[i])
        return out

    def write_spans(self, path) -> None:
        """One span a line: id, parent id, name, start and duration in us."""
        t0 = self.start[0] if len(self.start) else 0.0
        names, nid, parent, start, end = (self.names, self.name_id, self.parent,
                                          self.start, self.end)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_us\tdur_us\n")
            fh.writelines(
                f"{i}\t{parent[i]}\t{names[nid[i]]}\t{(start[i] - t0) * 1e6:.3f}"
                f"\t{(end[i] - start[i]) * 1e6:.3f}\n" for i in range(len(start)))


def percentile_us(durations: list[float], pct: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100)[pct - 1] * 1e6


def deep_size_bytes(root) -> int:
    """Bytes held by `root` and every object reachable from it.

    Classes, modules and functions are not followed, so shared program
    state is not counted.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    skip = (type, type(sys), type(deep_size_bytes))
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, skip):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif not isinstance(o, (str, bytes, int, float, bool)) and o is not None:
            if hasattr(o, "__dict__"):
                stack.append(o.__dict__)
            for cls in type(o).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(o, slot):
                        stack.append(getattr(o, slot))
    return total
