"""Outside-in tracing: temporary wrappers around the package's public functions.

The package looks its functions up as module attributes, so a wrapper that
replaces ``module.name`` also sees the package's own internal calls.  Each
wrapper records a span (name, start, end, parent span, op id, tag) and a call
count; spans stay in memory until the run writes them out.  ``remove``
restores every original object, so an untraced run executes unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int
    tag: str


class Tracer:
    """Installs span-recording wrappers and keeps what they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.work: Counter = Counter()  # counts taken from return values
        self.op = -1
        self._open: list = []  # [name, start, end, parent, op, tag] records
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, tag=None, on_result=None):
        """`fn` with a span around every call.

        `tag(*args, **kwargs)` labels the span (for instance with a grid
        shape); `on_result(value)` returns a dict of work counts to add.
        """
        records, stack, calls, work, clock = (
            self._open, self._stack, self.calls, self.work, self.clock
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            label = tag(*args, **kwargs) if tag is not None else ""
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, label]
            stack.append(len(records))
            records.append(rec)
            try:
                value = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                work.update(on_result(value))
            return value

        return wrapper

    def patch(self, owner, key, name, **hooks):
        """Replace `owner.key` (or `owner[key]` for a dict) by a wrapper."""
        raw = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            new = self.wrap(name, raw, **hooks)
        self._patches.append((owner, key, raw))
        _assign(owner, key, new)

    def patch_module(self, module, hooks=None):
        """Wrap every public function defined in `module`.

        Spans are named `<last dotted part of the module>.<function>`;
        `hooks` maps such a name to keyword arguments for `wrap`.
        """
        hooks = hooks or {}
        short = module.__name__.rsplit(".", 1)[-1]
        for key, obj in list(vars(module).items()):
            if key.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{short}.{key}"
            self.patch(module, key, name, **hooks.get(name, {}))

    def remove(self):
        """Restore every patched object, newest first."""
        while self._patches:
            owner, key, raw = self._patches.pop()
            _assign(owner, key, raw)

    def spans(self):
        return [Span(*rec) for rec in self._open]


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(spans):
    """Each span's duration minus the union of its child spans' intervals."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, span.start), min(c_hi, span.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out


class TraceSummary:
    """Queries over one traced pass: self time, calls, durations, ancestry."""

    def __init__(self, spans, calls, work):
        self.spans = spans
        self.calls = Counter(calls)
        self.work = Counter(work)
        self.self_s = self_times(spans)
        self.by_name = defaultdict(list)
        for idx, span in enumerate(spans):
            self.by_name[span.name].append(idx)

    def layer_self_s(self, *prefixes):
        """Summed self time of spans named `p` or `p.*` for any prefix p."""
        names = [
            name for name in self.by_name
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        ]
        return sum(self.self_s[i] for name in names for i in self.by_name[name])

    def durations(self, name, tag=None):
        spans = (self.spans[i] for i in self.by_name.get(name, ()))
        return [s.end - s.start for s in spans if tag is None or s.tag == tag]

    def median_duration(self, name, tag=None):
        found = self.durations(name, tag)
        return statistics.median(found) if found else 0.0

    def total_duration(self, name):
        return sum(self.durations(name))

    def count_under(self, name, ancestor):
        """How many `name` spans have an enclosing `ancestor` span."""
        count = 0
        for idx in self.by_name.get(name, ()):
            parent = self.spans[idx].parent
            while parent >= 0:
                if self.spans[parent].name == ancestor:
                    count += 1
                    break
                parent = self.spans[parent].parent
        return count


def spans_to_csv(spans):
    lines = ["name,start,end,parent,op,tag"]
    for s in spans:
        lines.append(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.op},{s.tag}")
    return "\n".join(lines) + "\n"

