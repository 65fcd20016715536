"""Spans recorded from outside the program, around its public entry points.

The benchmark never edits ``src/``.  To see inside a request it replaces
instance attributes of live objects (``engine.search_many``,
``engine.refine.run``, ``point_file.fetch``, ...) with timing wrappers,
keeps the spans in memory while the workload runs, and writes them as
JSON lines when the run ends.  ``unwrap`` restores every attribute, so
code that runs after the traced window (the oracle, the ladder) is not
timed.

A span's parent is the span open on the same thread when it started,
so the replica pool's worker threads each build their own tree.  Calls
made hundreds of times per query (page fetches) are *folded*: they get
no span of their own; their time and count are added to the enclosing
span, which keeps the self-time arithmetic exact and the span list
small.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call (or an externally timed interval such as a request)."""

    id: int
    name: str
    start: float
    parent: int | None = None
    #: id of the ``engine.search_many`` span this call ran under.
    batch: int | None = None
    end: float = 0.0
    #: time covered by direct children, recorded or folded
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time the span's children cover."""
        return self.duration - self.child_s


class Tracer:
    """Wraps instance attributes with span-recording timers."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # The bottom of every thread's stack collects folded calls
            # made outside any recorded span.
            stack = self._local.stack = [Span(next(self._ids), "thread", self.clock())]
            self.spans.append(stack[0])
        return stack

    def wrap(self, obj, attr: str, name: str, *, batch_root=False, fold=False,
             observe=None) -> None:
        """Replace ``obj.<attr>`` with a wrapper recording span ``name``.

        ``batch_root`` marks the span as a batch (its id becomes the
        ``batch`` of every span under it).  ``fold`` records no span and
        charges the call to the enclosing span instead.  ``observe(args,
        result)`` returns attributes to store on the span; names starting
        with ``_`` stay in memory and are not written out.
        """
        original = getattr(obj, attr)
        clock = self.clock

        if fold:
            def traced(*args, **kwargs):
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    parent = self._stack()[-1]
                    parent.child_s += elapsed
                    calls, seconds = parent.attrs.get(name, (0, 0.0))
                    parent.attrs[name] = (calls + 1, seconds + elapsed)
        else:
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1]
                span = Span(next(self._ids), name, clock())
                if parent.name != "thread":
                    span.parent = parent.id
                    span.batch = parent.batch
                if batch_root:
                    span.batch = span.id
                stack.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                    parent.child_s += span.duration
                    self.spans.append(span)
                if observe is not None:
                    span.attrs.update(observe(args, result))
                return result

        own = vars(obj)
        self._restore.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, traced)

    def add(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record an interval timed elsewhere (a request, a mutation)."""
        span = Span(next(self._ids), name, start, end=end, attrs=attrs)
        self.spans.append(span)
        return span

    def unwrap(self) -> None:
        """Restore every wrapped attribute (latest wrap first)."""
        while self._restore:
            obj, attr, had_own, previous = self._restore.pop()
            if had_own:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def folded(self, name: str) -> tuple[int, float]:
        """Calls and seconds of a folded call, over the whole run."""
        totals = [s.attrs[name] for s in self.spans if name in s.attrs]
        return sum(c for c, _ in totals), sum(t for _, t in totals)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span; times in seconds from tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                if span.name == "thread":
                    continue
                fh.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "start": span.start - self.origin,
                    "end": span.end - self.origin,
                    "parent": span.parent,
                    "batch": span.batch,
                    "self_s": span.self_s,
                    **{
                        k: _plain(v)
                        for k, v in span.attrs.items()
                        if not k.startswith("_")
                    },
                }) + "\n")


def _plain(value):
    """JSON-friendly copy of a span attribute."""
    if isinstance(value, tuple):
        return list(value)
    return value
