"""Outside-in call tracer: spans recorded by rebinding module attributes.

A :class:`Tracer` replaces a function reached through a module attribute
(``owner.attr``) with a wrapper that records one span per call, then puts the
original back on :meth:`Tracer.restore` (or when the ``with`` block ends).
Callers that look the name up at call time -- every call between twinreg
modules does -- go through the wrapper, so nothing inside the package changes.

A span is ``[name, start, end, parent, raised]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``raised`` is true when the call ended
in an exception.  Spans stay in memory; :func:`summarize` turns them into
per-name totals with self time (duration minus the time covered by direct
children).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    """Records spans for every call to the functions it wraps.

    ``observe(tracer, index, args, kwargs, result)``, when given to
    :meth:`wrap`, runs after a call that returned; it sees the span index so
    it can look up the parent, and may keep whatever it needs from the call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(self, index, args, kwargs, result)
                return result
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][PARENT]
        return None if parent < 0 else self.spans[parent][NAME]

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-name and per-(name, parent name) call counts and times.

    Self time is a span's duration minus the summed durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    by_name: dict[str, SpanStats] = {}
    by_parent: dict[tuple, SpanStats] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        for stats in (
            by_name.setdefault(span[NAME], SpanStats()),
            by_parent.setdefault((span[NAME], parent), SpanStats()),
        ):
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - child_s[index]
            stats.raised += bool(span[RAISED])
    return by_name, by_parent
