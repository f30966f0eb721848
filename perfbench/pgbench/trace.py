"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions of the program's layers with
thin wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Nothing inside ``src/`` is
edited; :meth:`Tracer.restore` puts every original back.

The benchmark's load is one closed loop (the next operation starts only
after the previous one returned), so even the async driver's handler
tasks open and close their spans in call order.  Parents therefore come
from one process-wide stack, which also links spans across the tasks
of one request.  Spans are kept in memory and summarised at the end:
a layer's *self time* is its spans' durations minus the time their
child spans cover, and the time *no layer claims* is the self time of
the benchmark's own root spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]

_clock = time.perf_counter


def _skip_open(_name: str) -> int:
    return -1


def _skip(_index: int) -> None:
    return None


class Tracer:
    """In-memory span recorder with attribute wrapping."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        #: Free-form counters recorded at the same boundaries.
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        stack = self._stack
        if stack and stack[-1] == index:
            stack.pop()
        else:  # closed out of order: drop it wherever it sits
            stack.remove(index)

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named *name*."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def root_name(self) -> str | None:
        """Name of the root span currently open (the operation in flight)."""
        return self.spans[self._stack[0]][0] if self._stack else None

    def wrap(self, owner, attr: str, name: str, *, after=None, transform=None,
             span: bool = True) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        Each call is counted under *name* and, unless ``span=False``,
        recorded as a span.  Coroutine functions get an async wrapper.
        *transform*, if given, maps ``(args, kwargs)`` to the arguments
        actually passed on; *after*, if given, is called as
        ``after(result, args, kwargs)`` once the call returns.
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        counts = self.counts
        open_, close = (self._open, self._close) if span else (_skip_open, _skip)

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced(*args, **kwargs):
                if transform is not None:
                    args, kwargs = transform(args, kwargs)
                index = open_(name)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    close(index)
                counts[name] += 1
                if after is not None:
                    after(result, args, kwargs)
                return result

        else:

            @functools.wraps(func)
            def traced(*args, **kwargs):
                if transform is not None:
                    args, kwargs = transform(args, kwargs)
                index = open_(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    close(index)
                counts[name] += 1
                if after is not None:
                    after(result, args, kwargs)
                return result

        if isinstance(original, classmethod):
            def unbound(cls, *args, **kwargs):
                return traced(*args, **kwargs)

            setattr(owner, attr, classmethod(functools.wraps(func)(unbound)))
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(out)

    def by_root(self) -> dict[tuple[str, str], list[float]]:
        """``(root name, span name) -> [calls, inclusive seconds]``."""
        roots: list[int] = []
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, parent) in enumerate(self.spans):
            root = index if parent < 0 else roots[parent]
            roots.append(root)
            row = out[(self.spans[root][0], name)]
            row[0] += 1
            row[1] += end - start
        return dict(out)
