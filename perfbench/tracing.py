"""In-memory spans recorded around calls into the package's modules.

A hook replaces a module attribute with a wrapper for as long as a traced pass
runs, and puts the original back afterwards. The attribute patched is the one
the caller looks up (``blocktrade.pricing.newton_solve``, not
``blocktrade.solver.newton_solve``), since modules bind imported names at
import time. Spans stay in memory; nothing is written while a pass runs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``parent`` is an index into ``spans``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.clock(), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` inside a span; ``note(result)`` may attach a dict to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.info = note(result)
                return result

        return traced

    @contextmanager
    def installed(self, hooks):
        """Patch each ``(module, attr, span_name, note)`` hook for the duration.

        Attributes a module does not have are skipped and listed in the yielded
        list, so a refactor that drops a call site leaves that layer at zero
        instead of breaking the benchmark.
        """
        saved = []
        missing = []
        try:
            for module, attr, name, note in hooks:
                if not hasattr(module, attr):
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, note))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the sum
        of their durations is the time they cover.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]
