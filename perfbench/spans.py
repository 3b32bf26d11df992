"""In-memory spans for the traced benchmark run.

A span records one call into a layer: its name, start, end, the span that
was open when it started (its parent), the request it served, and two
work counts the caller supplies (``units``, e.g. psi terms or samples, and
``size``, the input length).  Spans are kept in a list and written out
once the run ends; nothing is printed or flushed while work is timed.

Nothing in roughir waits on a queue, a lock or another process, so spans
carry busy time only: there is no wait-time field.
"""

import contextlib
from time import perf_counter

# field positions in a span record
NAME, START, END, PARENT, REQUEST, UNITS, SIZE, ERROR = range(8)


class Tracer:
    """Collects spans while ``enabled``; a disabled tracer only forwards calls."""

    def __init__(self):
        self.enabled = False
        self.request = None
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, units=None, size=None, **kwargs):
        """fn(*args, **kwargs), recorded as span ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._record(name, fn, args, kwargs, None, units, size)

    def _record(self, name, fn, args, kwargs, measure, units, size):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.request, units, size, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            rec[ERROR] = type(e).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        if measure is not None:
            rec[UNITS], rec[SIZE] = measure(args, result)
        return result

    def _wrapper(self, name, fn, measure):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, measure, None, None)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, patches):
        """Replace each (owner, attribute, span name, measure) by a recording
        wrapper for the duration of the block, then restore the originals.
        The wrappers record unconditionally, so pair this with ``active()``.

        ``measure(args, result)`` returns the span's (units, size)."""
        saved = []
        try:
            for owner, attr, name, measure in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, measure))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.request = None

    # ------------------------------------------------------------------
    # derived quantities

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def select(self, name, where=None):
        """Indices of spans called ``name`` that satisfy ``where(span)``."""
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and (where is None or where(s))]

    def dump(self):
        """Spans as JSON-ready rows (times in seconds from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[REQUEST],
                 s[UNITS], s[SIZE], s[ERROR]] for s in self.spans]
