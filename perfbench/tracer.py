"""In-memory spans around calls the benchmark wraps at run time.

A span is (id, name, start, end, parent id, query id, tag, error). Spans
nest per thread: a wrapped call made while another wrapped call is running
on the same thread becomes its child and inherits its query id. The tag
names the benchmark phase (a setup repeat or a pass over the test set), so
counts can be taken per phase. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    qid: str
    tag: str
    error: str  # exception class name, "" when the call returned

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans and counts from wrapped callables.

    install() replaces attributes on modules or classes with wrappers and
    remembers the originals; uninstall() puts them back, so a phase can run
    with no wrapper in place at all.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.tag = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(name, self.tag)] += n

    def record(self, name: str, value: float) -> None:
        self.values[(name, self.tag)].append(value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        qid_of: Callable | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """A span around every call of fn. qid_of(args, kwargs) names the
        query for a root span; on_result(tracer, result, args, kwargs) may
        record counts or values from what the call returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, qid = stack[-1]
            else:
                parent, qid = -1, qid_of(args, kwargs) if qid_of else tracer.tag
            sid = next(tracer._ids)
            stack.append((sid, qid))
            error = ""
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, qid, tracer.tag, error)
                )
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """A call counter with no span, for functions called per candidate."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace owner.attr with make(original). Returns False, and changes
        nothing, when owner has no such attribute."""
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent interval and merged where they
    overlap, so time two children share is subtracted once.
    """
    children: defaultdict = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = s.duration_ns - covered
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
