"""Outside-in span tracing for the serving benchmark.

The tracer wraps public functions of the serving stack *at runtime, in the
benchmark process only*: :meth:`Tracer.install` replaces class attributes
with timing wrappers and :meth:`Tracer.uninstall` restores them.  Nothing
in the program under test changes.

Every wrapped call records one span: name, start, end, parent span, rows
handled and, for a root span, the ids of the request(s) it served (a
coalesced batch span lists every request it carried).  Spans are kept in
per-thread lists in memory and written out when the run ends.

Only calls inside a root span are recorded.  Root spans are the entry
points a request or a background task starts from (a coalesced batch, a
direct ``estimate_workload`` call, an adaptive-loop completion or refit),
so set-up work does not pollute the serving layers.  Whether a root is
traced is decided when it is entered (:attr:`Tracer.active`); everything
it calls is then recorded, or not, with it.

A span's *self time* is its duration minus the time its child spans
cover.  :func:`attribute_requests` splits each request's wall-clock window
into the self time of every span that served it plus the unattributed
remainder, which by construction sum to the window.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

#: ``(start_ns, end_ns)`` half-open interval.
Interval = tuple[int, int]

#: Stack marker of a root entered while tracing was off.
_UNTRACED = -2


@dataclass(frozen=True)
class Span:
    """One traced call (or one synthetic request phase)."""

    index: int
    name: str
    start_ns: int
    end_ns: int
    #: Index of the enclosing span, ``-1`` for a root.
    parent: int
    #: Rows (or plans) the call handled; 0 when not applicable.
    rows: int = 0
    #: Request keys a root span served; empty for nested spans.
    requests: tuple[Hashable, ...] = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded under ``name``."""

    name: str
    owner: type
    attr: str
    #: A root may open a span with no enclosing span on its thread.
    root: bool = False
    #: A root traced whether or not the tracer is active (a one-off task
    #: that must not fall into an untraced slice).
    always: bool = False
    #: ``rows(args, kwargs)`` -> rows handled by the call.
    rows: Callable[[tuple[Any, ...], dict[str, Any]], int] | None = None
    #: ``requests(args)`` -> request keys of a root span; defaults to the
    #: key set with :meth:`Tracer.tag` on the calling thread.
    requests: Callable[[tuple[Any, ...]], tuple[Hashable, ...]] | None = None


class Tracer:
    """Runtime function wrapping plus in-memory span storage."""

    def __init__(self) -> None:
        #: Roots entered while active are traced (wrappers stay installed).
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[list[Any]]] = []
        self._patches: list[tuple[type, str, Any]] = []

    # -- wrapping ------------------------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            self._patches.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def tag(self, key: Hashable) -> None:
        """Set the request key root spans opened on this thread will carry."""
        self._local.request = key

    def _thread_state(self) -> tuple[list[int], list[list[Any]]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            spans: list[list[Any]] = []
            local.spans = spans
            with self._lock:
                self._thread_spans.append(spans)
        return stack, local.spans

    def _wrap(self, target: Target, function: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        name, root, always, rows_of, requests_of = (
            target.name, target.root, target.always, target.rows, target.requests
        )
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack, _ = tracer._thread_state()
            if stack:
                # Inside a root, record or skip with it: whether a request
                # is traced is decided once, when its root is entered.
                if stack[-1] == _UNTRACED:
                    return function(*args, **kwargs)
                parent, requests = stack[-1], ()
            elif not root:
                return function(*args, **kwargs)
            elif not (tracer.active or always):
                stack.append(_UNTRACED)
                try:
                    return function(*args, **kwargs)
                finally:
                    stack.pop()
            else:
                parent = -1
                requests = (
                    requests_of(args)
                    if requests_of is not None
                    else (getattr(tracer._local, "request", None),)
                )
            spans = tracer._local.spans
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            record = [name, 0, 0, parent, rows, requests]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # -- results -------------------------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every recorded span, with parents re-indexed into one list."""
        with self._lock:
            per_thread = [list(spans) for spans in self._thread_spans]
        out: list[Span] = []
        for spans in per_thread:
            offset = len(out)
            for local_index, (name, start, end, parent, rows, requests) in enumerate(spans):
                out.append(
                    Span(
                        index=offset + local_index,
                        name=name,
                        start_ns=start,
                        end_ns=end,
                        parent=parent + offset if parent >= 0 else -1,
                        rows=rows,
                        requests=tuple(requests),
                    )
                )
        return out


# -- interval arithmetic ------------------------------------------------------------------------------
def _union(intervals: Iterable[Interval]) -> list[Interval]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _subtract(interval: Interval, covered: Sequence[Interval]) -> list[Interval]:
    """``interval`` minus a sorted, disjoint ``covered`` list."""
    start, end = interval
    pieces: list[Interval] = []
    cursor = start
    for lo, hi in covered:
        if hi <= cursor or lo >= end:
            continue
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def _clipped_length(pieces: Iterable[Interval], window: Interval) -> int:
    lo, hi = window
    return sum(max(0, min(end, hi) - max(start, lo)) for start, end in pieces)


def _children_of(spans: Sequence[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span.index)
    return children


def _self_pieces(spans: Sequence[Span]) -> list[list[Interval]]:
    """Per span: the parts of its interval no child span covers."""
    children = _children_of(spans)
    pieces: list[list[Interval]] = []
    for span in spans:
        covered = _union(
            (spans[c].start_ns, spans[c].end_ns) for c in children.get(span.index, ())
        )
        pieces.append(_subtract((span.start_ns, span.end_ns), covered))
    return pieces


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Self time of every span: duration minus what its children cover."""
    return [sum(end - start for start, end in p) for p in _self_pieces(spans)]


def _subtree(spans: Sequence[Span], root: int, children: Mapping[int, list[int]]) -> list[int]:
    found, todo = [], [root]
    while todo:
        index = todo.pop()
        found.append(index)
        todo.extend(children.get(index, ()))
    return found


def attribute_requests(
    spans: Sequence[Span], windows: Mapping[Hashable, Interval]
) -> dict[Hashable, dict[str, int]]:
    """Split each request's wall-clock window among the spans that served it.

    A request is served by every root span that lists its key, and by all
    of those roots' descendants.  Each instant of the request's window goes
    to the self time of the span covering it (clipped to the window); what
    no such span covers is ``"unattributed"``.  When the request's root
    spans do not overlap one another, the parts sum exactly to the window.
    """
    children = _children_of(spans)
    pieces = _self_pieces(spans)
    roots_by_request: dict[Hashable, list[int]] = defaultdict(list)
    for span in spans:
        if span.parent < 0:
            for key in span.requests:
                roots_by_request[key].append(span.index)
    out: dict[Hashable, dict[str, int]] = {}
    for key, window in windows.items():
        parts: dict[str, int] = defaultdict(int)
        roots = roots_by_request.get(key, [])
        for root in roots:
            for index in _subtree(spans, root, children):
                length = _clipped_length(pieces[index], window)
                if length:
                    parts[spans[index].name] += length
        covered = _union((spans[r].start_ns, spans[r].end_ns) for r in roots)
        parts["unattributed"] = (window[1] - window[0]) - _clipped_length(covered, window)
        out[key] = dict(parts)
    return out


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    """Write spans as gzipped JSON lines.

    One span per line: ``[index, name, start_ns, end_ns, parent, rows,
    requests]``, with ``parent`` an index into the same file (-1 for a root).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    [span.index, span.name, span.start_ns, span.end_ns,
                     span.parent, span.rows, [str(key) for key in span.requests]]
                )
                + "\n"
            )
