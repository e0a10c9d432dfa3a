"""A lightweight span tracer for the solve request lifecycle.

Spans form a tree: a context-manager push opens a child of the current
thread's innermost open span, the matching pop closes it and appends it
to the tracer's finished list.  The open-span *stack* is thread-local —
concurrent requests on the serve thread pool each build their own tree
and cannot adopt each other's spans — while the *finished* list is one
lock-protected buffer per tracer, so one export sees every thread.

Timing uses :data:`repro.obs.clock.monotonic` exclusively; ``start_s``
values are only meaningful relative to other spans of the same process.

The compiled executor's per-segment spans are leaves recorded in bulk:
one :class:`LeafBlock` per traced solve holds the segment templates, one
timestamp per step boundary and the parent links, and its :class:`Span`
objects are materialized only when the trace is read
(:meth:`Tracer.spans` and everything built on it).

There is no global tracer.  Code that wants ambient tracing activates an
:class:`repro.obs.runtime.Observability` (which carries a tracer) on the
current thread; the default is no tracer and near-zero overhead.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from itertools import count, islice

from repro.obs.clock import monotonic

__all__ = ["Span", "LeafBlock", "Tracer", "SPAN_SCHEMA_FIELDS"]

#: keys every exported JSON-lines span record carries (the trace schema
#: the CI smoke job validates).
SPAN_SCHEMA_FIELDS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "duration_s",
    "thread",
    "attrs",
)


@dataclass(slots=True)
class Span:
    """One timed operation; part of a per-request tree."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float = 0.0
    thread: str = ""
    attrs: dict = field(default_factory=dict)
    #: set when the ``with`` body raised (exception type name)
    error: str | None = None
    #: the tracer an open span reports to when its ``with`` block ends
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._finish(self)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attrs": self.attrs,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class LeafBlock:
    """One solve's leaf spans, recorded compactly.

    ``templates[idx]`` is a ``(name, attrs, ...)`` tuple for step
    ``idx``; the steps ran in ``order`` and step ``order[i]`` spanned
    ``ts[i]`` to ``ts[i + 1]``.  ``live`` optionally maps a step index to
    the attrs that replace its template's on this solve.  The tracer
    fills in the parent links and the span ids — one per leaf that fits
    under its ``max_spans`` cap — when it records the block, which is
    immutable from then on.
    """

    __slots__ = ("templates", "order", "ts", "live", "trace_id",
                 "parent_id", "thread", "ids", "_spans")

    def __init__(self, templates, order, ts, live: dict | None) -> None:
        self.templates = templates
        self.order = order
        self.ts = ts
        self.live = live
        self._spans: list[Span] | None = None

    def spans(self) -> list[Span]:
        """The recorded leaves as finished :class:`Span` objects, in
        execution order (the leaves dropped at the cap excluded), built
        on the first call and returned again by later ones."""
        if self._spans is not None:
            return self._spans
        templates, order, ts, live = (
            self.templates, self.order, self.ts, self.live
        )
        tid, pid, thread = self.trace_id, self.parent_id, self.thread
        out = []
        for pos, sid in enumerate(self.ids):
            idx = order[pos]
            template = templates[idx]
            attrs = template[1]
            if live is not None and idx in live:
                attrs = live[idx]
            out.append(
                Span(template[0], tid, sid, pid, ts[pos], ts[pos + 1],
                     thread, attrs)
            )
        self._spans = out
        return out


class _SpanStack(list):
    """One thread's open spans, innermost last."""

    __slots__ = ("thread_name",)


class _ThreadState(threading.local):
    """Per-thread tracer state, initialized on a thread's first use."""

    def __init__(self) -> None:
        self.stack = _SpanStack()
        # The thread name never changes for our worker threads;
        # resolving it once per thread keeps it off the span path.
        self.stack.thread_name = threading.current_thread().name


class Tracer:
    """Collects spans; safe for concurrent use from many threads.

    Context-managed spans are stored as they close.  A traced solve's
    per-segment leaves arrive as one :class:`LeafBlock` and are
    materialized into :class:`Span` objects only when the trace is read
    (:meth:`spans` and everything built on it: :meth:`roots`, the
    exporters, :meth:`render_tree`); the ``max_spans`` cap and
    :attr:`dropped` count every leaf as if it had been recorded alone.

    >>> tr = Tracer()
    >>> with tr.span("request", method="recursive-block"):
    ...     with tr.span("solve") as sp:
    ...         sp.set(launches=3)
    >>> [s.name for s in tr.spans()]
    ['request', 'solve']
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        #: finished spans and leaf blocks, in recording order
        self._finished: list = []
        #: spans held in ``_finished``, each block counting its leaves
        self._n_finished = 0
        # itertools.count.__next__ is atomic under the GIL, so span and
        # trace ids need no lock — this runs once per span on the solve
        # hot path.
        self._span_ids = count(1)
        self._trace_ids = count(1)
        self.dropped = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs) -> Span:
        """Open a span as a child of this thread's innermost open span
        (a new root/trace when none is open).  Use as a context manager:
        the span closes when its ``with`` block ends."""
        stack = self._tls.stack
        if stack:
            parent = stack[-1]
            tid = parent.trace_id
            pid = parent.span_id
        else:
            tid = next(self._trace_ids)
            pid = None
        span = Span(
            name, tid, next(self._span_ids), pid, monotonic(), 0.0,
            stack.thread_name, attrs, None, self,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_s = monotonic()
        stack = self._tls.stack
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # Pop through anything the body leaked (it cannot happen
                # with context-managed children, but stay robust to misuse).
                while stack and stack[-1] is not span:
                    stack.pop()
                if stack:
                    stack.pop()
        with self._lock:
            if self._n_finished >= self.max_spans:
                self.dropped += 1
            else:
                self._finished.append(span)
                self._n_finished += 1

    def record_block(self, block: LeafBlock) -> None:
        """Record one solve's leaf spans as children of the current open
        span (a new trace when none is open), under one lock acquisition.

        The leaves that fit under ``max_spans`` keep the first places in
        execution order; the rest are counted in :attr:`dropped`, as
        :meth:`span` would count them one by one.  Leaves cannot have
        children, so they skip the open-span stack entirely."""
        stack = self._tls.stack
        if stack:
            parent = stack[-1]
            block.trace_id, block.parent_id = parent.trace_id, parent.span_id
        else:
            block.trace_id, block.parent_id = next(self._trace_ids), None
        block.thread = stack.thread_name
        n = len(block.order)
        # Every leaf takes an id, kept or dropped, as an opened span does.
        ids = list(islice(self._span_ids, n))
        with self._lock:
            keep = min(n, max(0, self.max_spans - self._n_finished))
            self.dropped += n - keep
            if keep:
                block.ids = ids if keep == n else ids[:keep]
                self._finished.append(block)
                self._n_finished += keep

    def record_span(
        self, name: str, start_s: float, end_s: float, **attrs
    ) -> Span:
        """Attach an already-timed interval (e.g. queue wait measured
        between two threads) as a completed child of the current span."""
        stack = self._tls.stack
        if stack:
            parent = stack[-1]
            tid = parent.trace_id
            pid = parent.span_id
        else:
            tid = next(self._trace_ids)
            pid = None
        span = Span(
            name, tid, next(self._span_ids), pid, start_s, end_s,
            stack.thread_name, attrs,
        )
        with self._lock:
            if self._n_finished >= self.max_spans:
                self.dropped += 1
            else:
                self._finished.append(span)
                self._n_finished += 1
        return span

    def current(self) -> Span | None:
        """This thread's innermost open span, if any."""
        stack = self._tls.stack
        return stack[-1] if stack else None

    def open_depth(self) -> int:
        """How many spans this thread currently has open (0 = balanced)."""
        return len(self._tls.stack)

    # ------------------------------------------------------------------ #
    # Inspection / export
    # ------------------------------------------------------------------ #
    def spans(self) -> list[Span]:
        """Finished spans ordered by (trace, start time).

        Only the list of recorded items is copied under the lock; leaf
        blocks are materialized after it is released, each on its first
        read (later reads return the same :class:`Span` objects)."""
        with self._lock:
            items = list(self._finished)
        out: list[Span] = []
        for item in items:
            if type(item) is LeafBlock:
                out.extend(item.spans())
            else:
                out.append(item)
        out.sort(key=lambda s: (s.trace_id, s.start_s, s.span_id))
        return out

    def roots(self) -> list[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    def clear(self) -> None:
        """Drop every finished span (ids keep counting up)."""
        with self._lock:
            self._finished.clear()
            self._n_finished = 0
            self.dropped = 0

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per finished span."""
        return "\n".join(json.dumps(s.as_dict()) for s in self.spans())

    def export_jsonl(self, fh) -> int:
        """Write the JSON-lines trace to a file object; returns span count."""
        spans = self.spans()
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
        return len(spans)

    def render_tree(self, trace_id: int | None = None) -> str:
        """ASCII rendering of the span forest, durations in ms.

        ``trace_id`` restricts the output to one request's tree — how
        ``repro slo`` resolves an exemplar back to its trace."""
        spans = self.spans()
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        children: dict[int | None, list[Span]] = {}
        for s in spans:
            children.setdefault(s.parent_id, []).append(s)
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
                attrs = f"  {{{inner}}}"
            err = f"  !{span.error}" if span.error else ""
            lines.append(
                f"{'  ' * depth}{span.name:<24s} "
                f"{span.duration_s * 1e3:9.4f} ms{attrs}{err}"
            )
            for child in children.get(span.span_id, []):
                emit(child, depth + 1)

        for root in children.get(None, []):
            emit(root, 0)
        if self.dropped:
            lines.append(f"... {self.dropped} spans dropped (max_spans reached)")
        return "\n".join(lines)
