"""Lightweight span-based tracing.

A :class:`Span` is one named, labeled interval; spans nest, and the
nesting is recorded as parent/child ids so a trace can be reassembled
offline.  Two ways to produce spans:

* :func:`trace_span` — a context manager for instrumenting arbitrary
  code (``with trace_span("verify", measure="jaccard"): ...``); nesting
  follows the runtime call stack.
* :func:`event_span_sink` — an :class:`~repro.runtime.events.EventStream`
  sink that turns each node's ``node_start``/``node_finish``/``node_fail``
  event pair into a span, so every runtime-graph
  execution can be traced without touching operator code.

Spans accumulate on a :class:`Tracer` installed with :func:`use_tracer`
(or :func:`set_tracer`) and export as JSONL next to the metrics
snapshots.  The process default that :func:`get_tracer` returns until
then keeps nothing: instrumented code runs untraced at the cost of a
no-op context manager, and a long-lived process (a
:class:`~repro.serve.MatchServer` opens a span per micro-batch) does
not grow without bound.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.runtime import events as ev
from repro.runtime.events import RunEvent


@dataclass
class Span:
    """One named interval in a trace."""

    name: str
    span_id: int
    parent_id: int | None = None
    labels: dict[str, str] = field(default_factory=dict)
    start: float = 0.0  # wall-clock timestamp (time.time)
    seconds: float = 0.0  # measured duration
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "seconds": self.seconds,
        }
        if self.labels:
            payload["labels"] = self.labels
        if self.error is not None:
            payload["error"] = self.error
        return payload


class Tracer:
    """Collects finished spans; hands out nested span ids.

    Thread model: span-id allocation is atomic (a lock around the
    counter) and the nesting stack is *thread-local*, so concurrent
    threads — e.g. the :mod:`repro.serve` workers — each nest their own
    spans without colliding ids or corrupting each other's parentage.
    Forked workers never share a tracer (each child process gets a copy
    that dies with it).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []  # finished, in completion order
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> list[int]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def allocate_span_id(self) -> int:
        """Hand out the next span id; safe to call from any thread."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def current_parent_id(self) -> int | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[Span]:
        span = Span(
            name=name,
            span_id=self.allocate_span_id(),
            parent_id=self.current_parent_id(),
            labels={str(k): str(v) for k, v in labels.items()},
            start=time.time(),
        )
        stack = self._stack()
        stack.append(span.span_id)
        started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = repr(exc)
            raise
        finally:
            span.seconds = time.perf_counter() - started
            stack.pop()
            self.keep(span)

    def keep(self, span: Span) -> None:
        """Retain one finished span: every span a tracer records, from
        :meth:`span` or :func:`event_span_sink`, is kept here."""
        with self._lock:
            self.spans.append(span)

    def write_jsonl(self, path: str | Path) -> Path:
        """Export finished spans as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        with path.open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return path

    def __len__(self) -> int:
        return len(self.spans)


class _KeepNothingTracer(Tracer):
    """The process default: a tracer nobody installed, so nobody reads it.

    :meth:`keep` drops every span, so ``spans`` stays empty however
    long the process runs.  Because nothing it records survives,
    :meth:`span` skips the bookkeeping too: it yields an untimed
    :class:`Span` (callers may still label it) without allocating an id
    or touching the nesting stack.
    """

    def keep(self, span: Span) -> None:
        pass

    def span(self, name: str, **labels: Any):
        return nullcontext(Span(name=name, span_id=0, labels=labels))


# -- the process-default tracer -----------------------------------------
_default_tracer: Tracer = _KeepNothingTracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer: the one installed with
    :func:`set_tracer` / :func:`use_tracer`, else one that keeps no
    spans."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Swap in a fresh (or given) default tracer for a ``with`` block."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def trace_span(name: str, tracer: Tracer | None = None, **labels: Any):
    """Record a span on the default (or given) tracer around the block
    (a context manager yielding the :class:`Span`); the process default
    keeps nothing until :func:`use_tracer` installs a tracer."""
    return (tracer if tracer is not None else _default_tracer).span(name, **labels)


def event_span_sink(tracer: Tracer | None = None) -> Callable[[RunEvent], None]:
    """An EventStream sink converting per-node run events into spans.

    ``node_start`` opens a span for ``(graph, node)``; the matching
    ``node_finish``/``node_fail`` closes it with the event's wall seconds
    (failures carry the error repr).  Spans parent onto whatever
    :func:`trace_span` context is open when the node starts, so graph
    executions nest under caller-opened spans.
    """
    target = tracer if tracer is not None else get_tracer()
    open_spans: dict[tuple[str, str], Span] = {}

    def sink(event: RunEvent) -> None:
        if event.node is None:
            return
        key = (event.graph, event.node)
        # `event.at or time.time()` would silently replace a legitimate
        # 0.0 (epoch) timestamp with wall-clock now; only None means
        # "unset".  Span ids come from the tracer's atomic allocator so
        # sink calls from serving threads never collide with trace_span.
        if event.event == ev.NODE_START:
            span = Span(
                name=f"{event.graph}/{event.node}",
                span_id=target.allocate_span_id(),
                parent_id=target.current_parent_id(),
                labels={"graph": event.graph, "node": event.node},
                start=event.at if event.at is not None else time.time(),
            )
            open_spans[key] = span
        elif event.event in (ev.NODE_FINISH, ev.NODE_FAIL):
            span = open_spans.pop(key, None)
            if span is None:
                return
            span.seconds = event.wall_seconds
            if event.error is not None:
                span.error = event.error
            target.keep(span)

    return sink
