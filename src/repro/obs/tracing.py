"""Lightweight span-based tracing.

A :class:`Span` is one named, labeled interval; spans nest, and the
nesting is recorded as parent/child ids so a trace can be reassembled
offline.  :func:`trace_span` (or :meth:`Tracer.span`) is the one way to
produce them: a context manager around arbitrary code (``with
trace_span("verify", measure="jaccard"): ...``) whose nesting follows
the call stack.  :func:`repro.runtime.run_graph` opens one around its
run and one around each node, so every graph execution is traced
without touching operator code, and a span a node opens is that node's
child.

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
from typing import Any, Iterator


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

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1] if stack else None,
            labels={str(k): str(v) for k, v in labels.items()},
            start=time.time(),
        )
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = repr(exc)
            raise
        finally:
            span.seconds = time.perf_counter() - started
            stack.pop()
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

    :meth:`span` keeps nothing, so ``spans`` stays empty however long
    the process runs: it yields an untimed :class:`Span` (callers may
    still label it) without allocating an id or touching the nesting
    stack.
    """

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
