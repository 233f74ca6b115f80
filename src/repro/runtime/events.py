"""Structured run-event stream for runtime-graph executions.

One schema for everything the three workflow stacks used to log three
different ways: every run's start and finish and every node's start,
finish or failure, with both wall-clock and *simulated* time (the
cloud metamanager schedules in simulated seconds because a fragment's cost
is dominated by human/crowd wait).  Events go to an in-memory list and to
any subscribed sinks, and every run can be exported as JSONL for offline
analysis — the paper's "logging ... monitoring" production concern.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

# Event types emitted by the runtime.
RUN_START = "run_start"
RUN_FINISH = "run_finish"
NODE_START = "node_start"
NODE_FINISH = "node_finish"
NODE_FAIL = "node_fail"


@dataclass
class RunEvent:
    """One structured record in a run's event stream."""

    event: str
    graph: str
    node: str | None = None
    at: float = 0.0  # wall-clock timestamp (time.time)
    wall_seconds: float = 0.0  # duration of the node's work, if any
    sim_seconds: float = 0.0  # simulated human/crowd seconds, if any
    sim_at: float = 0.0  # simulated-clock position (cloud scheduling)
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "event": self.event,
            "graph": self.graph,
            "node": self.node,
            "at": self.at,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_at": self.sim_at,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class EventStream:
    """An append-only stream of :class:`RunEvent` with subscribable sinks.

    Sinks are callables invoked synchronously on each emit; a sink raising
    is a programming error and propagates (events must not be silently
    lost).  The stream itself keeps every event in order, so one stream
    can be shared by many graph runs (the metamanager shares one across
    all engines and workflows).
    """

    def __init__(self) -> None:
        self.events: list[RunEvent] = []
        self._sinks: list[Callable[[RunEvent], None]] = []

    # ------------------------------------------------------------------
    def subscribe(self, sink: Callable[[RunEvent], None]) -> Callable[[RunEvent], None]:
        """Register a sink; returns it (handy for later :meth:`unsubscribe`)."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Callable[[RunEvent], None]) -> None:
        self._sinks = [s for s in self._sinks if s is not sink]

    def emit(self, event: RunEvent) -> RunEvent:
        if not event.at:
            event.at = time.time()
        self.events.append(event)
        for sink in self._sinks:
            sink(event)
        return event

    # ------------------------------------------------------------------
    def of(self, *event_types: str, node: str | None = None) -> list[RunEvent]:
        """Events filtered by type (and optionally by node name)."""
        return [
            e
            for e in self.events
            if (not event_types or e.event in event_types)
            and (node is None or e.node == node)
        ]

    def node_multiset(
        self, event_types: Iterable[str] = (NODE_START, NODE_FINISH, NODE_FAIL)
    ) -> Counter:
        """Multiset of ``(graph, node, event)`` triples for per-node events.

        Schedule-invariant: serial and interleaved executions of the same
        workflows must produce equal multisets (a test asserts this).
        """
        wanted = set(event_types)
        return Counter(
            (e.graph, e.node, e.event)
            for e in self.events
            if e.node is not None and e.event in wanted
        )

    def node_timings(self) -> dict[tuple[str, str], float]:
        """Per-(graph, node) wall seconds summed over finish/fail events."""
        timings: dict[tuple[str, str], float] = {}
        for e in self.events:
            if e.node is not None and e.event in (NODE_FINISH, NODE_FAIL):
                timings[(e.graph, e.node)] = timings.get((e.graph, e.node), 0.0) + e.wall_seconds
        return timings

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> Path:
        """Export the stream as one JSON object per line; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json())
                handle.write("\n")
        return path

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load an exported event log back as a list of dicts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]
