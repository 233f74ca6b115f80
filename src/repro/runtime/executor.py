"""Running a runtime operator graph.

:func:`run_graph` runs each node of a graph once, in the calling
process, in the deterministic topological order of the graph's
:class:`~repro.runtime.graph.ReadySet` (insertion order breaks ties;
remaining-predecessor counts are decremented on completion, not
rescanned — O(V + E) over a whole run).  Every node emits
``node_start`` and then ``node_finish`` or ``node_fail`` on the run's
stream; the first failure is recorded and raised.

Nothing here forks or persists.  Multicore work and crash recovery are
the production stage's partition map (:mod:`repro.perf.parallel`), which
``CheckpointedRun`` makes resumable with a
:class:`~repro.runtime.checkpoint.GraphCheckpoint`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.runtime import events as ev
from repro.runtime.events import EventStream, RunEvent
from repro.runtime.graph import ArtifactStore, OperatorGraph


@dataclass
class NodeRecord:
    """Execution record of one operator that finished."""

    name: str
    seconds: float
    sim_seconds: float = 0.0


@dataclass
class RunResult:
    """Outcome of one graph execution."""

    graph: OperatorGraph
    store: ArtifactStore
    records: dict[str, NodeRecord]
    events: EventStream

    def sim_seconds(self) -> float:
        """Total simulated human/crowd seconds reported by the nodes."""
        return sum(record.sim_seconds for record in self.records.values())


def run_graph(
    graph: OperatorGraph,
    store: ArtifactStore | None = None,
    *,
    events: EventStream | None = None,
    sim_at: float = 0.0,
) -> RunResult:
    """Execute a runtime graph; returns the run result.

    ``store`` is the shared artifact dict (created empty when omitted and
    mutated in place otherwise).  ``events`` collects the structured run
    stream; ``sim_at`` stamps its events with the caller's simulated clock
    (the cloud metamanager's fragment start).  A node that raises is
    recorded as ``node_fail`` and its exception propagates: no later node
    runs.
    """
    store = {} if store is None else store
    events = events if events is not None else EventStream()
    records: dict[str, NodeRecord] = {}
    # Node timings/counters land in the metrics registry automatically;
    # the sink lives only for this run so shared streams (the metamanager
    # reuses one across fragments) are never double-subscribed.  Imported
    # here because repro.obs itself builds on repro.runtime.events.
    from repro.obs.sinks import metrics_sink

    sink = events.subscribe(metrics_sink())
    events.emit(RunEvent(ev.RUN_START, graph.name, sim_at=sim_at))
    try:
        ready = graph.ready_set()
        while ready.ready:
            name = ready.ready[0]
            events.emit(RunEvent(ev.NODE_START, graph.name, name, sim_at=sim_at))
            started = time.perf_counter()
            try:
                result = graph.nodes[name].fn(store)
            except Exception as exc:
                events.emit(RunEvent(
                    ev.NODE_FAIL, graph.name, name, sim_at=sim_at,
                    wall_seconds=time.perf_counter() - started, error=repr(exc),
                ))
                raise
            seconds = time.perf_counter() - started
            if isinstance(result, dict):
                store.update(result)
            # bool is an int subclass: a predicate-style operator returning
            # True must not be recorded as 1.0 simulated seconds.
            sim_seconds = (
                float(result)
                if isinstance(result, (int, float)) and not isinstance(result, bool)
                else 0.0
            )
            events.emit(RunEvent(
                ev.NODE_FINISH, graph.name, name, sim_at=sim_at,
                wall_seconds=seconds, sim_seconds=sim_seconds,
            ))
            records[name] = NodeRecord(name, seconds, sim_seconds)
            ready.complete(name)
    finally:
        events.emit(RunEvent(
            ev.RUN_FINISH, graph.name, sim_at=sim_at,
            wall_seconds=sum(r.seconds for r in records.values()),
            sim_seconds=sum(r.sim_seconds for r in records.values()),
        ))
        events.unsubscribe(sink)
    return RunResult(graph, store, records, events)
