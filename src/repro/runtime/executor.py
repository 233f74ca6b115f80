"""Running a runtime operator graph.

:func:`run_graph` runs each node of a graph once, in the calling
process, in the deterministic topological order of the graph's
:class:`~repro.runtime.graph.ReadySet` (insertion order breaks ties;
remaining-predecessor counts are decremented on completion, not
rescanned — O(V + E) over a whole run).  The first failure is raised.

A run records itself once, on the installed tracer and the metrics
registry: one span for the run and, nested under it, one
``"<graph>/<node>"`` span per node, so spans the node's own code opens
nest under that node's span; and the ``runtime_*`` series (runs, run
and node seconds, node events by ``node_start`` / ``node_finish`` /
``node_fail``, simulated seconds).  Install a tracer with
:func:`repro.obs.use_tracer` to keep the spans.

Nothing here forks or persists.  Multicore work and crash recovery are
the production stage's partition map (:mod:`repro.perf.parallel`), which
``CheckpointedRun`` makes resumable with a
:class:`~repro.runtime.checkpoint.GraphCheckpoint`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import get_registry, get_tracer
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

    def sim_seconds(self) -> float:
        """Total simulated human/crowd seconds reported by the nodes."""
        return sum(record.sim_seconds for record in self.records.values())


def _node_finished(graph: str, event: str, started: float) -> float:
    """Count a node's ``node_finish`` / ``node_fail`` and observe its
    seconds since ``started``; returns them."""
    seconds = time.perf_counter() - started
    registry = get_registry()
    registry.counter("runtime_node_events_total", graph=graph, event=event).inc()
    registry.histogram("runtime_node_seconds", graph=graph).observe(seconds)
    return seconds


def _run_node(graph: OperatorGraph, name: str, store: ArtifactStore, sim_at: float) -> NodeRecord:
    """Run one node under its span and write its ``runtime_*`` series."""
    with get_tracer().span(
        f"{graph.name}/{name}", graph=graph.name, node=name, sim_at=sim_at, sim_seconds=0.0
    ) as span:
        get_registry().counter(
            "runtime_node_events_total", graph=graph.name, event="node_start"
        ).inc()
        started = time.perf_counter()
        try:
            result = graph.nodes[name].fn(store)
        except Exception:
            _node_finished(graph.name, "node_fail", started)
            raise
        seconds = _node_finished(graph.name, "node_finish", started)
        if isinstance(result, dict):
            store.update(result)
        # bool is an int subclass: a predicate-style operator returning
        # True must not be recorded as 1.0 simulated seconds.
        sim_seconds = (
            float(result)
            if isinstance(result, (int, float)) and not isinstance(result, bool)
            else 0.0
        )
        span.labels["sim_seconds"] = str(sim_seconds)
        if sim_seconds:
            get_registry().counter("runtime_sim_seconds_total", graph=graph.name).inc(sim_seconds)
    return NodeRecord(name, seconds, sim_seconds)


def run_graph(
    graph: OperatorGraph,
    store: ArtifactStore | None = None,
    *,
    sim_at: float = 0.0,
) -> RunResult:
    """Execute a runtime graph; returns the run result.

    ``store`` is the shared artifact dict (created empty when omitted and
    mutated in place otherwise).  ``sim_at`` is the caller's simulated
    clock (the cloud metamanager's fragment start), put on the run's and
    every node's span as a label.  A node that raises carries the error
    on its span and its exception propagates: no later node runs.
    """
    store = {} if store is None else store
    records: dict[str, NodeRecord] = {}
    get_registry().counter("runtime_runs_total", graph=graph.name).inc()
    try:
        with get_tracer().span(graph.name, graph=graph.name, sim_at=sim_at):
            ready = graph.ready_set()
            while ready.ready:
                name = ready.ready[0]
                records[name] = _run_node(graph, name, store, sim_at)
                ready.complete(name)
    finally:
        get_registry().histogram("runtime_run_seconds", graph=graph.name).observe(
            sum(record.seconds for record in records.values())
        )
    return RunResult(graph, store, records)
