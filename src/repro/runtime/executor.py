"""Running a runtime operator graph.

:func:`run_graph` runs each node of a graph once, in the calling
process, in the deterministic topological order of the graph's
:class:`~repro.runtime.graph.ReadySet` (insertion order breaks ties;
remaining-predecessor counts are decremented on completion, not
rescanned — O(V + E) over a whole run).  The first failure is raised.

A run records itself once, for every front-end: a :class:`NodeRecord`
per node that ran; one span for the run and, nested under it, one
``"<graph>/<node>"`` span per node on the installed tracer, so spans
the node's own code opens nest under that node's span; a log line per
node start, finish and failure on the ``repro.runtime`` logger; and the
``runtime_*`` series (runs, run and node seconds, node events by
``node_start`` / ``node_finish`` / ``node_fail``, simulated seconds).
Install a tracer with :func:`repro.obs.use_tracer` to keep the spans.

Nothing here forks or persists.  Multicore work and crash recovery are
the production stage's partition map (:mod:`repro.perf.parallel`), which
``CheckpointedRun`` makes resumable with a
:class:`~repro.runtime.checkpoint.GraphCheckpoint`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from repro.obs import get_registry, get_tracer
from repro.runtime.graph import ArtifactStore, OperatorGraph

logger = logging.getLogger("repro.runtime")


@dataclass
class NodeRecord:
    """Execution record of one operator that ran (``error``: a failed
    one's exception repr)."""

    name: str
    seconds: float
    sim_seconds: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunResult:
    """Outcome of one graph execution."""

    graph: OperatorGraph
    store: ArtifactStore
    records: dict[str, NodeRecord]

    def seconds(self) -> float:
        """Total machine (wall) seconds of the nodes."""
        return sum(record.seconds for record in self.records.values())

    def sim_seconds(self) -> float:
        """Total simulated human/crowd seconds reported by the nodes."""
        return sum(record.sim_seconds for record in self.records.values())


def _run_node(
    graph: OperatorGraph, name: str, store: ArtifactStore, sim_at: float, records: dict
) -> None:
    """Run one node under its span; record, log and count it (a failed
    one too, before its exception propagates)."""
    registry = get_registry()
    with get_tracer().span(
        f"{graph.name}/{name}", graph=graph.name, node=name, sim_at=sim_at, sim_seconds=0.0
    ) as span:
        registry.counter("runtime_node_events_total", graph=graph.name, event="node_start").inc()
        logger.info("graph %s: node %s starting", graph.name, name)
        started = time.perf_counter()
        try:
            result, error = graph.nodes[name].fn(store), None
        except Exception as exc:
            result, error = None, exc
        seconds = time.perf_counter() - started
        registry.histogram("runtime_node_seconds", graph=graph.name).observe(seconds)
        event = "node_finish" if error is None else "node_fail"
        registry.counter("runtime_node_events_total", graph=graph.name, event=event).inc()
        if error is not None:
            records[name] = NodeRecord(name, seconds, error=repr(error))
            logger.error("graph %s: node %s failed after %.3fs: %r", graph.name, name, seconds, error)
            raise error
        logger.info("graph %s: node %s finished in %.3fs", graph.name, name, seconds)
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
            registry.counter("runtime_sim_seconds_total", graph=graph.name).inc(sim_seconds)
        records[name] = NodeRecord(name, seconds, sim_seconds)


def run_graph(
    graph: OperatorGraph,
    store: ArtifactStore | None = None,
    *,
    sim_at: float = 0.0,
    records: dict[str, NodeRecord] | None = None,
) -> RunResult:
    """Execute a runtime graph; returns the run result.

    ``store`` is what the operators share — an artifact dict (created
    empty when omitted), or the ``WorkflowContext`` of a Falcon or
    CloudMatcher run — and ``records`` the name → :class:`NodeRecord`
    dict of the nodes that ran, in run order (created empty when omitted
    and filled in place otherwise).  ``sim_at``
    is the caller's simulated clock (the cloud metamanager's fragment
    start), put on the run's and every node's span as a label.  A node
    that raises carries the error on its span and record and its
    exception propagates: no later node runs, and the caller's
    ``records`` end with the failed node.
    """
    store = {} if store is None else store
    records = {} if records is None else records
    get_registry().counter("runtime_runs_total", graph=graph.name).inc()
    try:
        with get_tracer().span(graph.name, graph=graph.name, sim_at=sim_at):
            ready = graph.ready_set()
            while ready.ready:
                name = ready.ready[0]
                _run_node(graph, name, store, sim_at, records)
                ready.complete(name)
    finally:
        get_registry().histogram("runtime_run_seconds", graph=graph.name).observe(
            sum(record.seconds for record in records.values())
        )
    return RunResult(graph, store, records)
