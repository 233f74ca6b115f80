"""repro.runtime — the shared operator-DAG execution core.

One substrate under all three workflow stacks (Section 4.1's
interoperability principle applied to execution itself):

* :mod:`~repro.runtime.graph` — the typed operator-DAG IR and its
  ready-set tracker;
* :mod:`~repro.runtime.executor` — :func:`run_graph`, which runs each
  node once, in the calling process, in the ready-set order, and raises
  the first failure;
* :mod:`~repro.runtime.events` — the structured run-event stream with
  JSONL export;
* :mod:`~repro.runtime.checkpoint` — the fingerprint-keyed on-disk store
  that ``CheckpointedRun`` keeps its partitions in.

``pipeline.MagellanWorkflow`` compiles to a chain graph, the cloud
metamanager executes service fragments as runtime subgraphs, and
Falcon/Smurf express their stages as runtime graphs — three thin
front-ends, one execution core.  The runtime schedules and never forks
or persists: the production stage's partition map
(:mod:`repro.perf.parallel`) is the one fan-out, and ``CheckpointedRun``
the one crash recovery.  See ``docs/ARCHITECTURE.md``.
"""

from repro.runtime.checkpoint import GraphCheckpoint, fingerprint
from repro.runtime.events import (
    NODE_FAIL,
    NODE_FINISH,
    NODE_START,
    RUN_FINISH,
    RUN_START,
    EventStream,
    RunEvent,
    read_jsonl,
)
from repro.runtime.executor import run_graph
from repro.runtime.graph import Operator, OperatorGraph, ReadySet, chain_graph

__all__ = [
    "EventStream",
    "GraphCheckpoint",
    "NODE_FAIL",
    "NODE_FINISH",
    "NODE_START",
    "Operator",
    "OperatorGraph",
    "RUN_FINISH",
    "RUN_START",
    "ReadySet",
    "RunEvent",
    "chain_graph",
    "fingerprint",
    "read_jsonl",
    "run_graph",
]
