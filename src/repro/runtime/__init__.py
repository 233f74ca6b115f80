"""repro.runtime — the shared operator-DAG execution core.

One substrate under all three workflow stacks (Section 4.1's
interoperability principle applied to execution itself):

* :mod:`~repro.runtime.graph` — the typed operator-DAG IR and its
  ready-set tracker;
* :mod:`~repro.runtime.executor` — :func:`run_graph`, the one code that
  runs, times, logs and records a workflow node: each once, in the
  calling process, in the ready-set order, raising the first failure,
  as a :class:`NodeRecord`, a span and log lines per node;
* :mod:`~repro.runtime.checkpoint` — the fingerprint-keyed on-disk store
  that ``CheckpointedRun`` keeps its partitions in.

``pipeline.MagellanWorkflow`` is a chain graph, the cloud runs service
fragments or the whole stock Falcon graph, and Falcon/Smurf express
their stages as runtime graphs — three thin front-ends, one execution
core, whose records give each its machine seconds.  The runtime
schedules and never forks or persists: the production stage's partition
map (:mod:`repro.perf.parallel`) is the one fan-out, and
``CheckpointedRun`` the one crash recovery.  See ``docs/ARCHITECTURE.md``.
"""

from repro.runtime.checkpoint import GraphCheckpoint, fingerprint
from repro.runtime.executor import NodeRecord, RunResult, run_graph
from repro.runtime.graph import Operator, OperatorGraph, ReadySet, chain_graph

__all__ = [
    "GraphCheckpoint",
    "NodeRecord",
    "Operator",
    "OperatorGraph",
    "ReadySet",
    "RunResult",
    "chain_graph",
    "fingerprint",
    "run_graph",
]
