"""repro.runtime — the shared operator-DAG execution core.

One substrate under all three workflow stacks (Section 4.1's
interoperability principle applied to execution itself):

* :mod:`~repro.runtime.graph` — the typed operator-DAG IR and its
  ready-set tracker;
* :mod:`~repro.runtime.executor` — :func:`run_graph`, which runs each
  node once, in the calling process, in the ready-set order, and raises
  the first failure; it records the run as one span per run and per
  node on the installed tracer, plus the ``runtime_*`` metrics;
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
from repro.runtime.executor import run_graph
from repro.runtime.graph import Operator, OperatorGraph, ReadySet, chain_graph

__all__ = [
    "GraphCheckpoint",
    "Operator",
    "OperatorGraph",
    "ReadySet",
    "chain_graph",
    "fingerprint",
    "run_graph",
]
