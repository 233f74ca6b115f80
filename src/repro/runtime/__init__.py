"""repro.runtime — the shared operator-DAG execution core.

One substrate under all three workflow stacks (Section 4.1's
interoperability principle applied to execution itself):

* :mod:`~repro.runtime.graph` — the typed operator-DAG IR;
* :mod:`~repro.runtime.executor` — :func:`run_graph`, which runs a graph
  in the calling process in its ready-set order;
* :mod:`~repro.runtime.events` — the structured run-event stream with
  JSONL export;
* :mod:`~repro.runtime.checkpoint` — fingerprint memoization and
  DAG-level checkpointing/crash recovery.

``pipeline.MagellanWorkflow`` compiles to a chain graph, the cloud
metamanager executes service fragments as runtime subgraphs, and
Falcon/Smurf express their stages as runtime graphs — three thin
front-ends, one execution core.  The runtime schedules and never forks:
the production stage's partition map (:mod:`repro.perf.parallel`) is the
one fan-out.  See ``docs/ARCHITECTURE.md``.
"""

from repro.runtime.checkpoint import (
    GraphCheckpoint,
    NodeMemo,
    atomic_write_bytes,
    atomic_write_text,
    fingerprint,
    node_fingerprints,
)
from repro.runtime.events import (
    CACHE_HIT,
    CHECKPOINT_RESTORED,
    CHECKPOINT_SAVED,
    EVENT_TYPES,
    NODE_FAIL,
    NODE_FINISH,
    NODE_RETRY,
    NODE_START,
    RUN_FINISH,
    RUN_START,
    EventStream,
    RunEvent,
    read_jsonl,
)
from repro.runtime.executor import (
    RunResult,
    count_rows,
    run_graph,
)
from repro.runtime.graph import (
    ArtifactStore,
    NodeRecord,
    Operator,
    OperatorGraph,
    ReadySet,
    chain_graph,
)

__all__ = [
    "ArtifactStore",
    "CACHE_HIT",
    "CHECKPOINT_RESTORED",
    "CHECKPOINT_SAVED",
    "EVENT_TYPES",
    "EventStream",
    "GraphCheckpoint",
    "NODE_FAIL",
    "NODE_FINISH",
    "NODE_RETRY",
    "NODE_START",
    "NodeMemo",
    "NodeRecord",
    "Operator",
    "OperatorGraph",
    "RUN_FINISH",
    "RUN_START",
    "ReadySet",
    "RunEvent",
    "RunResult",
    "atomic_write_bytes",
    "atomic_write_text",
    "chain_graph",
    "count_rows",
    "fingerprint",
    "node_fingerprints",
    "read_jsonl",
    "run_graph",
]
