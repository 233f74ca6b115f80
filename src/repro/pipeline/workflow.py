"""EM workflow capture: the guide's development-stage output.

After the development stage the user has "an accurate EM workflow W,
captured as a Python script (of a sequence of commands)".
:class:`MagellanWorkflow` is that script as an object: a chain-shaped
:class:`repro.runtime.OperatorGraph` of named steps (each an arbitrary
callable over the shared artifact store) plus the artifacts.

Execution is not a private loop: :func:`repro.runtime.run_graph` runs,
times and logs each step (on the ``repro.runtime`` logger) as it does
every node of the cloud metamanager and Falcon, and the workflow's
``records`` are that run's :class:`~repro.runtime.NodeRecord` list.
Crash recovery is the production stage's
:class:`~repro.pipeline.CheckpointedRun`, which resumes a partitioned
run of such a workflow.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime import NodeRecord, OperatorGraph, run_graph


class MagellanWorkflow:
    """An ordered, re-runnable sequence of EM steps."""

    def __init__(self, name: str):
        self.graph = OperatorGraph(name)
        self.artifacts: dict[str, Any] = {}
        self.records: list[NodeRecord] = []

    def add_step(
        self,
        name: str,
        fn: Callable[[dict[str, Any]], Any],
        description: str = "",
    ) -> "MagellanWorkflow":
        """Append a step after the last one; returns self for chaining."""
        self.graph.add(name, fn, deps=tuple(self.graph.nodes)[-1:], description=description)
        return self

    def run(self) -> dict[str, Any]:
        """Execute all steps in order; returns the artifact store.

        A failing step's exception propagates: production runs want the
        failure loud, not swallowed.  ``records`` holds the steps that
        ran, the failed one last.
        """
        records: dict[str, NodeRecord] = {}
        try:
            run_graph(self.graph, self.artifacts, records=records)
        finally:
            self.records = list(records.values())
        return self.artifacts

    def total_seconds(self) -> float:
        """Wall time of the last run."""
        return sum(record.seconds for record in self.records)
