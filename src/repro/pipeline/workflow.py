"""EM workflow capture: the guide's development-stage output.

After the development stage the user has "an accurate EM workflow W,
captured as a Python script (of a sequence of commands)".
:class:`MagellanWorkflow` is that script as an object: an ordered list of
named steps (each an arbitrary callable over a shared artifact store).

Execution is not a private loop: the step list compiles to a
chain-shaped :class:`repro.runtime.OperatorGraph` and runs on the shared
runtime core, so captured workflows emit the same structured event
stream as the cloud metamanager and Falcon, and their step records are
read off it.  Crash recovery is the production stage's
:class:`~repro.pipeline.CheckpointedRun`, which resumes a partitioned
run of such a workflow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import WorkflowError
from repro.runtime import EventStream, OperatorGraph, chain_graph, run_graph
from repro.runtime.events import NODE_FAIL, NODE_FINISH, NODE_START, RunEvent

logger = logging.getLogger("repro.pipeline")


@dataclass
class StepRecord:
    """Execution record of one workflow step."""

    name: str
    seconds: float
    ok: bool
    error: str | None = None


@dataclass
class WorkflowStep:
    """One step: ``fn(artifacts)`` reads/writes the shared artifact dict."""

    name: str
    fn: Callable[[dict[str, Any]], None]
    description: str = ""


def _log_sink(workflow_name: str) -> Callable[[RunEvent], None]:
    """An event sink reproducing the historical per-step log lines."""

    def sink(event: RunEvent) -> None:
        if event.event == NODE_START:
            logger.info("workflow %s: step %s starting", workflow_name, event.node)
        elif event.event == NODE_FINISH:
            logger.info(
                "workflow %s: step %s finished in %.3fs",
                workflow_name, event.node, event.wall_seconds,
            )
        elif event.event == NODE_FAIL:
            logger.error(
                "workflow %s: step %s failed after %.3fs: %s",
                workflow_name, event.node, event.wall_seconds, event.error,
            )

    return sink


class MagellanWorkflow:
    """An ordered, re-runnable sequence of EM steps."""

    def __init__(self, name: str):
        self.name = name
        self.steps: list[WorkflowStep] = []
        self.artifacts: dict[str, Any] = {}
        self.records: list[StepRecord] = []
        self.events: EventStream | None = None  # stream of the last run

    def add_step(
        self,
        name: str,
        fn: Callable[[dict[str, Any]], None],
        description: str = "",
    ) -> "MagellanWorkflow":
        """Append a step; returns self for chaining."""
        if any(step.name == name for step in self.steps):
            raise WorkflowError(f"duplicate step name {name!r}")
        self.steps.append(WorkflowStep(name, fn, description))
        return self

    def to_runtime_graph(self) -> OperatorGraph:
        """Compile the step list to a chain-shaped runtime graph."""
        return chain_graph(
            self.name,
            [(step.name, step.fn, step.description) for step in self.steps],
        )

    def run(self, events: EventStream | None = None) -> dict[str, Any]:
        """Execute all steps in order; returns the artifact store.

        Each step is timed, logged, and emitted on the structured event
        stream (``events``, to share one stream across many runs; a new
        one otherwise).  A failing step is recorded and its exception
        propagates: production runs want the failure loud, not swallowed.
        ``records`` holds the steps that ran, the failed one last.
        """
        self.events = events if events is not None else EventStream()
        first = len(self.events)
        sink = self.events.subscribe(_log_sink(self.name))
        try:
            run_graph(self.to_runtime_graph(), self.artifacts, events=self.events)
        finally:
            self.events.unsubscribe(sink)
            self.records = [
                StepRecord(event.node, event.wall_seconds, event.event == NODE_FINISH,
                           event.error)
                for event in self.events.events[first:]
                if event.event in (NODE_FINISH, NODE_FAIL) and event.graph == self.name
            ]
        return self.artifacts

    def total_seconds(self) -> float:
        """Wall time of the last run."""
        return sum(record.seconds for record in self.records)
