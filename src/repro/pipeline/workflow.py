"""EM workflow capture: the guide's development-stage output.

After the development stage the user has "an accurate EM workflow W,
captured as a Python script (of a sequence of commands)".
:class:`MagellanWorkflow` is that script as an object: an ordered list of
named steps (each an arbitrary callable over a shared artifact store).

Execution is no longer a private loop: the step list compiles to a
chain-shaped :class:`repro.runtime.OperatorGraph` and runs on the shared
runtime core, so captured workflows get the same structured event stream,
memoization, and DAG checkpointing as the cloud metamanager and Falcon.
The public API (``add_step`` / ``run`` / ``records`` / ``total_seconds``)
is unchanged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import WorkflowError
from repro.runtime import (
    EventStream,
    GraphCheckpoint,
    NodeMemo,
    OperatorGraph,
    chain_graph,
    run_graph,
)
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

    def run(
        self,
        stop_on_error: bool = True,
        events: EventStream | None = None,
        memo: NodeMemo | None = None,
        checkpoint: GraphCheckpoint | None = None,
    ) -> dict[str, Any]:
        """Execute all steps in order; returns the artifact store.

        Each step is timed, logged, and emitted on the structured event
        stream.  On failure, the error is recorded; with ``stop_on_error``
        (default) execution halts and the exception propagates after
        recording — production runs want the failure loud, not swallowed.

        ``events``, ``memo``, and ``checkpoint`` are passed through to the
        runtime core: pass a :class:`repro.runtime.GraphCheckpoint` to
        make a crashed production run resume at the first non-checkpointed
        step (steps must declare no out-of-store effects for that to be
        sound), or an :class:`repro.runtime.EventStream` to share one
        stream across many workflow runs.
        """
        self.events = events if events is not None else EventStream()
        sink = self.events.subscribe(_log_sink(self.name))
        self.records = []
        try:
            result = run_graph(
                self.to_runtime_graph(),
                self.artifacts,
                events=self.events,
                memo=memo,
                checkpoint=checkpoint,
                on_error="halt" if stop_on_error else "continue",
            )
        finally:
            self.events.unsubscribe(sink)
        self.records = [
            StepRecord(record.name, record.seconds, record.ok, record.error)
            for record in result.records.values()
        ]
        if stop_on_error and result.first_error is not None:
            raise result.first_error
        return self.artifacts

    def total_seconds(self) -> float:
        """Wall time of the last run."""
        return sum(record.seconds for record in self.records)
