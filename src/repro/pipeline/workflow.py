"""EM workflow capture: the guide's development-stage output.

After the development stage the user has "an accurate EM workflow W,
captured as a Python script (of a sequence of commands)".
:class:`MagellanWorkflow` is that script as an object: an ordered list of
named steps (each an arbitrary callable over a shared artifact store).

Execution is not a private loop: the step list compiles to a
chain-shaped :class:`repro.runtime.OperatorGraph` and runs on the shared
runtime core, so captured workflows record the same node spans and
``runtime_*`` metrics as the cloud metamanager and Falcon.  The workflow
times and logs each step itself, into ``records`` and the
``repro.pipeline`` logger.  Crash recovery is the production stage's
:class:`~repro.pipeline.CheckpointedRun`, which resumes a partitioned
run of such a workflow.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import WorkflowError
from repro.runtime import OperatorGraph, chain_graph, run_graph

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


class MagellanWorkflow:
    """An ordered, re-runnable sequence of EM steps."""

    def __init__(self, name: str):
        self.name = name
        self.steps: list[WorkflowStep] = []
        self.artifacts: dict[str, Any] = {}
        self.records: list[StepRecord] = []

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
        """Compile the step list to a chain-shaped runtime graph whose
        nodes log their step and append its record."""
        return chain_graph(
            self.name,
            [(step.name, self._recorded(step), step.description) for step in self.steps],
        )

    def run(self) -> dict[str, Any]:
        """Execute all steps in order; returns the artifact store.

        Each step is timed and logged.  A failing step is recorded and
        its exception propagates: production runs want the failure loud,
        not swallowed.  ``records`` holds the steps that ran, the failed
        one last.
        """
        self.records = []
        run_graph(self.to_runtime_graph(), self.artifacts)
        return self.artifacts

    def _recorded(self, step: WorkflowStep) -> Callable[[dict[str, Any]], Any]:
        """``step.fn``, logging its start and end and appending its record."""

        def fn(artifacts: dict[str, Any]) -> Any:
            logger.info("workflow %s: step %s starting", self.name, step.name)
            started = time.perf_counter()
            try:
                result = step.fn(artifacts)
            except Exception as exc:
                self._finished(step.name, started, repr(exc))
                raise
            self._finished(step.name, started)
            return result

        return fn

    def _finished(self, name: str, started: float, error: str | None = None) -> None:
        """Log a step's end and append its record."""
        record = StepRecord(name, time.perf_counter() - started, error is None, error)
        if error is None:
            logger.info("workflow %s: step %s finished in %.3fs", self.name, name, record.seconds)
        else:
            logger.error(
                "workflow %s: step %s failed after %.3fs: %s",
                self.name, name, record.seconds, error,
            )
        self.records.append(record)

    def total_seconds(self) -> float:
        """Wall time of the last run."""
        return sum(record.seconds for record in self.records)
