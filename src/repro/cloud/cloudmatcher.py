"""The CloudMatcher facade, in its three historical versions.

* :class:`CloudMatcher01` — Falcon wrapped as a service, one EM workflow
  at a time ("it can execute only one EM workflow at a time");
* :class:`CloudMatcher10` — the metamanager executes multiple concurrent
  workflows by interleaving their DAG fragments across engines;
* :class:`CloudMatcher20` — additionally exposes the basic services so
  users compose custom workflows (skip rule learning, label-only, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cloud.cost import CostModel, TaskCostReport
from repro.cloud.dag import build_falcon_workflow, run_stock_workflow, service_of
from repro.cloud.engines import MetaManager, WorkflowRun
from repro.cloud.services import DEFAULT_REGISTRY, Service, ServiceRegistry
from repro.datasets.generator import EMDataset
from repro.exceptions import ServiceError
from repro.falcon.falcon import FalconConfig, WorkflowContext
from repro.labeling.session import LabelingSession
from repro.runtime import OperatorGraph, run_graph


@dataclass
class TaskResult:
    """What a submitted EM task returns to its owner."""

    task_name: str
    context: WorkflowContext
    cost: TaskCostReport
    accuracy: dict[str, float] | None = None
    extras: dict[str, Any] = field(default_factory=dict)


def _cost_report(
    context: WorkflowContext, on_cloud: bool, cost_model: CostModel, machine_seconds: float
) -> TaskCostReport:
    labeler = context.session.labeler
    crowd_dollars = getattr(labeler, "dollar_cost", None)
    return TaskCostReport(
        questions=context.session.questions_asked,
        crowd_dollars=crowd_dollars,
        compute_dollars=(
            cost_model.compute_cost(machine_seconds, on_cloud) if on_cloud else None
        ),
        labeling_seconds=labeler.labeling_seconds,
        machine_seconds=machine_seconds,
    )


def _run_service(service: Service, context: WorkflowContext) -> float:
    """Run one service as a one-node graph named after the task; returns
    its simulated human/crowd seconds."""
    graph = OperatorGraph(context.task_name)
    graph.add(service.name, service, description=service.description)
    return run_graph(graph, context).sim_seconds()


def _gold_accuracy(
    registry: ServiceRegistry, context: WorkflowContext, score_against_gold: bool
) -> dict[str, float] | None:
    """Run the ``compute_accuracy`` service when asked and gold exists."""
    if not (score_against_gold and context.dataset.gold_pairs):
        return None
    _run_service(registry.get("compute_accuracy"), context)
    return context.get("accuracy")


class CloudMatcher01:
    """Version 0.1: serial, Falcon-only self-service EM."""

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        cost_model: CostModel | None = None,
        on_cloud: bool = False,
    ):
        self.registry = registry or DEFAULT_REGISTRY
        self.cost_model = cost_model or CostModel()
        self.on_cloud = on_cloud

    def match(
        self,
        dataset: EMDataset,
        session: LabelingSession,
        config: FalconConfig | None = None,
        score_against_gold: bool = True,
    ) -> TaskResult:
        """Run the end-to-end Falcon service (the stock workflow) for one task."""
        context = WorkflowContext(
            dataset=dataset,
            session=session,
            config=config or FalconConfig(),
            task_name=dataset.name,
        )
        machine_seconds = run_stock_workflow(context, self.registry).seconds()
        return TaskResult(
            task_name=dataset.name,
            context=context,
            cost=_cost_report(context, self.on_cloud, self.cost_model, machine_seconds),
            accuracy=_gold_accuracy(self.registry, context, score_against_gold),
        )


class CloudMatcher10:
    """Version 1.0: concurrent workflows via the metamanager."""

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        cost_model: CostModel | None = None,
        on_cloud: bool = True,
        interleave: bool = True,
    ):
        self.registry = registry or DEFAULT_REGISTRY
        self.cost_model = cost_model or CostModel()
        self.on_cloud = on_cloud
        self.metamanager = MetaManager(interleave=interleave)

    def submit(
        self,
        dataset: EMDataset,
        session: LabelingSession,
        config: FalconConfig | None = None,
        use_crowd: bool = False,
    ) -> WorkflowContext:
        """Queue one EM task (a Falcon workflow over the dataset)."""
        context = WorkflowContext(
            dataset=dataset,
            session=session,
            config=config or FalconConfig(),
            task_name=dataset.name,
        )
        self.metamanager.submit(
            build_falcon_workflow(dataset.name, self.registry, use_crowd=use_crowd), context
        )
        return context

    def run(self, score_against_gold: bool = True) -> tuple[float, list[TaskResult]]:
        """Execute all queued tasks; returns (simulated makespan, results),
        one per admitted run, billed the machine seconds of its node records."""
        makespan = self.metamanager.run_all()
        results = []
        for run in self.metamanager.runs:
            context = run.context
            machine = sum(record.seconds for record in run.records.values())
            results.append(
                TaskResult(
                    task_name=context.task_name,
                    context=context,
                    cost=_cost_report(context, self.on_cloud, self.cost_model, machine),
                    accuracy=_gold_accuracy(self.registry, context, score_against_gold),
                    extras={"finish_time": run.finish_time},
                )
            )
        return makespan, results


class CloudMatcher20(CloudMatcher10):
    """Version 2.0: everything in 1.0, plus user-composed workflows."""

    def invoke_service(self, name: str, context: WorkflowContext) -> float:
        """Directly invoke one basic service (the 2.0 flexibility story), as
        a one-node graph; returns its simulated human/crowd seconds."""
        return _run_service(self.registry.get(name), context)

    def submit_custom(self, graph: OperatorGraph, context: WorkflowContext) -> WorkflowRun:
        """Queue a user-assembled workflow graph of registered services."""
        for node in graph.nodes:
            service = service_of(graph, node)
            if service.name not in self.registry:
                raise ServiceError(
                    f"workflow {graph.name!r} uses unregistered service {service.name!r}"
                )
        return self.metamanager.submit(graph, context)

    def available_services(self) -> list[Service]:
        """Table 4: the services a user can compose."""
        return self.registry.services()
