"""EM workflows as DAGs, and their decomposition into engine fragments.

CloudMatcher 1.0's key idea (Section 5.1): "break each submitted EM
workflow into multiple DAG fragments, where each fragment performs only
one kind of task, e.g., interaction with the user, batch processing of
data, crowdsourcing ... then execute each fragment on an appropriate
execution engine".  A workflow is its calls in insertion order; as in
:class:`repro.runtime.OperatorGraph`, a predecessor must already exist,
so insertion order is a topological order and no cycle can be built.
This module computes the same-kind fragment decomposition and each
fragment's predecessor fragments, which the metamanager's
:class:`repro.runtime.ReadySet` schedules.

The stock Falcon workflow is not listed here: :func:`build_falcon_workflow`
adds the rows of :func:`repro.cloud.services.falcon_calls`, derived from
:data:`repro.falcon.FALCON_STAGES`.  Merging its same-kind components
always makes a fragment-level cycle, so with or without crowd it runs as
16 singleton fragments ``<name>/n_<node>``; only custom workflows merge.
CloudMatcher 0.1 and the composites run it whole (:func:`run_stock_workflow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cloud.services import Service, ServiceKind, ServiceRegistry, falcon_calls
from repro.exceptions import WorkflowError
from repro.falcon.falcon import WorkflowContext
from repro.postprocess.clustering import UnionFind
from repro.runtime import OperatorGraph, ReadySet, RunResult, run_graph


@dataclass(frozen=True)
class ServiceCall:
    """One node of an EM workflow: a named service invocation after ``after``."""

    node_id: str
    service: Service
    after: tuple[str, ...] = ()

    @property
    def kind(self) -> ServiceKind:
        return self.service.kind


class EMWorkflow:
    """A DAG of service calls for one EM task, kept in insertion order."""

    def __init__(self, name: str):
        self.name = name
        self._calls: dict[str, ServiceCall] = {}

    def add_call(
        self, node_id: str, service: Service, after: list[str] | None = None
    ) -> ServiceCall:
        """Add a service call, depending on the given predecessor nodes."""
        if node_id in self._calls:
            raise WorkflowError(f"duplicate workflow node {node_id!r}")
        for predecessor in after or []:
            if predecessor not in self._calls:
                raise WorkflowError(f"unknown predecessor {predecessor!r}")
        call = ServiceCall(node_id, service, tuple(dict.fromkeys(after or [])))
        self._calls[node_id] = call
        return call

    def call(self, node_id: str) -> ServiceCall:
        return self._calls[node_id]

    def topological_calls(self) -> list[ServiceCall]:
        """All calls in a valid execution order: insertion order."""
        return list(self._calls.values())

    def to_runtime_graph(self, context: WorkflowContext) -> OperatorGraph:
        """Compile the whole workflow to a runtime operator graph.

        Each service call becomes one operator over the context's artifact
        dict (the runtime store *is* ``context.artifacts``); the operator
        returns the service's simulated human/crowd seconds, which the
        runtime records as the ``sim_seconds`` label of the node's span.
        """
        graph = OperatorGraph(self.name)
        for call in self._calls.values():
            graph.add(
                call.node_id,
                lambda _store, call=call: call.service.run(context),
                deps=tuple(sorted(call.after)),
                description=call.service.description,
            )
        return graph

    def __len__(self) -> int:
        return len(self._calls)


@dataclass(eq=False)
class Fragment:
    """A maximal same-kind group of workflow nodes, scheduled as a unit.

    Compared and hashed by identity: a fragment is one schedulable unit
    of one admitted run, so two workflows with equal names never alias.
    """

    fragment_id: str
    workflow: EMWorkflow
    kind: ServiceKind
    calls: list[ServiceCall] = field(default_factory=list)

    def to_runtime_graph(self, context: WorkflowContext) -> OperatorGraph:
        """This fragment as a runtime subgraph of its workflow's graph.

        Dependencies are restricted to intra-fragment edges — by the
        fragment contract, every external predecessor has already run
        when the metamanager dispatches the fragment.
        """
        return self.workflow.to_runtime_graph(context).subgraph(
            [call.node_id for call in self.calls], name=self.workflow.name
        )

    def __repr__(self) -> str:
        return (
            f"Fragment({self.fragment_id}, {self.kind.value}, "
            f"{[c.node_id for c in self.calls]})"
        )


def decompose_fragments(
    workflow: EMWorkflow,
) -> tuple[list[Fragment], dict[Fragment, list[Fragment]]]:
    """Split a workflow into same-kind fragments plus a ``fragment ->
    predecessor fragments`` mapping, both in order of each fragment's
    first node.

    Fragments are the connected components of the edges joining nodes of
    the same kind.  Node order inside a fragment is the workflow's, so a
    fragment is executable as a unit once its external predecessors ran.
    """
    same_kind = UnionFind()
    for call in workflow.topological_calls():
        same_kind.add(call.node_id)
        for predecessor in call.after:
            if workflow.call(predecessor).kind == call.kind:
                same_kind.union(predecessor, call.node_id)
    deps = _fragment_deps(workflow, {
        node: f"{workflow.name}/f{index}"
        for index, component in enumerate(same_kind.groups())
        for node in component
    })
    if len(ReadySet(deps).drain()) < len(deps):
        # Merging same-kind components can create a cycle at the fragment
        # level; fall back to singleton fragments.
        deps = _fragment_deps(workflow, {
            call.node_id: f"{workflow.name}/n_{call.node_id}"
            for call in workflow.topological_calls()
        })
    return list(deps), deps


def _fragment_deps(
    workflow: EMWorkflow, fragment_ids: dict[str, str]
) -> dict[Fragment, list[Fragment]]:
    """The fragments ``node -> fragment id`` names, each mapped to the
    other fragments its nodes' predecessors lie in."""
    fragments: dict[str, Fragment] = {}
    deps: dict[Fragment, list[Fragment]] = {}
    for call in workflow.topological_calls():
        fragment_id = fragment_ids[call.node_id]
        if fragment_id not in fragments:
            fragments[fragment_id] = Fragment(fragment_id, workflow, call.kind)
            deps[fragments[fragment_id]] = []
        fragment = fragments[fragment_id]
        fragment.calls.append(call)
        for predecessor in call.after:
            source = fragments[fragment_ids[predecessor]]
            if source is not fragment and source not in deps[fragment]:
                deps[fragment].append(source)
    return deps


def build_falcon_workflow(
    name: str,
    registry: ServiceRegistry,
    use_crowd: bool = False,
) -> EMWorkflow:
    """The stock Falcon workflow as a service DAG (Figure 3 as a graph).

    With ``use_crowd`` the two labeling-heavy services are re-tagged to the
    crowd engine (labels then come from the session's CrowdLabeler).
    """
    workflow = EMWorkflow(name)
    for node_id, service_name, after in falcon_calls():
        service = registry.get(service_name)
        if use_crowd and service_name in ("active_learn_blocking", "active_learn_matching"):
            service = replace(service, kind=ServiceKind.CROWD)
        workflow.add_call(node_id, service, after=after)
    return workflow


def run_stock_workflow(
    context: WorkflowContext, registry: ServiceRegistry, through: str | None = None
) -> RunResult:
    """Run the stock Falcon workflow's graph, named after the task, up to
    and including node ``through`` (to the end when ``None``)."""
    graph = build_falcon_workflow(context.task_name, registry).to_runtime_graph(context)
    if through is not None:
        names = list(graph.nodes)
        graph = graph.subgraph(names[: names.index(through) + 1], name=graph.name)
    return run_graph(graph, context.artifacts)
