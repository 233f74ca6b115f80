"""EM workflows as DAGs, and their decomposition into engine fragments.

CloudMatcher 1.0's key idea (Section 5.1): "break each submitted EM
workflow into multiple DAG fragments, where each fragment performs only
one kind of task, e.g., interaction with the user, batch processing of
data, crowdsourcing ... then execute each fragment on an appropriate
execution engine".  This module builds the workflow DAG (networkx) and
computes the same-kind fragment decomposition plus the fragment-level DAG
that the metamanager schedules.  The stock Falcon workflow is not listed
here: :func:`build_falcon_workflow` adds the rows of
:func:`repro.cloud.services.falcon_calls`, which derives them from
:data:`repro.falcon.FALCON_STAGES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import networkx as nx

from repro.cloud.services import Service, ServiceKind, ServiceRegistry, falcon_calls
from repro.exceptions import WorkflowError
from repro.falcon.falcon import WorkflowContext
from repro.runtime import OperatorGraph


@dataclass(frozen=True)
class ServiceCall:
    """One node of an EM workflow: a named invocation of a service."""

    node_id: str
    service: Service

    @property
    def kind(self) -> ServiceKind:
        return self.service.kind


class EMWorkflow:
    """A DAG of service calls for one EM task."""

    def __init__(self, name: str):
        self.name = name
        self.graph: "nx.DiGraph" = nx.DiGraph()
        self._calls: dict[str, ServiceCall] = {}

    def add_call(
        self, node_id: str, service: Service, after: list[str] | None = None
    ) -> ServiceCall:
        """Add a service call, depending on the given predecessor nodes."""
        if node_id in self._calls:
            raise WorkflowError(f"duplicate workflow node {node_id!r}")
        call = ServiceCall(node_id, service)
        self._calls[node_id] = call
        self.graph.add_node(node_id)
        for predecessor in after or []:
            if predecessor not in self._calls:
                raise WorkflowError(f"unknown predecessor {predecessor!r}")
            self.graph.add_edge(predecessor, node_id)
        if not nx.is_directed_acyclic_graph(self.graph):
            raise WorkflowError("workflow graph must stay acyclic")
        return call

    def call(self, node_id: str) -> ServiceCall:
        return self._calls[node_id]

    def topological_calls(self) -> list[ServiceCall]:
        """All calls in a valid execution order."""
        return [self._calls[node] for node in nx.topological_sort(self.graph)]

    def to_runtime_graph(self, context: WorkflowContext) -> OperatorGraph:
        """Compile the whole workflow to a runtime operator graph.

        Each service call becomes one operator over the context's artifact
        dict (the runtime store *is* ``context.artifacts``); the operator
        returns the service's simulated human/crowd seconds, which the
        runtime records as ``sim_seconds`` on the node's events.
        """
        graph = OperatorGraph(self.name)
        for call in self.topological_calls():
            graph.add(
                call.node_id,
                lambda _store, call=call: call.service.run(context),
                deps=tuple(sorted(self.graph.predecessors(call.node_id))),
                description=call.service.description,
                checkpoint=False,  # services write undeclared context slots
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


def decompose_fragments(workflow: EMWorkflow) -> tuple[list[Fragment], "nx.DiGraph"]:
    """Split a workflow into same-kind fragments plus the fragment DAG.

    Fragments are the connected components of the subgraph induced by
    edges joining nodes of the same kind; the fragment DAG inherits every
    cross-fragment edge.  Node order inside a fragment follows the
    workflow's topological order, so a fragment is executable as a unit
    once all its external predecessors have finished.
    """
    graph = workflow.graph
    same_kind = nx.Graph()
    same_kind.add_nodes_from(graph.nodes)
    for source, target in graph.edges:
        if workflow.call(source).kind == workflow.call(target).kind:
            same_kind.add_edge(source, target)

    node_to_fragment: dict[str, str] = {}
    fragments: dict[str, Fragment] = {}
    topo_order = {node: i for i, node in enumerate(nx.topological_sort(graph))}
    for index, component in enumerate(nx.connected_components(same_kind)):
        nodes = sorted(component, key=topo_order.__getitem__)
        fragment_id = f"{workflow.name}/f{index}"
        fragment = Fragment(
            fragment_id,
            workflow,
            workflow.call(nodes[0]).kind,
            [workflow.call(node) for node in nodes],
        )
        fragments[fragment_id] = fragment
        for node in nodes:
            node_to_fragment[node] = fragment_id

    fragment_dag: "nx.DiGraph" = nx.DiGraph()
    fragment_dag.add_nodes_from(fragments)
    for source, target in graph.edges:
        f_source = node_to_fragment[source]
        f_target = node_to_fragment[target]
        if f_source != f_target:
            fragment_dag.add_edge(f_source, f_target)
    if not nx.is_directed_acyclic_graph(fragment_dag):
        # Merging same-kind components can in principle create cycles at
        # the fragment level; fall back to singleton fragments.
        fragments = {}
        fragment_dag = nx.DiGraph()
        for node in graph.nodes:
            fragment_id = f"{workflow.name}/n_{node}"
            fragments[fragment_id] = Fragment(
                fragment_id, workflow, workflow.call(node).kind, [workflow.call(node)]
            )
            node_to_fragment[node] = fragment_id
        fragment_dag.add_nodes_from(fragments)
        for source, target in graph.edges:
            fragment_dag.add_edge(node_to_fragment[source], node_to_fragment[target])
    ordered = [
        fragments[fragment_id] for fragment_id in nx.topological_sort(fragment_dag)
    ]
    return ordered, fragment_dag


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
