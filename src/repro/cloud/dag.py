"""EM workflows as operator graphs of services, and their engine fragments.

CloudMatcher 1.0's key idea (Section 5.1): "break each submitted EM
workflow into multiple DAG fragments, where each fragment performs only
one kind of task, e.g., interaction with the user, batch processing of
data, crowdsourcing ... then execute each fragment on an appropriate
execution engine".  A workflow is a :class:`repro.runtime.OperatorGraph`
whose operators are registry services
(:class:`~repro.cloud.services.Service`): a node's engine kind is ``graph.nodes[node].fn.kind``, and the store
:func:`repro.runtime.run_graph` hands each service is the task's
:class:`WorkflowContext`.  This module computes the same-kind fragment
decomposition of one such graph and each fragment's predecessor
fragments, which the metamanager's :class:`repro.runtime.ReadySet`
schedules.

The stock Falcon workflow is not listed here: :func:`build_falcon_workflow`
adds the rows of :func:`repro.cloud.services.falcon_calls`, derived from
:data:`repro.falcon.FALCON_STAGES`.  Merging its same-kind components
always makes a fragment-level cycle, so with or without crowd it runs as
16 singleton fragments ``<name>/n_<node>``; only custom workflows merge.
CloudMatcher 0.1 and the composites run it whole (:func:`run_stock_workflow`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.cloud.services import Service, ServiceKind, ServiceRegistry, falcon_calls
from repro.exceptions import WorkflowError
from repro.falcon.falcon import WorkflowContext
from repro.postprocess.clustering import UnionFind
from repro.runtime import OperatorGraph, ReadySet, RunResult, run_graph


class Fragment(NamedTuple):
    """A maximal same-kind group of one workflow graph's nodes, in the
    graph's order, scheduled as a unit."""

    fragment_id: str
    kind: ServiceKind
    nodes: tuple[str, ...]


def service_of(graph: OperatorGraph, node: str) -> Service:
    """The service a workflow node runs; a node that runs anything else
    is a :class:`WorkflowError` naming it."""
    fn = graph.node(node).fn
    if not isinstance(fn, Service):
        raise WorkflowError(
            f"node {node!r} of workflow {graph.name!r} runs {fn!r}, not a Service"
        )
    return fn


def decompose_fragments(
    graph: OperatorGraph,
) -> tuple[list[Fragment], dict[Fragment, list[Fragment]]]:
    """Split a workflow graph into same-kind fragments plus a ``fragment ->
    predecessor fragments`` mapping, both in order of each fragment's
    first node.

    Fragments are the connected components of the edges joining nodes of
    the same kind.  Node order inside a fragment is the graph's, so a
    fragment is executable as a unit once its external predecessors ran.
    """
    kinds = {node: service_of(graph, node).kind for node in graph.nodes}
    same_kind = UnionFind()
    for node, operator in graph.nodes.items():
        same_kind.add(node)
        for predecessor in operator.deps:
            if kinds[predecessor] == kinds[node]:
                same_kind.union(predecessor, node)
    deps = _fragment_deps(graph, kinds, {
        node: f"{graph.name}/f{index}"
        for index, component in enumerate(same_kind.groups())
        for node in component
    })
    if len(ReadySet(deps).drain()) < len(deps):
        # Merging same-kind components can create a cycle at the fragment
        # level; fall back to singleton fragments.
        deps = _fragment_deps(
            graph, kinds, {node: f"{graph.name}/n_{node}" for node in graph.nodes}
        )
    return list(deps), deps


def _fragment_deps(
    graph: OperatorGraph, kinds: dict[str, ServiceKind], fragment_ids: dict[str, str]
) -> dict[Fragment, list[Fragment]]:
    """The fragments ``node -> fragment id`` names, each mapped to the
    other fragments its nodes' predecessors lie in."""
    members: dict[str, list[str]] = {}
    sources: dict[str, list[str]] = {}
    for node, operator in graph.nodes.items():
        fragment_id = fragment_ids[node]
        members.setdefault(fragment_id, []).append(node)
        before = sources.setdefault(fragment_id, [])
        for predecessor in operator.deps:
            source = fragment_ids[predecessor]
            if source != fragment_id and source not in before:
                before.append(source)
    fragments = {
        fragment_id: Fragment(fragment_id, kinds[nodes[0]], tuple(nodes))
        for fragment_id, nodes in members.items()
    }
    return {
        fragment: [fragments[source] for source in sources[fragment_id]]
        for fragment_id, fragment in fragments.items()
    }


def build_falcon_workflow(
    name: str,
    registry: ServiceRegistry,
    use_crowd: bool = False,
) -> OperatorGraph:
    """The stock Falcon workflow as a service graph (Figure 3 as a DAG).

    With ``use_crowd`` the two labeling-heavy services are re-tagged to the
    crowd engine (labels then come from the session's CrowdLabeler).
    """
    graph = OperatorGraph(name)
    for node, service_name, after in falcon_calls():
        service = registry.get(service_name)
        if use_crowd and service_name in ("active_learn_blocking", "active_learn_matching"):
            service = replace(service, kind=ServiceKind.CROWD)
        graph.add(node, service, deps=after, description=service.description)
    return graph


def run_stock_workflow(
    context: WorkflowContext, registry: ServiceRegistry, through: str | None = None
) -> RunResult:
    """Run the stock Falcon workflow's graph, named after the task, up to
    and including node ``through`` (to the end when ``None``)."""
    graph = build_falcon_workflow(context.task_name, registry)
    if through is not None:
        names = list(graph.nodes)
        graph = graph.subgraph(names[: names.index(through) + 1], name=graph.name)
    return run_graph(graph, context)
