"""The operator-DAG intermediate representation shared by every workflow stack.

The paper's Section 4.1 design principles call for one interoperable
execution substrate, and CloudMatcher's core idea (Section 5.1) is that
*every* EM workflow is a DAG of work units over shared state.  This module
is that substrate's IR: an :class:`OperatorGraph` of named
:class:`Operator` nodes, each an arbitrary callable over a shared store,
with explicit data/ordering dependencies.  The store is whatever the
caller hands :func:`repro.runtime.run_graph`: the pipeline's artifact
dict, or the Falcon / CloudMatcher ``WorkflowContext`` whose stage
bodies and services are themselves the operators.  The three front-ends —
``pipeline.MagellanWorkflow`` (a chain), ``cloud`` (service DAGs sliced
into engine fragments), and ``falcon``/``smurf`` (fixed stage graphs) —
all compile to this IR and run through :func:`repro.runtime.run_graph`.

Dependencies must name already-added operators, so a graph is acyclic by
construction; topological order is deterministic (Kahn's algorithm with
insertion-order tie-breaking), so every run of a graph visits its nodes
in one order.  :class:`ReadySet` is that algorithm run incrementally,
and the one ready-set tracker in the package: topological order,
``run_graph`` and the cloud metamanager's fragment dispatch all drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.exceptions import WorkflowError

#: What a graph's operators share: an artifact dict, or any object its
#: operators agree on (Falcon and CloudMatcher pass a ``WorkflowContext``).
ArtifactStore = Any


class ReadySet:
    """Kahn's algorithm, one completion at a time.

    ``deps`` maps every node to its predecessors; its iteration order is
    the tie order.  ``ready`` lists the nodes whose predecessors have all
    completed, in that order; :meth:`complete` decrements the successors'
    remaining-predecessor counts, so a whole run costs O(V + E).
    """

    def __init__(self, deps: Mapping[Hashable, Iterable[Hashable]]):
        self._position = {node: i for i, node in enumerate(deps)}
        self._successors: dict[Hashable, list[Hashable]] = {node: [] for node in deps}
        self._remaining: dict[Hashable, int] = {}
        for node, predecessors in deps.items():
            predecessors = tuple(predecessors)
            self._remaining[node] = len(predecessors)
            for predecessor in predecessors:
                self._successors[predecessor].append(node)
        self.ready = [node for node in deps if self._remaining[node] == 0]
        self.done: set[Hashable] = set()

    @property
    def pending(self) -> bool:
        return len(self.done) < len(self._position)

    def complete(self, node: Hashable) -> None:
        """Mark a ready node done; successors left with no pending
        predecessor join ``ready`` in tie order."""
        self.done.add(node)
        self.ready.remove(node)
        newly_ready = []
        for successor in self._successors[node]:
            self._remaining[successor] -= 1
            if self._remaining[successor] == 0:
                newly_ready.append(successor)
        if newly_ready:
            self.ready = sorted(self.ready + newly_ready, key=self._position.__getitem__)

    def drain(self) -> list[Hashable]:
        """Complete the first ready node until none is ready; returns that
        order, which is shorter than ``deps`` when they hold a cycle."""
        order = []
        while self.ready:
            order.append(self.ready[0])
            self.complete(order[-1])
        return order


@dataclass(frozen=True)
class Operator:
    """One node of a runtime graph.

    ``fn(store)`` reads and writes the shared store.  Its return value
    may be:

    * ``None`` — the operator communicated purely through store mutation;
    * a ``dict`` — artifact updates, merged into the store by the runner
      (so only over a dict store);
    * a ``float``/``int`` — *simulated* human/crowd seconds consumed (the
      Falcon stage and CloudMatcher service convention, over a
      ``WorkflowContext`` store); recorded as the node span's
      ``sim_seconds`` label and in ``runtime_sim_seconds_total``.
    """

    name: str
    fn: Callable[[ArtifactStore], Any]
    deps: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("operator name must be non-empty")


class OperatorGraph:
    """A named DAG of operators over a shared store."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: dict[str, Operator] = {}  # insertion-ordered

    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        fn: Callable[[ArtifactStore], Any],
        deps: tuple[str, ...] | list[str] = (),
        description: str = "",
    ) -> Operator:
        """Add an operator; ``deps`` must name already-added operators.

        Because every edge points backward to an existing node, the graph
        stays acyclic by construction.  Returns the new operator.
        """
        return self.add_operator(Operator(name, fn, tuple(deps), description))

    def add_operator(self, operator: Operator) -> Operator:
        """Add a prebuilt :class:`Operator` (same validation as :meth:`add`)."""
        if operator.name in self.nodes:
            raise WorkflowError(
                f"duplicate operator name {operator.name!r} in graph {self.name!r}"
            )
        for dep in operator.deps:
            if dep not in self.nodes:
                raise WorkflowError(
                    f"operator {operator.name!r} depends on unknown operator {dep!r}"
                )
        self.nodes[operator.name] = operator
        return operator

    # ------------------------------------------------------------------
    def predecessors(self, name: str) -> tuple[str, ...]:
        return self.node(name).deps

    def successors(self, name: str) -> list[str]:
        self.node(name)
        return [other for other, op in self.nodes.items() if name in op.deps]

    def node(self, name: str) -> Operator:
        try:
            return self.nodes[name]
        except KeyError:
            raise WorkflowError(
                f"graph {self.name!r} has no operator {name!r}; "
                f"have {sorted(self.nodes)}"
            ) from None

    def ready_set(self) -> ReadySet:
        """A fresh :class:`ReadySet` over this graph's operators."""
        return ReadySet({name: op.deps for name, op in self.nodes.items()})

    def topological_order(self) -> list[str]:
        """Deterministic topological order (insertion order breaks ties)."""
        order = self.ready_set().drain()
        if len(order) != len(self.nodes):
            raise WorkflowError(f"graph {self.name!r} contains a cycle")
        return order

    def subgraph(self, names: list[str] | tuple[str, ...], name: str | None = None) -> "OperatorGraph":
        """The induced subgraph on ``names``, dependencies restricted to it.

        External dependencies (on nodes outside ``names``) are dropped —
        the caller is responsible for having executed them already, which
        is exactly the fragment contract of the cloud metamanager.
        """
        selected = set(names)
        for node_name in names:
            self.node(node_name)
        sub = OperatorGraph(name or f"{self.name}[{len(selected)}]")
        for node_name in self.topological_order():
            if node_name not in selected:
                continue
            operator = self.nodes[node_name]
            sub.add_operator(
                replace(operator, deps=tuple(d for d in operator.deps if d in selected))
            )
        return sub

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __repr__(self) -> str:
        return f"OperatorGraph({self.name!r}, {len(self.nodes)} nodes)"


def chain_graph(
    name: str,
    steps: list[
        tuple[str, Callable[[ArtifactStore], Any]]
        | tuple[str, Callable[[ArtifactStore], Any], str]
    ],
) -> OperatorGraph:
    """A linear graph: each step depends on the previous one.

    A step is ``(name, fn)`` or ``(name, fn, description)``.  The
    compilation target of :class:`repro.pipeline.MagellanWorkflow`.
    """
    graph = OperatorGraph(name)
    previous: tuple[str, ...] = ()
    for step_name, fn, *rest in steps:
        graph.add(step_name, fn, deps=previous, description=rest[0] if rest else "")
        previous = (step_name,)
    return graph
