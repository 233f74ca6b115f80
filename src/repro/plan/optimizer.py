"""The cost-based plan optimizer over :class:`repro.runtime.OperatorGraph`.

The paper's "efficient by design" principle (Section 4.1) says an EM
system should choose execution strategies from data instead of executing
whatever the user happened to write.  :func:`plan_graph` is that choice
point: given a compiled graph and the :class:`repro.plan.StatsStore` of
prior runs it produces a :class:`Plan` that

* **reorders commuting chains most-selective-first** — maximal linear
  runs of operators sharing a non-empty ``Operator.commutes`` label (the
  candidate-set-filter contract) are permuted so the filter that drops
  the most rows runs first, shrinking every later filter's input;
* **picks a per-node execution mode** — nodes whose observed cost is
  below the fork threshold run in-parent even when fork-safe (the fork
  round-trip would dominate), heavy fork-safe nodes are fanned out;
* **marks memo/checkpoint-warm nodes at plan time** — their fingerprints
  are probed once while planning, so the executor serves them eagerly
  instead of discovering cache hits wave by wave.

With no statistics the planner is a deliberate no-op: the returned plan
carries the *same* graph object, schedules exactly like today's default
executor, and costs only two fingerprint passes — a first run is never
worse than an unplanned one.

Correctness contract: optimized and unoptimized executions of the same
graph produce byte-identical artifact stores.  Reordering relies only on
declared commutativity, mode selection on the existing forked-output
contract, and warm pruning on the existing memo semantics — each of
which is individually output-preserving (property-tested in
``tests/test_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_registry
from repro.runtime import GraphCheckpoint, NodeMemo, OperatorGraph, node_fingerprints
from repro.runtime.graph import Operator

from repro.plan.stats import NodeStats, StatsStore, identity_fingerprints

# Below this expected wall time, forking a fork-safe node costs more than
# it saves (fork + pickle round-trip is ~10-30ms on this substrate).
FORK_THRESHOLD_SECONDS = 0.05

MODE_INLINE = "inline"
MODE_FORK = "fork"


@dataclass
class NodePlan:
    """The planner's decision record for one operator."""

    name: str
    mode: str = MODE_INLINE
    est_seconds: float | None = None
    est_selectivity: float | None = None
    warm: bool = False
    moved_from: int | None = None  # original topo position, when reordered


@dataclass
class Plan:
    """A scheduled graph plus the decisions that shaped it."""

    source: OperatorGraph
    graph: OperatorGraph
    optimized: bool
    decisions: dict[str, NodePlan] = field(default_factory=dict)
    reorders: int = 0  # commuting segments whose order changed
    moved_nodes: int = 0

    def warm_nodes(self) -> set[str]:
        return {name for name, d in self.decisions.items() if d.warm}

    def estimated_seconds(self) -> float:
        """Estimated wall seconds of the non-warm part of the plan."""
        return sum(
            d.est_seconds
            for d in self.decisions.values()
            if d.est_seconds is not None and not d.warm
        )

    def explain(self) -> str:
        """Human-readable plan: one line per node in scheduled order."""
        lines = [
            f"plan for graph {self.graph.name!r}: "
            + (
                f"optimized ({self.reorders} reorder(s), {self.moved_nodes} node(s) moved, "
                f"{len(self.warm_nodes())} warm)"
                if self.optimized
                else "no statistics yet - safe default schedule"
            ),
            f"{'#':>3} {'node':<28} {'est s':>9} {'select':>7} {'mode':<7} warm",
        ]
        for position, name in enumerate(self.graph.topological_order()):
            d = self.decisions.get(name, NodePlan(name))
            est = f"{d.est_seconds:.4f}" if d.est_seconds is not None else "-"
            sel = f"{d.est_selectivity:.3f}" if d.est_selectivity is not None else "-"
            moved = (
                f"  (was #{d.moved_from})"
                if d.moved_from is not None and d.moved_from != position
                else ""
            )
            lines.append(
                f"{position:>3} {name:<28} {est:>9} {sel:>7} {d.mode:<7} "
                f"{'yes' if d.warm else 'no'}{moved}"
            )
        total = self.estimated_seconds()
        if self.optimized and total:
            lines.append(f"estimated non-warm wall seconds: {total:.4f}")
        return "\n".join(lines)


def _node_stats(
    graph: OperatorGraph, stats: StatsStore | None
) -> dict[str, NodeStats]:
    if stats is None:
        return {}
    identities = identity_fingerprints(graph)
    found = {}
    for name, fp in identities.items():
        entry = stats.get(fp)
        if entry is not None and (entry.runs or entry.cache_hits):
            found[name] = entry
    return found


def _commuting_segments(graph: OperatorGraph) -> list[list[str]]:
    """Maximal linear chains sharing one non-empty ``commutes`` label.

    A segment extends from ``s_i`` to ``s_{i+1}`` only when ``s_{i+1}``
    is ``s_i``'s *sole* successor and ``s_i`` its sole dependency — the
    shape under which swapping neighbours cannot change what any node
    outside the segment observes.
    """
    segments: list[list[str]] = []
    in_segment: set[str] = set()
    for name in graph.topological_order():
        operator = graph.nodes[name]
        if not operator.commutes or name in in_segment:
            continue
        segment = [name]
        while True:
            tail = graph.nodes[segment[-1]]
            successors = graph.successors(segment[-1])
            if len(successors) != 1:
                break
            nxt = graph.nodes[successors[0]]
            if (
                nxt.commutes != tail.commutes
                or nxt.deps != (tail.name,)
            ):
                break
            segment.append(nxt.name)
        if len(segment) > 1:
            segments.append(segment)
            in_segment.update(segment)
    return segments


def _reorder(
    graph: OperatorGraph, per_node: dict[str, NodeStats]
) -> tuple[OperatorGraph, int, int, dict[str, str]]:
    """Rewrite commuting segments most-selective-first.

    Returns the (possibly new) graph, the number of segments changed, the
    number of nodes that moved, and the dependency renames applied (old
    segment tail -> new segment tail) for callers that track edges.

    A segment is only reordered when *every* member has an observed
    selectivity — mixing measured and unmeasured filters would order on
    guesses, and keeping the user's order is the safe default.
    """
    reordered: dict[str, list[str]] = {}  # original head -> permuted order
    slot_swap: dict[str, str] = {}  # original slot name -> occupant name
    dep_rename: dict[str, str] = {}  # old tail -> new tail
    new_head_deps: dict[str, tuple[str, ...]] = {}
    changed_segments = 0
    moved = 0

    for segment in _commuting_segments(graph):
        selectivities = {}
        for name in segment:
            stats = per_node.get(name)
            selectivity = stats.selectivity() if stats is not None else None
            if selectivity is None:
                break
            selectivities[name] = selectivity
        else:
            order = sorted(segment, key=lambda n: (selectivities[n],))
            if order == segment:
                continue
            changed_segments += 1
            moved += sum(1 for a, b in zip(segment, order) if a != b)
            reordered[segment[0]] = order
            for slot, occupant in zip(segment, order):
                slot_swap[slot] = occupant
            dep_rename[segment[-1]] = order[-1]
            new_head_deps[order[0]] = graph.nodes[segment[0]].deps

    if not reordered:
        return graph, 0, 0, {}

    # Rebuild in the original insertion order, with each segment slot
    # holding its permuted occupant and dangling edges renamed.  Chain
    # interiors get exactly one dependency (their new predecessor);
    # every other node keeps its deps modulo tail renames.
    chain_pred: dict[str, str] = {}
    for order in reordered.values():
        for previous, current in zip(order, order[1:]):
            chain_pred[current] = previous

    rebuilt = OperatorGraph(graph.name)
    for slot_name in graph.nodes:
        occupant = graph.nodes[slot_swap.get(slot_name, slot_name)]
        if occupant.name in new_head_deps:
            deps = tuple(
                dep_rename.get(d, d) for d in new_head_deps[occupant.name]
            )
        elif occupant.name in chain_pred:
            deps = (chain_pred[occupant.name],)
        else:
            deps = tuple(dep_rename.get(d, d) for d in occupant.deps)
        rebuilt.add(
            occupant.name,
            occupant.fn,
            deps=deps,
            outputs=occupant.outputs,
            description=occupant.description,
            retries=occupant.retries,
            checkpoint=occupant.checkpoint,
            isolated=occupant.isolated,
            key=occupant.key,
            commutes=occupant.commutes,
        )
    return rebuilt, changed_segments, moved, dep_rename


def _can_fork(operator: Operator) -> bool:
    return operator.isolated and bool(operator.outputs)


def plan_graph(
    graph: OperatorGraph,
    stats: StatsStore | None = None,
    memo: NodeMemo | None = None,
    checkpoint: GraphCheckpoint | None = None,
    fork_threshold: float = FORK_THRESHOLD_SECONDS,
) -> Plan:
    """Produce an execution :class:`Plan` for ``graph`` from observed stats.

    ``memo``/``checkpoint`` are the same caches the execution will use;
    passing them lets the planner mark warm nodes up front.  With no
    recorded statistics the plan is an explicit no-op (same graph object,
    default schedule) so first runs behave exactly like today.
    """
    registry = get_registry()
    per_node = _node_stats(graph, stats)
    if not per_node:
        registry.counter("plan_runs_total", graph=graph.name, optimized="false").inc()
        decisions = {
            name: NodePlan(name, mode=MODE_FORK if _can_fork(op) else MODE_INLINE)
            for name, op in graph.nodes.items()
        }
        return Plan(source=graph, graph=graph, optimized=False, decisions=decisions)

    original_position = {
        name: i for i, name in enumerate(graph.topological_order())
    }
    planned, reorders, moved, _ = _reorder(graph, per_node)
    if reorders:
        registry.counter("plan_reorders_total", graph=graph.name).inc(reorders)

    fingerprints = node_fingerprints(planned)
    decisions: dict[str, NodePlan] = {}
    pruned = 0
    for name, operator in planned.nodes.items():
        stats_entry = per_node.get(name)
        est_seconds = (
            stats_entry.mean_seconds() if stats_entry and stats_entry.runs else None
        )
        est_selectivity = stats_entry.selectivity() if stats_entry else None
        if _can_fork(operator):
            # Fork-safe nodes fork by default (today's behaviour); only a
            # measured-cheap node is pulled back in-parent.
            mode = (
                MODE_INLINE
                if est_seconds is not None and est_seconds < fork_threshold
                else MODE_FORK
            )
        else:
            mode = MODE_INLINE
        warm = False
        fp = fingerprints[name]
        if operator.outputs:
            if memo is not None and fp in memo:
                warm = True
            elif (
                checkpoint is not None
                and checkpoint.can_checkpoint(operator)
                and checkpoint.has(name, fp)
            ):
                warm = True
        if warm:
            pruned += 1
        decisions[name] = NodePlan(
            name,
            mode=mode,
            est_seconds=est_seconds,
            est_selectivity=est_selectivity,
            warm=warm,
            moved_from=original_position[name],
        )
    registry.counter("plan_runs_total", graph=graph.name, optimized="true").inc()
    if pruned:
        registry.counter("plan_nodes_pruned_total", graph=graph.name).inc(pruned)
    return Plan(
        source=graph,
        graph=planned,
        optimized=True,
        decisions=decisions,
        reorders=reorders,
        moved_nodes=moved,
    )
