"""Executing a :class:`repro.plan.Plan` and recording what it observed.

:class:`PlanExecutor` is the :class:`repro.runtime.ParallelExecutor`
with the planner in the loop: the per-node fork decision comes from the
plan instead of the blanket fork-everything-fork-safe policy, and nodes
the planner marked memo/checkpoint-warm are served *before* wave
scheduling starts, so a warm prefix never pays per-wave partitioning.

:func:`run_planned` is the one-call entry point used by the front-ends'
``optimize=True`` paths: plan, execute, then fold the run's observed
node costs back into the stats store (and persist it) so the *next* run
plans from fresher evidence.  When the plan is a no-op (no stats yet)
execution falls back to the default serial executor — byte-identical to
an unplanned ``run_graph``.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import get_registry
from repro.runtime import (
    EventStream,
    GraphCheckpoint,
    NodeMemo,
    OperatorGraph,
    ParallelExecutor,
    RunResult,
    SerialExecutor,
    run_graph,
)
from repro.runtime.executor import _RunState
from repro.runtime.graph import ArtifactStore

from repro.plan.optimizer import MODE_FORK, Plan, plan_graph
from repro.plan.stats import StatsStore, get_stats_store


class PlanExecutor(ParallelExecutor):
    """Drive a run the way the plan decided.

    Differences from the base parallel executor, both pure scheduling
    (results stay byte-identical):

    * ``should_fork`` consults the plan — a fork-safe node measured
      cheaper than the fork threshold runs in-parent;
    * warm-marked nodes are served from memo/checkpoint eagerly at the
      start of the drive, in dependency order, before any wave forms.
    """

    def __init__(self, plan: Plan, n_jobs: int = -1):
        super().__init__(n_jobs)
        self.plan = plan
        self._warm = plan.warm_nodes()

    def should_fork(self, state: _RunState, name: str) -> bool:
        if not super().should_fork(state, name):
            return False
        decision = self.plan.decisions.get(name)
        return decision is None or decision.mode == MODE_FORK

    def _serve_warm(self, state: _RunState) -> None:
        """Serve plan-time-warm nodes before scheduling the first wave.

        A node the planner saw warm can only have gone stale if someone
        mutated the caches between planning and execution; ``try_cache``
        re-validates, so staleness degrades to normal execution instead
        of a wrong result.
        """
        progressed = True
        while progressed and state.pending and not state.halted:
            progressed = False
            for name in state.ready_nodes():
                if name in self._warm and state.try_cache(name):
                    progressed = True

    def drive(self, state: _RunState) -> None:
        self._serve_warm(state)
        super().drive(state)


def execute_plan(
    plan: Plan,
    store: ArtifactStore | None = None,
    *,
    events: EventStream | None = None,
    memo: NodeMemo | None = None,
    checkpoint: GraphCheckpoint | None = None,
    on_error: str = "raise",
    sim_at: float = 0.0,
    before_node: Callable[[str], None] | None = None,
    n_jobs: int = -1,
    stats: StatsStore | None = None,
    record: bool = True,
) -> RunResult:
    """Run a planned graph; optionally record observed costs into ``stats``.

    An optimized plan runs under :class:`PlanExecutor`; a no-op plan runs
    under the default :class:`repro.runtime.SerialExecutor`, making the
    cold path indistinguishable from an unplanned run.
    """
    executor = (
        PlanExecutor(plan, n_jobs=n_jobs) if plan.optimized else SerialExecutor()
    )
    result = run_graph(
        plan.graph,
        store,
        executor=executor,
        events=events,
        memo=memo,
        checkpoint=checkpoint,
        on_error=on_error,
        sim_at=sim_at,
        before_node=before_node,
    )
    if plan.optimized:
        registry = get_registry()
        for name, decision in plan.decisions.items():
            record_entry = result.records.get(name)
            if (
                decision.est_seconds is None
                or record_entry is None
                or record_entry.cached
            ):
                continue
            registry.histogram(
                "plan_estimated_vs_actual_seconds", graph=plan.graph.name
            ).observe(abs(record_entry.seconds - decision.est_seconds))
    if record and stats is not None:
        stats.record_result(plan.graph, result)
        stats.save()
    return result


def run_planned(
    graph: OperatorGraph,
    store: ArtifactStore | None = None,
    *,
    stats: StatsStore | None = None,
    events: EventStream | None = None,
    memo: NodeMemo | None = None,
    checkpoint: GraphCheckpoint | None = None,
    on_error: str = "raise",
    sim_at: float = 0.0,
    before_node: Callable[[str], None] | None = None,
    n_jobs: int = -1,
    optimize: bool = True,
    record: bool = True,
) -> RunResult:
    """Plan-then-execute ``graph``: the drop-in optimizing ``run_graph``.

    ``stats`` defaults to the process store (persisted alongside the
    index artifacts when a cache directory is configured).  Every run —
    optimized or cold — records its observations, which is exactly how
    the store warms up: the first run executes the caller's order and
    measures it, the second run plans from those measurements.
    """
    if stats is None:
        stats = get_stats_store()
    plan = (
        plan_graph(graph, stats=stats, memo=memo, checkpoint=checkpoint)
        if optimize
        else Plan(source=graph, graph=graph, optimized=False)
    )
    return execute_plan(
        plan,
        store,
        events=events,
        memo=memo,
        checkpoint=checkpoint,
        on_error=on_error,
        sim_at=sim_at,
        before_node=before_node,
        n_jobs=n_jobs,
        stats=stats,
        record=record,
    )
