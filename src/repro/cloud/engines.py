"""Execution engines and the metamanager (CloudMatcher 1.0's core).

Three engines — user interaction, crowd, batch — each execute fragments
of their kind, one fragment at a time.  The :class:`MetaManager`
"interleave[s] the execution of DAG fragments coming from different EM
workflows and coordinate[s] all of the activities": it is a discrete-event
scheduler over *simulated* time, where a fragment's duration is the
machine seconds and the simulated human/crowd seconds its run's node
records hold.  Interleaving lets a batch fragment of one workflow run while
another workflow waits on its user — the source of the multi-tenant
throughput win benchmarked for Figure 5.

A fragment runs as the subgraph of its run's workflow graph on its
nodes, through the shared runtime core, into the run's one
:class:`~repro.runtime.NodeRecord` dict: every service invocation is a
node span (labelled with the fragment's simulated start and the
service's simulated seconds) on the installed tracer, and lands in the
``runtime_*`` metrics.

Readiness is the runtime's own :class:`repro.runtime.ReadySet` over each
run's fragment DAG; what this module adds is the dispatch policy — the
simulated-time heap and the serial-vs-interleaved choice of Figure 5.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cloud.dag import Fragment, decompose_fragments
from repro.cloud.services import ServiceKind
from repro.exceptions import WorkflowError
from repro.falcon.falcon import WorkflowContext
from repro.obs import get_registry
from repro.runtime import NodeRecord, OperatorGraph, ReadySet, run_graph


@dataclass
class FragmentExecution:
    """Record of one fragment's execution."""

    fragment: Fragment
    start: float  # simulated seconds
    end: float
    machine_seconds: float
    human_seconds: float


class ExecutionEngine:
    """Runs fragments of one kind; tracks simulated busy time."""

    def __init__(self, kind: ServiceKind):
        self.kind = kind
        self.busy_until = 0.0
        self.executions: list[FragmentExecution] = []

    def execute(
        self, fragment: Fragment, run: "WorkflowRun", now: float
    ) -> FragmentExecution:
        """Execute a fragment of a run as a runtime subgraph; returns the record.

        The fragment's services run for real on the run's context (the
        runtime store), recording into the run's node records; its machine
        and human/crowd seconds are the sums over its own nodes' records.
        Simulated start is max(now, engine free).
        """
        if fragment.kind != self.kind:
            raise WorkflowError(
                f"{self.kind.value} engine cannot run a {fragment.kind.value} fragment"
            )
        start = max(now, self.busy_until)
        run_graph(
            run.graph.subgraph(fragment.nodes, name=run.graph.name),
            run.context,
            sim_at=start,
            records=run.records,
        )
        records = [run.records[node] for node in fragment.nodes]
        machine_seconds = sum(record.seconds for record in records)
        human_seconds = sum(record.sim_seconds for record in records)
        end = start + machine_seconds + human_seconds
        record = FragmentExecution(fragment, start, end, machine_seconds, human_seconds)
        self.busy_until = end
        self.executions.append(record)
        registry = get_registry()
        registry.counter("cloud_fragments_total", engine=self.kind.value).inc()
        registry.histogram(
            "cloud_fragment_machine_seconds", engine=self.kind.value
        ).observe(machine_seconds)
        if human_seconds:
            registry.counter(
                "cloud_fragment_sim_seconds_total", engine=self.kind.value
            ).inc(human_seconds)
        return record


@dataclass
class WorkflowRun:
    """One workflow graph admitted to the metamanager, with its context.

    Its fragments are computed at admission; ``ready`` is the runtime's
    :class:`~repro.runtime.ReadySet` over the fragment DAG, keyed by the
    fragments themselves, and ``records`` the one node-record dict every
    fragment's ``run_graph`` fills.
    """

    graph: OperatorGraph
    context: WorkflowContext
    ready: ReadySet = field(init=False, repr=False)
    records: dict[str, NodeRecord] = field(init=False, repr=False, default_factory=dict)
    finish_time: float = 0.0

    def __post_init__(self) -> None:
        _, deps = decompose_fragments(self.graph)
        self.ready = ReadySet(deps)


class MetaManager:
    """Schedules fragments from concurrent workflows onto the engines.

    A greedy list scheduler over simulated time: at each step, among all
    ready fragments (predecessors done), dispatch the one whose engine
    frees up first; ties go to the workflow admitted earlier.  With
    ``interleave=False`` it degrades to CloudMatcher 0.1 behaviour — one
    workflow runs to completion before the next starts.

    Every node of every workflow is a span on the installed tracer, in
    dispatch order.
    """

    def __init__(self, interleave: bool = True):
        self.interleave = interleave
        # The batch cluster and the crowd are shared infrastructure; user
        # interaction is not — each submitted task has its own owner
        # answering its questions, so every run gets a private
        # user-interaction engine.
        self.engines = {
            ServiceKind.BATCH: ExecutionEngine(ServiceKind.BATCH),
            ServiceKind.CROWD: ExecutionEngine(ServiceKind.CROWD),
        }
        self._user_engines: dict[int, ExecutionEngine] = {}
        self.runs: list[WorkflowRun] = []

    def engine_for(self, run: "WorkflowRun", kind: ServiceKind) -> ExecutionEngine:
        """The engine that executes this run's fragments of ``kind``."""
        if kind is ServiceKind.USER_INTERACTION:
            engine = self._user_engines.get(id(run))
            if engine is None:
                engine = self._user_engines[id(run)] = ExecutionEngine(kind)
            return engine
        return self.engines[kind]

    def all_engines(self) -> list[ExecutionEngine]:
        """Every engine, shared and per-user."""
        return list(self.engines.values()) + list(self._user_engines.values())

    def submit(self, graph: OperatorGraph, context: WorkflowContext) -> WorkflowRun:
        """Admit a workflow graph; fragments are computed at admission, so
        a node that is not a :class:`~repro.cloud.services.Service` is a
        :class:`WorkflowError` before any node runs."""
        run = WorkflowRun(graph, context)
        self.runs.append(run)
        return run

    # ------------------------------------------------------------------
    def run_all(self) -> float:
        """Execute every admitted workflow; returns the simulated makespan."""
        if not self.runs:
            return 0.0
        if not self.interleave:
            clock = 0.0
            for run in self.runs:
                clock = self._run_serial(run, clock)
                run.finish_time = clock
            return clock
        return self._run_interleaved()

    def _run_serial(self, run: WorkflowRun, clock: float) -> float:
        while run.ready.pending:
            for fragment in list(run.ready.ready):
                engine = self.engine_for(run, fragment.kind)
                record = engine.execute(fragment, run, clock)
                clock = max(clock, record.end)
                run.ready.complete(fragment)
        return clock

    def _run_interleaved(self) -> float:
        # Event-driven greedy dispatch. heap entries: (dispatchable_at,
        # admission order, sequence) to break ties deterministically; the
        # trailing element records when the fragment became ready so the
        # dispatcher can report queue wait (the same ready-to-start
        # latency the serving layer's histograms report in wall time).
        makespan = 0.0
        pending = {id(run): run for run in self.runs}
        sequence = 0
        heap: list[tuple[float, int, int, "WorkflowRun", Fragment, float]] = []

        def push_ready(run: "WorkflowRun", order: int, now: float) -> None:
            nonlocal sequence
            dispatched = {entry[4] for entry in heap if entry[3] is run}
            for fragment in run.ready.ready:
                if fragment in dispatched:
                    continue
                engine = self.engine_for(run, fragment.kind)
                at = max(now, engine.busy_until)
                heapq.heappush(heap, (at, order, sequence, run, fragment, now))
                sequence += 1

        for order, run in enumerate(self.runs):
            push_ready(run, order, 0.0)

        order_of = {id(run): i for i, run in enumerate(self.runs)}
        registry = get_registry()
        while heap:
            at, order, _, run, fragment, ready_at = heapq.heappop(heap)
            # Queue depth per engine kind at dispatch time: fragments
            # still waiting in the heap, plus the one being dispatched.
            waiting: dict[str, int] = {kind.value: 0 for kind in ServiceKind}
            waiting[fragment.kind.value] += 1
            for entry in heap:
                waiting[entry[4].kind.value] += 1
            for kind_value, depth in waiting.items():
                registry.gauge("cloud_queue_depth", engine=kind_value).set(depth)
            engine = self.engine_for(run, fragment.kind)
            record = engine.execute(fragment, run, at)
            registry.histogram(
                "cloud_queue_wait_seconds", engine=fragment.kind.value
            ).observe(record.start - ready_at)
            run.ready.complete(fragment)
            makespan = max(makespan, record.end)
            if not run.ready.pending:
                run.finish_time = record.end
                pending.pop(id(run), None)
            push_ready(run, order_of[id(run)], record.end)
            # Newly freed engine may unblock other runs' queued fragments:
            # re-push their ready sets with updated availability.
            for other in pending.values():
                if other is not run:
                    push_ready(other, order_of[id(other)], record.end)
        if pending:
            raise WorkflowError("metamanager finished with incomplete workflows")
        return makespan
