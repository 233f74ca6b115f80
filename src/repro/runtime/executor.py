"""Running a runtime operator graph.

:func:`run_graph` executes a graph one way: in the calling process, one
ready node at a time, in the deterministic topological order of the
graph's :class:`~repro.runtime.graph.ReadySet` (insertion order breaks
ties; remaining-predecessor counts are decremented on completion, not
rescanned — O(V + E) over a whole run).  Each node is served from the
memo or the checkpoint when it can be, otherwise run with its retry
budget, and every step is an event on the run's stream.

Nothing here forks.  Multicore work is the production stage's partition
map (:mod:`repro.perf.parallel`), which ``CheckpointedRun`` makes
resumable with a :class:`~repro.runtime.checkpoint.GraphCheckpoint`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ConfigurationError, WorkflowError
from repro.runtime import events as ev
from repro.runtime.checkpoint import GraphCheckpoint, NodeMemo, node_fingerprints
from repro.runtime.events import EventStream, RunEvent
from repro.runtime.graph import ArtifactStore, NodeRecord, Operator, OperatorGraph


def count_rows(value: Any) -> int:
    """Best-effort row count of an artifact: tables and sized containers.

    Strings are deliberately *not* counted (a path or message is one
    artifact, not ``len(str)`` rows); anything without a row notion is 0.
    """
    num_rows = getattr(value, "num_rows", None)
    if isinstance(num_rows, int):
        return num_rows
    if isinstance(value, (str, bytes)):
        return 0
    try:
        return len(value)
    except TypeError:
        return 0


@dataclass
class RunResult:
    """Outcome of one graph execution."""

    graph: OperatorGraph
    store: ArtifactStore
    records: dict[str, NodeRecord]
    events: EventStream
    ok: bool = True
    first_error: BaseException | None = None

    def total_seconds(self) -> float:
        """Wall seconds spent executing (cache hits count their restore time)."""
        return sum(record.seconds for record in self.records.values())

    def sim_seconds(self) -> float:
        """Total simulated human/crowd seconds reported by the nodes."""
        return sum(record.sim_seconds for record in self.records.values())

    def failed_nodes(self) -> list[str]:
        return [name for name, record in self.records.items() if not record.ok]


class _RunState:
    """The scheduling and caching state of one :func:`run_graph` call."""

    def __init__(
        self,
        graph: OperatorGraph,
        store: ArtifactStore,
        events: EventStream,
        memo: NodeMemo | None,
        checkpoint: GraphCheckpoint | None,
        on_error: str,
        sim_at: float,
        before_node: Callable[[str], None] | None,
    ):
        self.graph = graph
        self.store = store
        self.events = events
        self.memo = memo
        self.checkpoint = checkpoint
        self.on_error = on_error
        self.sim_at = sim_at
        self.before_node = before_node
        self.fingerprints = node_fingerprints(graph)
        self.records: dict[str, NodeRecord] = {}
        self.ready = graph.ready_set()
        self.first_error: BaseException | None = None
        self.halted = False

    # -- caching -------------------------------------------------------
    def try_cache(self, name: str) -> bool:
        """Serve a node from memo or checkpoint; True when it was a hit."""
        operator = self.graph.nodes[name]
        fp = self.fingerprints[name]
        started = time.perf_counter()
        if self.memo is not None and operator.outputs:
            outputs = self.memo.get(fp)
            if outputs is not None:
                self.store.update(outputs)
                seconds = time.perf_counter() - started
                if self.checkpoint is not None and self.checkpoint.can_checkpoint(operator) and not self.checkpoint.has(name, fp):
                    self.checkpoint.save(name, fp, outputs)
                self._emit_cache_hit(name, seconds, "memo")
                return True
        if self.checkpoint is not None and self.checkpoint.can_checkpoint(operator) and self.checkpoint.has(name, fp):
            outputs = self.checkpoint.restore(name)
            self.store.update(outputs)
            seconds = time.perf_counter() - started
            if self.memo is not None:
                self.memo.put(fp, outputs)
            self.events.emit(
                RunEvent(
                    ev.CHECKPOINT_RESTORED, self.graph.name, name,
                    wall_seconds=seconds, sim_at=self.sim_at, cached=True,
                )
            )
            self._emit_cache_hit(name, seconds, "checkpoint")
            return True
        return False

    def _emit_cache_hit(self, name: str, seconds: float, source: str) -> None:
        self.events.emit(
            RunEvent(
                ev.CACHE_HIT, self.graph.name, name,
                wall_seconds=seconds, sim_at=self.sim_at, cached=True,
                extra={"source": source},
            )
        )
        self.records[name] = NodeRecord(
            name, seconds, True, cached=True,
            outputs=self.graph.nodes[name].outputs,
        )
        self.ready.complete(name)

    # -- execution -----------------------------------------------------
    def execute(self, name: str) -> None:
        operator = self.graph.nodes[name]
        if self.before_node is not None:
            # Fault-injection/testing hook: an exception here simulates a
            # crash *between* nodes — nothing is recorded, it propagates.
            self.before_node(name)
        # rows_in must be sized *before* a node runs: filter-style
        # operators overwrite the very slot they read, so measuring after
        # the fact would always see selectivity 1.0.
        rows_in = self._slot_rows(self._dep_output_slots(operator))
        self.events.emit(RunEvent(ev.NODE_START, self.graph.name, name, sim_at=self.sim_at))
        outcome = _attempt(operator, self.store)
        for _ in range(outcome.attempts - 1):
            self.events.emit(RunEvent(ev.NODE_RETRY, self.graph.name, name, sim_at=self.sim_at))
        if outcome.error is None:
            if outcome.updates:
                self.store.update(outcome.updates)
            outputs = self._declared_outputs(operator)
            fp = self.fingerprints[name]
            if self.memo is not None and operator.outputs:
                self.memo.put(fp, outputs)
            if self.checkpoint is not None and self.checkpoint.can_checkpoint(operator):
                self.checkpoint.save(name, fp, outputs)
                self.events.emit(
                    RunEvent(ev.CHECKPOINT_SAVED, self.graph.name, name, sim_at=self.sim_at)
                )
            self.events.emit(
                RunEvent(
                    ev.NODE_FINISH, self.graph.name, name,
                    wall_seconds=outcome.seconds, sim_seconds=outcome.sim_seconds,
                    sim_at=self.sim_at, rows_in=rows_in,
                    rows_out=self._slot_rows(operator.outputs),
                )
            )
            self.records[name] = NodeRecord(
                name, outcome.seconds, True, sim_seconds=outcome.sim_seconds,
                attempts=outcome.attempts, outputs=operator.outputs,
            )
        else:
            self.events.emit(
                RunEvent(
                    ev.NODE_FAIL, self.graph.name, name,
                    wall_seconds=outcome.seconds, sim_at=self.sim_at,
                    error=repr(outcome.error),
                )
            )
            self.records[name] = NodeRecord(
                name, outcome.seconds, False, error=repr(outcome.error),
                attempts=outcome.attempts, outputs=operator.outputs,
            )
            if self.first_error is None:
                self.first_error = outcome.error
        # With on_error="continue" a failed node still unblocks its
        # dependents — they depend on it for *ordering* (the captured-
        # script semantics of MagellanWorkflow.run(stop_on_error=False)).
        self.ready.complete(name)
        if outcome.error is not None:
            if self.on_error == "halt":
                self.halted = True
            elif self.on_error == "raise":
                raise outcome.error

    def _declared_outputs(self, operator: Operator) -> dict[str, Any]:
        missing = [slot for slot in operator.outputs if slot not in self.store]
        if missing:
            raise WorkflowError(
                f"operator {operator.name!r} declared outputs {missing} "
                f"but did not write them"
            )
        return {slot: self.store[slot] for slot in operator.outputs}

    def _dep_output_slots(self, operator: Operator) -> tuple[str, ...]:
        slots: list[str] = []
        for dep in operator.deps:
            slots.extend(self.graph.nodes[dep].outputs)
        return tuple(slots)

    def _slot_rows(self, slots: tuple[str, ...]) -> int:
        """Total sized rows across store slots (0 for unsized artifacts).

        Measured on whatever the operators actually exchange: tables by
        ``num_rows``, sized containers by ``len``, scalars as 0.
        """
        return sum(count_rows(self.store.get(slot)) for slot in slots)


@dataclass
class _Outcome:
    """What one node attempt loop produced."""

    seconds: float = 0.0
    sim_seconds: float = 0.0
    attempts: int = 1
    updates: dict[str, Any] | None = None
    error: BaseException | None = None


def _attempt(operator: Operator, store: ArtifactStore) -> _Outcome:
    """Run one operator with its retry budget; never raises."""
    started = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            result = operator.fn(store)
        except Exception as exc:
            if attempts <= operator.retries:
                continue
            return _Outcome(
                seconds=time.perf_counter() - started, attempts=attempts, error=exc
            )
        # bool is an int subclass: a predicate-style operator returning
        # True must not be recorded as 1.0 simulated seconds.
        sim_seconds = (
            float(result)
            if isinstance(result, (int, float)) and not isinstance(result, bool)
            else 0.0
        )
        updates = result if isinstance(result, dict) else None
        return _Outcome(
            seconds=time.perf_counter() - started, sim_seconds=sim_seconds,
            attempts=attempts, updates=updates,
        )


def run_graph(
    graph: OperatorGraph,
    store: ArtifactStore | None = None,
    *,
    events: EventStream | None = None,
    memo: NodeMemo | None = None,
    checkpoint: GraphCheckpoint | None = None,
    on_error: str = "raise",
    sim_at: float = 0.0,
    before_node: Callable[[str], None] | None = None,
) -> RunResult:
    """Execute a runtime graph; returns the run result.

    ``store`` is the shared artifact dict (created empty when omitted and
    mutated in place otherwise).  ``events`` collects the structured run
    stream; ``memo`` adds in-process fingerprint memoization; ``checkpoint``
    adds DAG-level crash recovery (see :mod:`repro.runtime.checkpoint`).
    ``on_error`` is ``"raise"`` (default: first failure propagates after
    being recorded), ``"continue"`` (failures are recorded, dependents
    still run — the captured-script semantics), or ``"halt"`` (the first
    failure stops scheduling, the run returns normally, and the exception
    is available as ``RunResult.first_error`` for the caller to re-raise
    after inspecting the records).  ``before_node`` is a
    testing/fault-injection hook called with each node name immediately
    before it executes; exceptions it raises simulate a crash and
    propagate unrecorded.
    """
    if on_error not in ("raise", "continue", "halt"):
        raise ConfigurationError(
            f"on_error must be 'raise', 'continue', or 'halt', got {on_error!r}"
        )
    state = _RunState(
        graph=graph,
        store={} if store is None else store,
        events=events if events is not None else EventStream(),
        memo=memo,
        checkpoint=checkpoint,
        on_error=on_error,
        sim_at=sim_at,
        before_node=before_node,
    )
    # Node timings/counters land in the metrics registry automatically;
    # the sink lives only for this run so shared streams (the metamanager
    # reuses one across fragments) are never double-subscribed.  Imported
    # here because repro.obs itself builds on repro.runtime.events.
    from repro.obs.sinks import metrics_sink

    sink = state.events.subscribe(metrics_sink())
    state.events.emit(RunEvent(ev.RUN_START, graph.name, sim_at=sim_at))
    try:
        while state.ready.pending and not state.halted:
            name = state.ready.ready[0]
            if not state.try_cache(name):
                state.execute(name)
    finally:
        state.events.emit(
            RunEvent(
                ev.RUN_FINISH, graph.name, sim_at=sim_at,
                wall_seconds=sum(r.seconds for r in state.records.values()),
                sim_seconds=sum(r.sim_seconds for r in state.records.values()),
            )
        )
        state.events.unsubscribe(sink)
    return RunResult(
        graph=graph,
        store=state.store,
        records=state.records,
        events=state.events,
        ok=all(record.ok for record in state.records.values()),
        first_error=state.first_error,
    )
