"""Production-stage execution: partition parallelism, checkpoints, recovery.

PyMatcher's production story (Section 4.1): execute the captured workflow
"on a multi-core single machine, using customized code or Dask".  Dask is
unavailable here; :func:`repro.perf.parallel.partition_table` and
:func:`repro.perf.parallel.parallel_map_partitions` are the partition
map, and :class:`CheckpointedRun` makes it resumable — the paper's
"scaling, logging, crash recovery, monitoring" list.

A :class:`CheckpointedRun` is a client of :mod:`repro.runtime`: every
partition is one isolated operator, checkpointed by a
:class:`~repro.runtime.GraphCheckpoint` and fanned out by the runtime's
executors, and its node events are logged like a captured workflow's
steps.  Workers inherit the mapped function through ``fork``, so it
does not need to be picklable; its outputs are pickled into the
checkpoint, so a resumed run returns exactly what an uninterrupted one
does.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.exceptions import WorkflowError
from repro.perf.parallel import concat_tables, partition_table
from repro.pipeline.workflow import _log_sink
from repro.runtime import (
    EventStream,
    GraphCheckpoint,
    OperatorGraph,
    ParallelExecutor,
    SerialExecutor,
    node_fingerprints,
    run_graph,
)
from repro.table.table import Table


class CheckpointedRun:
    """A resumable partitioned run with on-disk progress.

    Partition ``i`` is the runtime node ``part_<i>``; its output table is
    checkpointed under ``directory/<run_id>/`` as soon as it finishes, so
    re-running after a crash computes only the partitions that never did.
    """

    def __init__(self, run_id: str, directory: str | Path):
        self.run_id = run_id
        self.checkpoint = GraphCheckpoint(run_id, directory)
        self.directory = self.checkpoint.directory

    def completed_partitions(self) -> set[int]:
        """Indices of partitions already finished in a previous run."""
        return {
            int(name.removeprefix("part_")) for name in self.checkpoint.completed_nodes()
        }

    def execute(
        self,
        table: Table,
        fn: Callable[[Table], Table],
        n_partitions: int = 4,
        n_jobs: int = 1,
    ) -> Table:
        """Run ``fn`` over each partition, checkpointing each result.

        Deterministic partitioning means a resumed run sees the same
        partitions; already-checkpointed partitions are restored, not
        recomputed.  With ``n_jobs`` > 1 the pending partitions run on a
        forked process pool; a partition that fails there does not stop
        the others of its wave from being checkpointed.  Outputs are
        concatenated in partition order either way.
        """
        graph = OperatorGraph(self.run_id)
        for index, partition in enumerate(partition_table(table, n_partitions)):
            name = f"part_{index}"
            graph.add(
                name,
                lambda _store, name=name, partition=partition: {name: fn(partition)},
                outputs=(name,),
                isolated=True,
                key=f"n_partitions={n_partitions}",
            )
        fingerprints = node_fingerprints(graph)
        if any(
            not self.checkpoint.has(name, fingerprints.get(name, ""))
            for name in self.checkpoint.completed_nodes()
        ):
            raise WorkflowError(
                f"run {self.run_id!r} holds checkpoints that do not match "
                f"{n_partitions} partitions; cannot resume with them"
            )
        executor = SerialExecutor() if n_jobs == 1 else ParallelExecutor(n_jobs)
        events = EventStream()
        events.subscribe(_log_sink(self.run_id))
        result = run_graph(
            graph, executor=executor, events=events, checkpoint=self.checkpoint
        )
        return concat_tables([result.store[name] for name in graph.nodes])
