"""Production-stage execution: partition parallelism, checkpoints, recovery.

PyMatcher's production story (Section 4.1): execute the captured workflow
"on a multi-core single machine, using customized code or Dask".  Dask is
unavailable here; :func:`repro.perf.parallel.partition_table` and
:func:`repro.perf.parallel.parallel_map_partitions` are the partition
map, and :class:`CheckpointedRun` makes it resumable — the paper's
"scaling, logging, crash recovery, monitoring" list.

A :class:`CheckpointedRun` is that partition map plus a
:class:`~repro.runtime.GraphCheckpoint`: pending partitions are computed
through :func:`~repro.perf.parallel.run_sharded`, the map's own fork
primitive, and each result is saved by the parent process as node
``part_<i>`` and logged on ``repro.pipeline``.  Workers inherit the
mapped function through ``fork``, so it does not need to be picklable;
its outputs are pickled into the checkpoint, so a resumed run returns
exactly what an uninterrupted one does.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path
from typing import Callable

from repro.exceptions import WorkflowError
from repro.perf.parallel import concat_tables, effective_n_jobs, partition_table, run_sharded
from repro.runtime import GraphCheckpoint, fingerprint
from repro.table.table import Table

logger = logging.getLogger("repro.pipeline")


class CheckpointedRun:
    """A resumable partitioned run with on-disk progress.

    Partition ``i`` is the checkpoint node ``part_<i>``; its output table
    is checkpointed under ``directory/<run_id>/`` as soon as it finishes,
    so re-running after a crash computes only the partitions that never
    did.
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
        recomputed.  With ``n_jobs=1`` a failing partition's exception
        propagates and later partitions do not run.  Otherwise the
        pending partitions run on a forked process pool: every one that
        succeeds is checkpointed, then a failure raises ``WorkflowError``.
        Outputs are concatenated in partition order either way.
        """
        serial = effective_n_jobs(n_jobs) == 1
        parts = partition_table(table, n_partitions)
        names = [f"part_{index}" for index in range(len(parts))]
        # The fingerprints a graph of one node per partition gives these
        # names, so run directories written by that layout resume.
        fingerprints = {
            name: fingerprint(self.run_id, name, f"n_partitions={n_partitions}", ())
            for name in names
        }
        if any(
            not self.checkpoint.has(name, fingerprints.get(name, ""))
            for name in self.checkpoint.completed_nodes()
        ):
            raise WorkflowError(
                f"run {self.run_id!r} holds checkpoints that do not match "
                f"{n_partitions} partitions; cannot resume with them"
            )
        outputs: dict[str, Table] = {}
        for name in names:
            if self.checkpoint.has(name, fingerprints[name]):
                outputs[name] = self.checkpoint.restore(name)[name]
                logger.info("run %s: partition %s restored", self.run_id, name)
        pending = [index for index, name in enumerate(names) if name not in outputs]
        parent = os.getpid()

        def attempt(index: int) -> tuple[Table | None, Exception | None, float]:
            started = time.perf_counter()
            try:
                return fn(parts[index]), None, time.perf_counter() - started
            except Exception as exc:
                if os.getpid() != parent:  # an exception may not pickle; its repr does
                    exc = WorkflowError(
                        f"partition {names[index]!r} failed in a forked worker: {exc!r}"
                    )
                return None, exc, time.perf_counter() - started

        def record(index: int, result: Table | None, error: Exception | None,
                   seconds: float) -> Exception | None:
            name = names[index]
            if error is not None:
                logger.error("run %s: partition %s failed after %.3fs: %r",
                             self.run_id, name, seconds, error)
                return error
            self.checkpoint.save(name, fingerprints[name], {name: result})
            outputs[name] = result
            logger.info("run %s: partition %s finished in %.3fs", self.run_id, name, seconds)
            return None

        if serial:
            for index in pending:
                if (error := record(index, *attempt(index))) is not None:
                    raise error
        else:
            errors = [
                record(index, *outcome)
                for index, outcome in zip(pending, run_sharded(pending, attempt, n_jobs))
            ]
            if error := next((error for error in errors if error is not None), None):
                raise error
        return concat_tables([outputs[name] for name in names])
