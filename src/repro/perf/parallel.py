"""One multicore executor for every candidate-generation hot path.

PyMatcher's production story (Section 4.1) is partition parallelism on a
multi-core machine.  The sim joins, the blockers, feature extraction and
the runtime's :class:`~repro.runtime.ParallelExecutor` (and so
``CheckpointedRun``) all fan out through the same primitives:

* :func:`split_evenly` / :func:`partition_table` — contiguous, ordered
  partitioning of work lists and tables;
* :func:`run_sharded` — map a worker over shards on a fork process pool.
  The worker and any state it closes over are inherited by the children
  through ``fork`` rather than pickled, so closures over indexes, feature
  tables, and tokenizer caches all work;
* :func:`concat_tables` — single-pass merge of partition outputs;
* :func:`parallel_map_partitions` — the production-stage entry point,
  kept with its original signature.

Because shards are contiguous and results are concatenated in shard
order, every parallel entry point built on this module produces output
byte-identical to its serial run.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.exceptions import ConfigurationError, SchemaError
from repro.table.table import Table

T = TypeVar("T")


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial; positive values are taken as-is;
    negative values count back from the machine size in the joblib
    convention (``-1`` = all cores).  ``0`` is rejected.
    """
    if n_jobs is None:
        return 1
    if n_jobs == 0:
        raise ConfigurationError("n_jobs must be a non-zero int (got 0)")
    if n_jobs < 0:
        return max(multiprocessing.cpu_count() + 1 + n_jobs, 1)
    return n_jobs


def split_evenly(items: Sequence[T], n_shards: int) -> list[Sequence[T]]:
    """Split a sequence into at most ``n_shards`` contiguous, ordered runs."""
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    n_items = len(items)
    n_shards = min(n_shards, max(n_items, 1))
    size, extra = divmod(n_items, n_shards)
    shards = []
    start = 0
    for shard_index in range(n_shards):
        stop = start + size + (1 if shard_index < extra else 0)
        shards.append(items[start:stop])
        start = stop
    return shards


# Worker state inherited by forked pool children.  ``run_sharded`` sets it
# immediately before forking and restores it after, so the children see a
# consistent snapshot without pickling the worker or its closure.
_FORKED_WORKER: Callable[[Any], Any] | None = None

#: Minimum total sized work (sum of shard lengths) worth forking for.
#: Pool startup costs a few milliseconds per worker; below this many
#: items the serial loop finishes before the pool would even spin up
#: (measured break-even is in the hundreds of rows for the join probes;
#: 64 is conservative in the fork direction).  Shards without ``len``
#: are assumed large.
MIN_FORK_ITEMS = 64

# The fork context is a stdlib singleton, but resolve it once and keep a
# module-level handle so every run_sharded call shares one context
# object instead of re-resolving the start-method table per call.
_FORK_CONTEXT: multiprocessing.context.BaseContext | None = None


def _fork_context() -> multiprocessing.context.BaseContext | None:
    global _FORK_CONTEXT
    if _FORK_CONTEXT is None:
        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        _FORK_CONTEXT = multiprocessing.get_context("fork")
    return _FORK_CONTEXT


def _total_items(shards: Sequence[Any]) -> int | None:
    """Sum of shard lengths, or ``None`` when any shard is unsized.

    A ``str``/``bytes`` shard counts as unsized: it names a unit of work
    (the runtime ships node names), so its length says nothing about the
    work behind it.
    """
    total = 0
    for shard in shards:
        if isinstance(shard, (str, bytes)):
            return None
        try:
            total += len(shard)
        except TypeError:
            return None
    return total


def _call_forked_worker(shard: Any) -> Any:
    return _FORKED_WORKER(shard)


def run_sharded(
    shards: Sequence[Any],
    worker: Callable[[Any], Any],
    n_jobs: int | None = 1,
) -> list[Any]:
    """Apply ``worker`` to each shard, in order; fan out when ``n_jobs > 1``.

    Results come back in shard order, so callers that concatenate them get
    exactly the serial output.  ``worker`` may be any callable, including
    a closure over large read-only state: children receive it via fork,
    not pickle.  Only the shards and the results cross process
    boundaries.  Falls back to serial execution on platforms without the
    ``fork`` start method — and skips the pool entirely when the total
    sized work is under :data:`MIN_FORK_ITEMS`, where pool startup would
    dominate the work itself (two 3-row shards run inline, not forked).
    """
    n_jobs = effective_n_jobs(n_jobs)
    if n_jobs <= 1 or len(shards) <= 1:
        return [worker(shard) for shard in shards]
    context = _fork_context()
    if context is None:
        return [worker(shard) for shard in shards]
    total = _total_items(shards)
    if total is not None and total < MIN_FORK_ITEMS:
        return [worker(shard) for shard in shards]
    global _FORKED_WORKER
    previous = _FORKED_WORKER
    _FORKED_WORKER = worker
    try:
        with context.Pool(processes=min(n_jobs, len(shards))) as pool:
            return pool.map(_call_forked_worker, shards)
    finally:
        _FORKED_WORKER = previous


def partition_table(table: Table, n_partitions: int) -> list[Table]:
    """Split a table into ``n_partitions`` contiguous row blocks."""
    if n_partitions < 1:
        raise ConfigurationError(f"n_partitions must be >= 1, got {n_partitions}")
    if table.num_rows == 0:
        return [table.copy()]
    n_partitions = min(n_partitions, table.num_rows)
    size = -(-table.num_rows // n_partitions)  # ceil division
    return [
        table.take(range(start, min(start + size, table.num_rows)))
        for start in range(0, max(table.num_rows, 1), size)
    ]


def concat_tables(parts: Sequence[Table]) -> Table:
    """Stack tables with identical columns in one pass.

    Unlike folding ``Table.concat`` pairwise (which copies O(P^2) rows
    across P partitions), this extends each output column exactly once.
    """
    if not parts:
        raise ConfigurationError("concat_tables needs at least one table")
    first = parts[0]
    if len(parts) == 1:
        return first.copy()
    columns: dict[str, list[Any]] = {name: list(first.column(name)) for name in first.columns}
    for part in parts[1:]:
        if set(part.columns) != set(columns):
            raise SchemaError(
                f"cannot concat tables with different columns: "
                f"{first.columns} vs {part.columns}"
            )
        for name, values in columns.items():
            values.extend(part.column(name))
    return Table(columns)


def parallel_map_partitions(
    table: Table,
    fn: Callable[[Table], Table],
    n_workers: int = 2,
    n_partitions: int | None = None,
) -> Table:
    """Apply ``fn`` to each partition on a process pool; concat results.

    With ``n_workers=1`` the map runs in-process (no pool).  ``fn`` does
    not need to be picklable: workers inherit it through fork.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    partitions = partition_table(table, n_partitions or n_workers)
    return concat_tables(run_sharded(partitions, fn, n_jobs=n_workers))
