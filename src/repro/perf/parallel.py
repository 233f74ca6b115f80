"""The production stage's one fan-out: a partition map on a fork pool.

PyMatcher's production story (Section 4.1) is partition parallelism on a
multi-core machine: the captured workflow runs unchanged over row blocks
of its input.  That is the only place this package forks.  The joins,
blockers and feature extraction run serially inside each partition, and
the runtime runs every operator graph in the calling process;
:func:`parallel_map_partitions` and ``CheckpointedRun`` fan out through
the same primitives:

* :func:`partition_table` — contiguous, ordered row blocks of a table,
  each carrying the source table's catalog entry;
* :func:`run_sharded` — map a worker over shards on a fork process pool.
  The worker and any state it closes over are inherited by the children
  through ``fork`` rather than pickled, so closures over indexes, feature
  tables, and tokenizer caches all work.  Inside a pool worker (a
  daemonic process, which may not have children) it maps inline, so a
  nested partition map runs instead of crashing;
* :func:`concat_tables` — single-pass merge of partition outputs;
* :func:`parallel_map_partitions` — the production-stage entry point.

Because partitions are contiguous and results are concatenated in
partition order, a partition map's output is the serial map's.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Sequence
from typing import Any

from repro.catalog.catalog import get_catalog
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.metrics import get_registry
from repro.table.table import Table


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


# The worker and its shards, inherited by forked pool children.
# ``run_sharded`` sets this immediately before forking and restores it
# after, so the children see a consistent snapshot without pickling the
# worker, its closure or the shards; only shard indices and results cross.
_FORKED_WORK: tuple[Callable[[Any], Any], Sequence[Any]] | None = None

#: Minimum total sized work (sum of shard lengths, so rows for a
#: partition map) worth forking for.  Pool startup costs a few
#: milliseconds per worker; a partition map over fewer rows finishes
#: before the pool would even spin up.  Shards without ``len``
#: (``CheckpointedRun``'s partition indices) are assumed large.
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
    """Sum of shard lengths, or ``None`` when any shard is unsized."""
    total = 0
    for shard in shards:
        try:
            total += len(shard)
        except TypeError:
            return None
    return total


def _call_forked_worker(index: int) -> tuple[Any, dict]:
    """A shard's result and the counter increments its work made here."""
    worker, shards = _FORKED_WORK
    before = get_registry().counters()
    result = worker(shards[index])
    after = get_registry().counters()
    return result, {key: value - before.get(key, 0) for key, value in after.items()
                    if value != before.get(key, 0)}


def run_sharded(
    shards: Sequence[Any],
    worker: Callable[[Any], Any],
    n_jobs: int | None = 1,
) -> list[Any]:
    """Apply ``worker`` to each shard, in order; fan out when ``n_jobs > 1``.

    Results come back in shard order, so callers that concatenate them get
    exactly the serial output.  ``worker`` may be any callable, including
    a closure over large read-only state: children receive it and the
    shards via fork, not pickle, so a shard table is the parent's object,
    catalog entry and all.  Only the results cross process boundaries,
    each with the counter increments its shard made, which are added to
    the parent's registry.
    Falls back to serial execution on platforms without the
    ``fork`` start method — and skips the pool entirely when the total
    sized work is under :data:`MIN_FORK_ITEMS`, where pool startup would
    dominate the work itself (two 3-row shards run inline, not forked),
    and inside a pool worker, which as a daemonic process may not fork.
    """
    n_jobs, context, total = effective_n_jobs(n_jobs), _fork_context(), _total_items(shards)
    if (
        n_jobs <= 1
        or len(shards) <= 1
        or context is None
        or multiprocessing.current_process().daemon
        or (total is not None and total < MIN_FORK_ITEMS)
    ):
        return [worker(shard) for shard in shards]
    global _FORKED_WORK
    previous = _FORKED_WORK
    _FORKED_WORK = worker, shards
    try:
        with context.Pool(processes=min(n_jobs, len(shards))) as pool:
            outcomes = pool.map(_call_forked_worker, range(len(shards)))
    finally:
        _FORKED_WORK = previous
    registry = get_registry()
    for _, increments in outcomes:
        for (name, labels), amount in increments.items():
            registry.counter(name, **dict(labels)).inc(amount)
    return [result for result, _ in outcomes]


def partition_table(table: Table, n_partitions: int) -> list[Table]:
    """Split a table into ``n_partitions`` contiguous row blocks.

    Each block carries a copy of ``table``'s entry in the process catalog,
    when it has one, so a candidate-set partition goes straight into
    ``extract_feature_vecs`` or a matcher's ``predict``.
    """
    if n_partitions < 1:
        raise ConfigurationError(f"n_partitions must be >= 1, got {n_partitions}")
    if table.num_rows == 0:
        parts = [table.copy()]
    else:
        size = -(-table.num_rows // min(n_partitions, table.num_rows))  # ceil division
        parts = [
            table.take(range(start, min(start + size, table.num_rows)))
            for start in range(0, table.num_rows, size)
        ]
    catalog = get_catalog()
    if catalog.has_metadata(table):
        for part in parts:
            catalog.copy_metadata(table, part)
    return parts


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
    not need to be picklable: workers inherit it and the partitions (with
    their catalog entries) through fork.  Map a join or a blocker over its
    left table: the concatenation is the whole call's rows in order, with
    ``_id`` restarting per partition.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    partitions = partition_table(table, n_partitions or n_workers)
    return concat_tables(run_sharded(partitions, fn, n_jobs=n_workers))
