"""Blocker base class and candidate-set construction.

A blocker consumes two tables A and B and produces a *candidate set*: a
table whose rows reference a pair (one A-tuple, one B-tuple) that survived
blocking.  Following the paper's space-efficiency principle, the candidate
set carries only the pair of foreign keys — ``ltable_<key>`` and
``rtable_<key>`` — plus optional user-requested output attributes, and the
key/FK metadata is recorded in the catalog rather than in the table.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from typing import Any

from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
from repro.obs import get_registry
from repro.perf.parallel import effective_n_jobs, run_sharded, split_evenly
from repro.table.schema import is_missing
from repro.table.table import Row, Table

CANDSET_ID = "_id"
TEXT = "_text"


def text_view(table: Table, key: str, columns: Sequence[str]) -> Table:
    """``key`` and one ``TEXT`` column: each row's non-missing ``columns``
    values as ``str``, joined with a space and lowercased, or ``None``
    when every value is missing.

    The one text the token tools read: the overlap and rule blockers join
    it over one column, the blocking debugger and the samplers tokenize
    it over several.  Store fingerprints ignore column names, so a view
    of one unchanged column hits the artifacts of any earlier view of it.
    """
    cells = [table.column(name) for name in columns]
    texts = []
    for row in range(table.num_rows):
        present = [str(column[row]) for column in cells if not is_missing(column[row])]
        texts.append(" ".join(present).lower() if present else None)
    return Table({key: table.column(key), TEXT: texts})


def observe_blocking(
    blocker: "Blocker | str", pair_count: int, seconds: float | None = None
) -> None:
    """Record one blocking call's surviving-pair count in the registry.

    Every ``block_tables``/``block_candset`` implementation calls this
    with its output size (and wall seconds when it times itself), so the
    per-blocker funnel — how many pairs each blocker lets through — is
    observable across all workflow stacks.
    """
    name = blocker if isinstance(blocker, str) else type(blocker).__name__
    registry = get_registry()
    registry.counter("blocking_calls_total", blocker=name).inc()
    registry.counter("blocking_pairs_total", blocker=name).inc(pair_count)
    if seconds is not None:
        registry.histogram("blocking_seconds", blocker=name).observe(seconds)


def fk_column_names(l_key: str, r_key: str) -> tuple[str, str]:
    """Names of the candidate set's foreign-key columns."""
    return f"ltable_{l_key}", f"rtable_{r_key}"


def make_candset(
    pairs: Iterable[tuple[Any, Any]],
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_output_attrs: Sequence[str] = (),
    r_output_attrs: Sequence[str] = (),
    catalog: Catalog | None = None,
) -> Table:
    """Build a candidate-set table from (l_key_value, r_key_value) pairs.

    Registers the candidate set's metadata (key ``_id``, both FKs, the base
    tables) in the catalog so downstream tools can validate it.
    """
    cat = catalog if catalog is not None else get_catalog()
    fk_l, fk_r = fk_column_names(l_key, r_key)
    l_index = ltable.index_by(l_key) if l_output_attrs else None
    r_index = rtable.index_by(r_key) if r_output_attrs else None

    columns: dict[str, list[Any]] = {CANDSET_ID: [], fk_l: [], fk_r: []}
    for attr in l_output_attrs:
        columns[f"ltable_{attr}"] = []
    for attr in r_output_attrs:
        columns[f"rtable_{attr}"] = []

    for i, (l_value, r_value) in enumerate(pairs):
        columns[CANDSET_ID].append(i)
        columns[fk_l].append(l_value)
        columns[fk_r].append(r_value)
        for attr in l_output_attrs:
            columns[f"ltable_{attr}"].append(l_index[l_value][attr])
        for attr in r_output_attrs:
            columns[f"rtable_{attr}"].append(r_index[r_value][attr])

    candset = Table(columns)
    cat.set_key(ltable, l_key)
    cat.set_key(rtable, r_key)
    cat.set_candset_metadata(candset, CANDSET_ID, fk_l, fk_r, ltable, rtable)
    return candset


def candset_pairs(candset: Table, catalog: Catalog | None = None) -> list[tuple[Any, Any]]:
    """Return the (l_key_value, r_key_value) pairs of a candidate set."""
    cat = catalog if catalog is not None else get_catalog()
    meta = cat.get_candset_metadata(candset)
    return list(zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)))


class Blocker:
    """Base class for blockers.

    Subclasses implement :meth:`block_tuples` (does this pair survive?) and
    may override :meth:`block_tables` with an index-based implementation;
    the default here is the quadratic fallback, correct for any blocker.
    ``n_jobs`` fans the scan over the left table out on a process pool;
    shards are contiguous and merged in order, so parallel output is
    byte-identical to serial.
    """

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        """Return ``True`` when the pair should be *dropped* (blocked)."""
        raise NotImplementedError

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str = "id",
        r_key: str = "id",
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
        n_jobs: int = 1,
    ) -> Table:
        """Apply the blocker to A x B and return the candidate set."""
        started = time.perf_counter()
        ltable.require_columns([l_key])
        rtable.require_columns([r_key])
        r_rows = list(rtable.rows())

        def scan_shard(shard: list[Row]) -> list[tuple[Any, Any]]:
            return [
                (l_row[l_key], r_row[r_key])
                for l_row in shard
                for r_row in r_rows
                if not self.block_tuples(l_row, r_row)
            ]

        shards = split_evenly(list(ltable.rows()), effective_n_jobs(n_jobs))
        pairs = [
            pair for shard in run_sharded(shards, scan_shard, n_jobs) for pair in shard
        ]
        observe_blocking(self, len(pairs), time.perf_counter() - started)
        return make_candset(
            pairs, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )

    def block_candset(
        self,
        candset: Table,
        catalog: Catalog | None = None,
        n_jobs: int = 1,
    ) -> Table:
        """Further filter an existing candidate set with this blocker.

        Validates the candidate set's metadata first (self-containment),
        then keeps only the surviving pairs; the result is re-registered in
        the catalog against the same base tables.

        For most blockers this is a *pair-local* filter: each pair is kept
        or dropped on its own two rows, whatever other pairs are present,
        so a chain of such filters yields the same pairs in the same order
        however it is arranged (only the cost differs: put the cheapest
        per pair first).  Three are *not* pair-local:
        ``SortedNeighborhoodBlocker`` and ``CanopyBlocker`` decide over
        whole tables (their ``block_tuples`` raises, so this method does
        too), and ``VectorBlocker(top_k=...)`` ranks each left record's
        surviving partners against each other, so its position in a chain
        changes the result.
        """
        cat = catalog if catalog is not None else get_catalog()
        meta = validate_candset(candset, cat)
        l_index = meta.ltable.index_by(cat.get_key(meta.ltable))
        r_index = meta.rtable.index_by(cat.get_key(meta.rtable))

        def scan_shard(shard: range) -> list[int]:
            kept = []
            for i in shard:
                row = candset.row(i)
                l_row = l_index[row[meta.fk_ltable]]
                r_row = r_index[row[meta.fk_rtable]]
                if not self.block_tuples(l_row, r_row):
                    kept.append(i)
            return kept

        shards = split_evenly(range(candset.num_rows), effective_n_jobs(n_jobs))
        keep = [i for shard in run_sharded(shards, scan_shard, n_jobs) for i in shard]
        observe_blocking(self, len(keep))
        result = candset.take(keep)
        result.add_column(CANDSET_ID, list(range(len(keep))))
        cat.set_candset_metadata(
            result, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
        )
        return result
