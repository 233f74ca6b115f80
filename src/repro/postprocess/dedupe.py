"""Single-table deduplication: the paper's "matching tuples within a
single table" scenario (Section 2).

Deduplication reduces to the two-table machinery by self-matching a table
against itself with the symmetric/self pairs removed, then clustering the
matches into duplicate groups and merging each group into a canonical
record.
"""

from __future__ import annotations

from typing import Any

from repro.blocking.base import Blocker, candset_pairs, make_candset
from repro.catalog.catalog import Catalog, get_catalog
from repro.postprocess.clustering import UnionFind, largest_first, merge_records
from repro.table.table import Table

Pair = tuple[Any, Any]


def self_block_table(
    table: Table,
    blocker: Blocker,
    key: str = "id",
    catalog: Catalog | None = None,
) -> Table:
    """Block a table against itself, keeping each unordered pair once.

    The blocker runs as usual over (table, table); self pairs ``(x, x)``
    are dropped and of each symmetric pair only the ``l_id < r_id``
    ordering is kept.
    """
    cat = catalog if catalog is not None else get_catalog()
    raw = blocker.block_tables(table, table, key, key, catalog=cat)
    seen: set[Pair] = set()
    for l_id, r_id in candset_pairs(raw, cat):
        if l_id == r_id:
            continue
        ordered = (l_id, r_id) if str(l_id) < str(r_id) else (r_id, l_id)
        seen.add(ordered)
    return make_candset(sorted(seen, key=lambda p: (str(p[0]), str(p[1]))),
                        table, table, key, key, catalog=cat)


def duplicate_groups(pairs: set[Pair] | list[Pair]) -> list[set[Any]]:
    """Connected components of the duplicate graph (plain ids: one table)."""
    components = UnionFind()
    for a, b in pairs:
        components.union(a, b)
    return largest_first(components.groups())


def dedupe_table(
    table: Table,
    duplicate_pairs: set[Pair] | list[Pair],
    key: str = "id",
) -> Table:
    """Collapse duplicate groups into canonical records.

    Rows in no duplicate pair pass through unchanged; each duplicate group
    is merged with :func:`merge_records` (keeping the lexically-smallest
    key as the survivor's key).
    """
    index = table.index_by(key)
    groups = duplicate_groups(duplicate_pairs)
    in_group = {member for group in groups for member in group}
    rows = [row for row in table.rows() if row[key] not in in_group]
    for group in groups:
        members = sorted(group, key=str)
        merged = merge_records([index[m] for m in members], key_column=key)
        merged[key] = members[0]
        rows.append(merged)
    rows.sort(key=lambda row: str(row[key]))
    return Table.from_rows(rows, columns=table.columns)
