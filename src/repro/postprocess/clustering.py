"""Post-processing of match output: clustering, 1-1 enforcement, merging.

Section 3 notes that recent EM work considers "post-processing, e.g.,
clustering and merging matches" part of the problem.  Given the matcher's
pair-level output, this module:

* clusters matches into entities via connected components (:class:`UnionFind`);
* enforces a one-to-one mapping when each side is internally
  duplicate-free (greedy max-score matching);
* merges the records of a cluster into a canonical record.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.table.schema import is_missing
from repro.table.table import Row, Table

Pair = tuple[Any, Any]


class UnionFind:
    """Disjoint sets with path compression and union by size; :meth:`groups`
    come in order of their first-added member."""

    def __init__(self):
        self._parent: dict[Any, Any] = {}
        self._size: dict[Any, int] = {}

    def add(self, item: Any) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Any) -> Any:
        root = item
        parent = self._parent
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Any, b: Any) -> bool:
        """Merge the sets holding ``a`` and ``b``, adding new items; False if already one."""
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> list[set[Any]]:
        by_root: dict[Any, set[Any]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())

    def __len__(self) -> int:
        return len(self._parent)


def largest_first(groups: list[set[Any]]) -> list[set[Any]]:
    """Groups by size, largest first, then by their members' ``str``; the
    sort is stable, so groups that print alike keep their order."""
    return sorted(groups, key=lambda group: (-len(group), sorted(map(str, group))))


def cluster_matches(pairs: set[Pair] | list[Pair]) -> list[set[tuple[str, Any]]]:
    """Group matched pairs into entity clusters (connected components).

    Node identity is side-qualified — ``("l", id)`` / ``("r", id)`` — so a
    key value appearing in both tables stays two distinct nodes.  Returns
    clusters sorted by size (largest first), each a set of qualified ids.
    """
    components = UnionFind()
    for l_id, r_id in pairs:
        components.union(("l", l_id), ("r", r_id))
    return largest_first(components.groups())


def enforce_one_to_one(
    scored_pairs: list[tuple[Any, Any, float]]
) -> set[Pair]:
    """Keep a one-to-one subset of matches, preferring higher scores.

    Greedy max-weight matching: sort by descending score and accept a pair
    when neither side is taken yet.  The right policy when each input
    table is internally duplicate-free, as in the paper's two-table
    scenario — a tuple can have at most one true match.
    """
    taken_left: set[Any] = set()
    taken_right: set[Any] = set()
    kept: set[Pair] = set()
    ordered = sorted(scored_pairs, key=lambda item: (-item[2], str(item[0]), str(item[1])))
    for l_id, r_id, _ in ordered:
        if l_id in taken_left or r_id in taken_right:
            continue
        taken_left.add(l_id)
        taken_right.add(r_id)
        kept.add((l_id, r_id))
    return kept


def merge_records(rows: list[Row], key_column: str | None = None) -> Row:
    """Merge duplicate records into one canonical record.

    Per column: the most frequent non-missing value wins; frequency ties
    go to the longest string rendering (the most informative variant).
    The key column (if named) is taken from the first record.
    """
    if not rows:
        return {}
    merged: Row = {}
    columns = rows[0].keys()
    for column in columns:
        if column == key_column:
            merged[column] = rows[0][column]
            continue
        values = [row[column] for row in rows if not is_missing(row.get(column))]
        if not values:
            merged[column] = None
            continue
        counts = Counter(values)
        best = max(counts, key=lambda value: (counts[value], len(str(value))))
        merged[column] = best
    return merged


def merge_matches(
    matches: set[Pair] | list[Pair],
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
) -> Table:
    """Produce one merged record per matched entity cluster.

    Output columns are the union of both tables' non-key columns plus
    ``cluster_id`` and the member lists ``l_ids`` / ``r_ids``.
    """
    l_index = ltable.index_by(l_key)
    r_index = rtable.index_by(r_key)
    rows = []
    for cluster_id, cluster in enumerate(cluster_matches(matches)):
        members = []
        l_ids, r_ids = [], []
        for side, key_value in sorted(cluster, key=lambda n: (n[0], str(n[1]))):
            if side == "l":
                members.append({k: v for k, v in l_index[key_value].items() if k != l_key})
                l_ids.append(key_value)
            else:
                members.append({k: v for k, v in r_index[key_value].items() if k != r_key})
                r_ids.append(key_value)
        merged = merge_records(members)
        merged["cluster_id"] = cluster_id
        merged["l_ids"] = ",".join(str(v) for v in sorted(l_ids, key=str))
        merged["r_ids"] = ",".join(str(v) for v in sorted(r_ids, key=str))
        rows.append(merged)
    return Table.from_rows(rows)
