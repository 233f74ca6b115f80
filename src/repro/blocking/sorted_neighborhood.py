"""Sorted-neighborhood blocker.

Concatenate both tables, sort by a sorting key, slide a window of size
``window`` over the sorted order, and emit every cross-table pair that
co-occurs inside the window.  A standard EM blocker for attributes with a
meaningful lexicographic order.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Callable

from repro.blocking.base import Blocker, make_candset, observe_blocking
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.table.schema import is_missing
from repro.table.table import Row, Table


class SortedNeighborhoodBlocker(Blocker):
    """Windowed blocking over a sorted merge of the two tables.

    ``sort_key`` maps a row to its sorting value (default: the blocking
    attribute's lowercased string).

    Drop semantics (explicit, not incidental): rows whose blocking
    attribute is missing are removed *before* sorting — they occupy no
    window slot, never pair with anything, and do not widen anyone
    else's neighborhood.  When every row is missing the candidate set is
    therefore empty.  A ``window`` at least as large as the merged
    non-missing row count degrades to the full cross product of the
    surviving rows.  Note: this blocker is inherently table-level;
    per-pair ``block_tuples`` is undefined and raises.
    """

    def __init__(
        self,
        l_block_attr: str,
        r_block_attr: str | None = None,
        window: int = 3,
        sort_key: Callable[[Any], Any] | None = None,
    ):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        self.l_block_attr = l_block_attr
        self.r_block_attr = r_block_attr if r_block_attr is not None else l_block_attr
        self.window = window
        self.sort_key = sort_key or (lambda value: str(value).lower())

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        raise NotImplementedError(
            "sorted-neighborhood blocking is defined over whole tables, "
            "not single pairs"
        )

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str = "id",
        r_key: str = "id",
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
    ) -> Table:
        ltable.require_columns([l_key, self.l_block_attr])
        rtable.require_columns([r_key, self.r_block_attr])
        entries: list[tuple[Any, str, Any]] = []  # (sort value, side, key value)
        for key_value, value in zip(ltable.column(l_key), ltable.column(self.l_block_attr)):
            if not is_missing(value):
                entries.append((self.sort_key(value), "l", key_value))
        for key_value, value in zip(rtable.column(r_key), rtable.column(self.r_block_attr)):
            if not is_missing(value):
                entries.append((self.sort_key(value), "r", key_value))
        entries.sort(key=lambda entry: (entry[0], entry[1]))

        pairs: set[tuple[Any, Any]] = set()
        if not entries:
            # All sort values missing on both sides: every row was
            # dropped (see the class docstring), so nothing can pair.
            observe_blocking(self, 0)
            return make_candset(
                [], ltable, rtable, l_key, r_key,
                l_output_attrs, r_output_attrs, catalog,
            )
        if self.window >= len(entries):
            # The window covers the whole merged table: explicitly the
            # full cross product of the surviving (non-missing) rows,
            # rather than trusting the slice below to clamp.
            l_ids = [key for _, side, key in entries if side == "l"]
            r_ids = [key for _, side, key in entries if side == "r"]
            pairs = {(l_id, r_id) for l_id in l_ids for r_id in r_ids}
        else:
            for i, (_, side, key_value) in enumerate(entries):
                for j in range(i + 1, min(i + self.window, len(entries))):
                    _, other_side, other_key = entries[j]
                    if side == other_side:
                        continue
                    if side == "l":
                        pairs.add((key_value, other_key))
                    else:
                        pairs.add((other_key, key_value))
        observe_blocking(self, len(pairs))
        return make_candset(
            sorted(pairs), ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )
