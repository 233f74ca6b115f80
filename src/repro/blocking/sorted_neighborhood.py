"""Sorted-neighborhood blocker.

Concatenate both tables, sort by a sorting key, slide a window of size
``window`` over the sorted order, and emit every cross-table pair that
co-occurs inside the window.  A standard EM blocker for attributes with a
meaningful lexicographic order.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Callable

import numpy as np

from repro.blocking.base import Blocker, PairCodes, candset_from_positions, observe_blocking
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.perf import arrays
from repro.table.schema import is_missing
from repro.table.table import Table


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
    per-pair ``keep`` (so ``block_candset`` and ``block_tuples``) is
    undefined and raises.
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

    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
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
        sides = ("l", ltable, self.l_block_attr), ("r", rtable, self.r_block_attr)
        entries = [  # (sort value, side, row position)
            (self.sort_key(value), side, row)
            for side, table, attr in sides
            for row, value in enumerate(table.column(attr))
            if not is_missing(value)
        ]
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        # Cross-side pairs within the window; a window past the merged
        # length is the full cross product of the surviving rows.
        l_pos, r_pos = [], []
        for i, (_, side, row) in enumerate(entries):
            for _, other_side, other in entries[i + 1 : i + self.window]:
                if side != other_side:
                    l_pos.append(row if side == "l" else other)
                    r_pos.append(other if side == "l" else row)
        codes = PairCodes.by_key(ltable, rtable, l_key, r_key)
        l_pos, r_pos = codes.decode(
            arrays.unique_sorted(codes.encode(np.array(l_pos, np.int64), np.array(r_pos, np.int64)))
        )
        observe_blocking(self, len(l_pos))
        return candset_from_positions(
            l_pos, r_pos, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )
